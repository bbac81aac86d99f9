"""The order-two twist of E6.

The E6 diagram flip fixes a four-dimensional subspace of the Cartan
algebra.  The 72 roots fall into 48 orbits, matching the 48 roots of F4,
so the orbit criterion applies.  The elements of the 51840-element Weyl
group that commute with the flip form a group of order 1152, which acts
on the fixed subspace as exactly the F4 Weyl group, and the series is the
F4 loop-group series.

That group is generated by four elements, one longest parabolic element
per orbit of the flip on the simple nodes, each walked from the Cartan
matrix on its images of the simple roots and kept as one row on the
fixed subspace: a simple reflection of F4.  The order 1152 is the product
of the sizes of four orbits of coordinate functionals there, and F4's
degrees 2, 6, 8, 12, which multiply to it, are certified by a nonzero
Jacobian determinant.  No element of either group is enumerated.
"""

import time

from twistloop import CartanType, TwistSpec, compute

start = time.time()
report = compute(TwistSpec(CartanType("E", 6), "flip"))
elapsed = time.time() - start

print(f"computed in {elapsed:.1f}s")
print(f"folded type: {report.folded_type}")
print(f"orbit criterion: {report.orbit_criterion.orbit_count} orbits vs "
      f"{report.orbit_criterion.folded_root_count} folded roots")
print(f"stabilizer order {report.stabilizer_order}, restricted image order "
      f"{report.restricted_order}")
print(f"restricted image preserves the folded roots: {report.preserves_folded}")
print(f"generators: odd {report.closed_form.x_degrees}, "
      f"polynomial {report.closed_form.y_degrees}")
print(f"excluded characteristics: {report.excluded_characteristics}")
print()
print(report.to_text())
