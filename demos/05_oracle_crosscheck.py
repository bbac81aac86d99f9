"""Cross-checking the series against a brute-force count.

Solomon's product over the certified invariant degrees and an explicit
monomial-basis computation are two independent routes to the same
invariant dimensions.  The brute-force
route builds the induced action on each (exterior degree a) x (polynomial
degree b) piece and computes the joint fixed subspace by exact kernels;
it is only feasible in low dimension and degree, which is exactly what
makes it a trustworthy referee for the fast route.  Its group is W^sigma
from the definition: the elements of the enumerated Weyl group that
preserve the fixed subspace, with no Steinberg generator.
"""

from twistloop import (CartanType, TwistSpec, build_root_system, compute,
                       make_automorphism)
from twistloop.oracle import brute_force_invariant_dims, wsigma_by_definition

for family, rank, tag in [("A", 2, "identity"), ("A", 3, "flip"),
                          ("D", 4, "triality")]:
    report = compute(TwistSpec(CartanType(family, rank), tag))
    aut = make_automorphism(build_root_system(CartanType(family, rank)), tag)
    group = wsigma_by_definition(aut)
    dims = brute_force_invariant_dims(group, 12)
    agree = all(report.bigraded[key] == value
                for key, value in dims.coefficients.items())
    print(f"{family}{rank} {tag}: group of order {len(group)} in dimension "
          f"{group.dim}; brute-force table matches the series: {agree}")
    row = [(key, value) for key, value in sorted(dims.coefficients.items())][:8]
    print(f"  first invariant dimensions {row}")
