"""Dynkin folding under the hood.

The flip of A_{n-1} projects the roots e_i - e_j onto the fixed subspace.
For even n the projections form the reduced system C_{n/2}; for odd n
they form the non-reduced pattern where both E_i and 2E_i occur, the
folded (indivisible) part being B_{(n-1)/2}.  The orbit-count criterion
detects exactly this difference: it holds when the projection is already
reduced and is inconclusive otherwise.
"""

from twistloop import (CartanType, TwistSpec, build_root_system, compute,
                       folded_root_system, make_automorphism, project_roots)

for rank in range(2, 8):
    t = CartanType("A", rank)
    rpt = compute(TwistSpec(t, "flip"))
    crit = rpt.orbit_criterion
    distinct = 2 * len(project_roots(make_automorphism(build_root_system(t), "flip")))
    print(f"A{rank} flip (SU({rank + 1})): projections {distinct}, "
          f"folded {rpt.folded_type} with {crit.folded_root_count} roots, "
          f"orbit criterion {'holds' if crit.holds else 'inconclusive'}")

print()
for rank in range(2, 7):
    rs = build_root_system(CartanType("D", rank))
    aut = make_automorphism(rs, "flip")
    fold = folded_root_system(aut)
    print(f"D{rank} flip (SO({2 * rank})): folded {fold.folded_type} with "
          f"{2 * len(fold.folded_roots)} roots = 2(n-1)^2 = {2 * (rank - 1) ** 2}")

print()
rs = build_root_system(CartanType("D", 4))
for tag in ("flip", "triality"):
    fold = folded_root_system(make_automorphism(rs, tag))
    print(f"D4 {tag}: folds to {fold.folded_type}")
