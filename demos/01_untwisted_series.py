"""Untwisted loop groups: the series behind H*(BLG).

For a compact simple group with Weyl degrees d_1..d_r, the cohomology of
the classifying space of its (untwisted) loop group is free on one odd
generator in each degree 2d-1 and one polynomial generator in each degree
2d.  The engine does not take the degrees from a table: it reads them off
one Coxeter element of the Weyl group, certifies them (their product is
the group order, and invariants of those degrees have a nonzero Jacobian
determinant), expands Solomon's product over them, and only then
compares with the closed form over the table's degrees.
"""

from twistloop import CartanType, TwistSpec, compute, degrees, product_over_degrees

# Recognizing the closed form needs truncation at least 4 * (top degree) + 1,
# which is 49 for F4 and E6.
TRUNCATION = 50

for family, rank in [("A", 2), ("C", 3), ("G", 2), ("F", 4), ("E", 6)]:
    t = CartanType(family, rank)
    report = compute(TwistSpec(t, "identity", truncation=TRUNCATION))
    closed = product_over_degrees(degrees(t), TRUNCATION)
    print(f"{t}: Weyl degrees {degrees(t)}")
    print(f"  certified series   {report.series[:16]} ...")
    print(f"  closed-form series {closed[:16]} ...")
    print(f"  equal: {report.series == closed}")
    print(f"  generators: odd degrees {report.closed_form.x_degrees}, "
          f"polynomial degrees {report.closed_form.y_degrees}")
    print()

# E8 is the one type answered from the degree table alone: its Weyl group,
# of order 696729600, is past the element cap.
e8 = compute(TwistSpec(CartanType("E", 8), "identity", truncation=TRUNCATION))
print("E8 (table route):", e8.closed_form.y_degrees)
