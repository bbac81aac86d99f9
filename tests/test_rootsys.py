import math

import pytest

from fractions import Fraction

from twistloop import rootsys
from twistloop.oracle import (ambient_gram, ambient_roots, ambient_vector, reflect,
                              simple_reflection, simple_root_vectors, vec_dot)
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import (CartanType, build_root_system, cartan_from_gram,
                               cartan_matrix, degrees, root_count, simple_gram,
                               weyl_order)

ALL_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 7)] +
             [("C", r) for r in range(1, 7)] + [("D", r) for r in range(2, 7)] +
             [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])
CROSS_CHECKED = ALL_TYPES + [("A", 12), ("B", 10), ("C", 11), ("D", 12), ("A", 18)]
DIAGRAM_CHECKED = ([("A", r) for r in range(1, 31)] + [("B", r) for r in range(1, 31)] +
                   [("C", r) for r in range(1, 31)] + [("D", r) for r in range(2, 31)] +
                   [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_classical_root_count(family, rank):
    rs = build_root_system(CartanType(family, rank))
    assert len(rs.roots) == root_count(rs.cartan_type)
    assert len(rs.positive_roots()) == len(rs.roots) // 2


@pytest.mark.parametrize("family,rank", DIAGRAM_CHECKED)
def test_degree_product_is_weyl_order(family, rank):
    # the pipeline trusts this table for the folded type and certifies it;
    # the exponents d - 1 add up to the positive roots, the reflections
    t = CartanType(family, rank)
    ds = degrees(t)
    assert math.prod(ds) == weyl_order(t)
    assert len(ds) == rank
    assert sum(d - 1 for d in ds) == root_count(t) // 2


def test_paper_counts():
    assert len(build_root_system(CartanType("A", 2)).roots) == 6
    d4 = build_root_system(CartanType("D", 4))
    assert len(d4.roots) == 24 and len(d4.positive_roots()) == 12
    g2 = build_root_system(CartanType("G", 2))
    assert len(g2.roots) == 12 and len(g2.positive_roots()) == 6
    f4 = build_root_system(CartanType("F", 4))
    assert len(f4.positive_roots()) == 24
    assert len(build_root_system(CartanType("E", 6)).positive_roots()) == 36


def test_weyl_order_table():
    for n in range(2, 9):
        assert weyl_order(CartanType("D", n)) == 2 ** (n - 1) * math.factorial(n)
    assert weyl_order(CartanType("E", 6)) == 51840 == 2**7 * 3**4 * 5
    assert weyl_order(CartanType("A", 1)) == 2
    assert weyl_order(CartanType("E", 7)) == 2903040
    assert weyl_order(CartanType("E", 8)) == 696729600
    assert weyl_order(CartanType("F", 4)) == 1152


def test_degrees_table():
    assert degrees(CartanType("G", 2)) == (2, 6)
    assert degrees(CartanType("F", 4)) == (2, 6, 8, 12)
    assert degrees(CartanType("C", 2)) == (2, 4)
    assert degrees(CartanType("A", 3)) == (2, 3, 4)
    assert degrees(CartanType("D", 4)) == (2, 4, 4, 6)
    assert degrees(CartanType("E", 8)) == (2, 8, 12, 14, 18, 20, 24, 30)


def test_a2_roots_are_coordinate_differences():
    roots = ambient_roots(CartanType("A", 2))
    expected = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [0, 0, 0]
                v[i], v[j] = 1, -1
                expected.add(tuple(v))
    assert set(roots) == expected


def test_cartan_matrices():
    assert build_root_system(CartanType("A", 2)).cartan_matrix == ((2, -1), (-1, 2))
    assert build_root_system(CartanType("G", 2)).cartan_matrix == ((2, -1), (-3, 2))
    assert build_root_system(CartanType("B", 2)).cartan_matrix == ((2, -2), (-1, 2))
    assert build_root_system(CartanType("D", 2)).cartan_matrix == ((2, 0), (0, 2))


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 4), ("D", 5),
                                         ("G", 2), ("F", 4), ("E", 6)])
def test_reflections_permute_roots(family, rank):
    roots = ambient_roots(CartanType(family, rank))
    root_set = set(roots)
    for alpha in roots:
        for v in roots:
            assert reflect(v, alpha) in root_set


@pytest.mark.parametrize("family,rank", CROSS_CHECKED)
def test_integer_reflection_matches_ambient_reflection(family, rank):
    t = CartanType(family, rank)
    rs = build_root_system(t)
    simple = simple_root_vectors(t)
    ambient = [ambient_vector(t, c) for c in rs.roots]
    # the closure's reflection table holds the same images
    for c, v, images in zip(rs.roots, ambient, rs.reflections, strict=True):
        for i, alpha in enumerate(simple):
            assert images[i] == simple_reflection(c, i, rs.cartan_matrix)
            assert ambient[rs.root_index[images[i]]] == reflect(v, alpha)


@pytest.mark.parametrize("family,rank", DIAGRAM_CHECKED)
def test_diagram_data_match_the_realization(family, rank):
    # the Cartan matrix read off the Dynkin diagram is the realization's,
    # and the diagram's integer Gram matrix is the realization's up to scale
    t = CartanType(family, rank)
    gram, ambient = simple_gram(t), ambient_gram(t)
    assert cartan_matrix(t) == cartan_from_gram(ambient)
    assert all(type(x) is int for row in gram for x in row)
    scale = Fraction(gram[0][0]) / ambient[0][0]
    assert scale > 0
    assert gram == tuple(tuple(scale * x for x in row) for row in ambient)


def test_cartan_from_gram_checks_its_entries():
    assert cartan_from_gram(((2, -1), (-1, 2))) == ((2, -1), (-1, 2))
    assert cartan_from_gram(((Fraction(1, 2), Fraction(-1, 4)),
                             (Fraction(-1, 4), Fraction(1, 2)))) == ((2, -1), (-1, 2))
    with pytest.raises(ValueError, match="non-integral Cartan entry"):
        cartan_from_gram(((2, -1), (-1, 3)))
    with pytest.raises(ValueError, match=r"Cartan entry -4 out of range at \(0, 1\)"):
        cartan_from_gram(((2, -4), (-4, 2)))
    with pytest.raises(ValueError, match=r"Cartan entry 2 out of range at \(0, 1\)"):
        cartan_from_gram(((2, 2), (2, 2)))


@pytest.mark.parametrize("family,rank", CROSS_CHECKED)
def test_integer_roots_match_ambient_closure(family, rank):
    t = CartanType(family, rank)
    rs = build_root_system(t)
    assert {ambient_vector(t, c) for c in rs.roots} == set(ambient_roots(t))
    simple = simple_root_vectors(t)
    assert rs.cartan_matrix == tuple(
        tuple(Fraction(2 * vec_dot(a, b)) / vec_dot(b, b) for b in simple)
        for a in simple)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_uniform_sign_coordinates(family, rank):
    rs = build_root_system(CartanType(family, rank))
    for lc in rs.roots:
        assert all(c >= 0 for c in lc) or all(c <= 0 for c in lc)
        assert all(isinstance(c, int) for c in lc)


def _mutated(rs, remove, add=()):
    """rs with its roots replaced by a sorted set, as the constructor
    leaves them, and the index rebuilt."""
    roots = tuple(sorted((set(rs.roots) - set(remove)) | set(add)))
    rs.roots = roots
    rs.root_index = {c: i for i, c in enumerate(roots)}
    return rs


VALIDATED = [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


@pytest.mark.parametrize("family,rank", VALIDATED)
def test_validate_rejects_a_wrong_root_count(family, rank):
    rs = build_root_system(CartanType(family, rank))
    c = rs.roots[-1]
    # a root and its negative go: signs and negation still hold
    _mutated(rs, [c, tuple(-x for x in c)])
    with pytest.raises(ValueError, match=f"^{family}{rank}: built {root_count(rs.cartan_type) - 2} "
                                         f"roots, expected {root_count(rs.cartan_type)}$"):
        rs._validate()


@pytest.mark.parametrize("family,rank", VALIDATED)
def test_validate_rejects_mixed_signs(family, rank):
    rs = build_root_system(CartanType(family, rank))
    c = rs.roots[-1]
    v = (1, -1) + (0,) * (rank - 2)
    assert v not in rs.root_index
    # a mixed vector and its negative replace a root pair: the count and
    # the negation still hold
    _mutated(rs, [c, tuple(-x for x in c)], [v, tuple(-x for x in v)])
    with pytest.raises(ValueError, match="^root coordinates of mixed sign$"):
        rs._validate()


@pytest.mark.parametrize("family,rank", VALIDATED)
def test_validate_rejects_a_set_not_closed_under_negation(family, rank):
    rs = build_root_system(CartanType(family, rank))
    c = rs.roots[-1]
    v = tuple(2 * x for x in c)
    assert v not in rs.root_index
    # one positive root doubled: the count and the signs still hold
    _mutated(rs, [c], [v])
    with pytest.raises(ValueError, match="^root set not closed under negation$"):
        rs._validate()


def test_roots_closed_under_negation():
    roots = ambient_roots(CartanType("F", 4))
    root_set = set(roots)
    for v in roots:
        assert tuple(-c for c in v) in root_set


def test_simple_roots_pairwise_obtuse():
    simple = simple_root_vectors(CartanType("E", 7))
    for i, a in enumerate(simple):
        for j, b in enumerate(simple):
            if i != j:
                assert vec_dot(a, b) <= 0


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 0), ("D", 1), ("E", 5),
                                         ("E", 9), ("F", 3), ("G", 3), ("H", 3)])
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        CartanType(family, rank)


@pytest.mark.parametrize("family,rank,tag,types", [("E", 6, "identity", 1),
                                                   ("E", 6, "flip", 2),
                                                   ("D", 4, "triality", 2)])
def test_compute_reads_each_type_once(family, rank, tag, types):
    # the input type is read to build the roots (the twist is checked on the
    # Dynkin diagram), the folded type to certify the folding; an identity
    # twist folds to the input type itself.  The diagram's Gram matrix is not memoized: it is
    # O(r^2) integers, read once per Cartan matrix and once per build.
    memoized = (rootsys.cartan_matrix, rootsys._closure)
    for fn in memoized:
        fn.cache_clear()
    compute(TwistSpec(CartanType(family, rank), tag))
    assert [fn.cache_info().misses for fn in memoized] == [types] * 2
    assert not hasattr(rootsys.simple_gram, "cache_info")
