import inspect
import math
import textwrap

import pytest

from fractions import Fraction

from twistloop import rootsys
from twistloop.oracle import (ambient_gram, ambient_roots, ambient_vector, cartan_from_gram,
                              reflect, simple_gram, simple_reflection, simple_root_vectors,
                              vec_dot)
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import (CartanType, RootSystem, build_root_system, cartan_matrix,
                               degrees, root_count, weyl_order)
from twistloop.twist import expected_folded_type

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
    assert len(rs.positive) == len(rs.roots) // 2
    assert all(min(c) >= 0 for c in rs.positive)


@pytest.mark.parametrize("family,rank", DIAGRAM_CHECKED)
def test_degree_product_is_weyl_order(family, rank):
    # the pipeline trusts this table for the folded type and certifies it;
    # the exponents d - 1 add up to the positive roots, the reflections
    t = CartanType(family, rank)
    ds = degrees(t)
    assert math.prod(ds) == weyl_order(t)
    assert len(ds) == rank
    assert list(ds) == sorted(ds)  # the order cap reads them ascending
    assert sum(d - 1 for d in ds) == root_count(t) // 2


def test_paper_counts():
    assert len(build_root_system(CartanType("A", 2)).roots) == 6
    d4 = build_root_system(CartanType("D", 4))
    assert len(d4.roots) == 24 and len(d4.positive) == 12
    g2 = build_root_system(CartanType("G", 2))
    assert len(g2.roots) == 12 and len(g2.positive) == 6
    f4 = build_root_system(CartanType("F", 4))
    assert len(f4.positive) == 24
    assert len(build_root_system(CartanType("E", 6)).positive) == 36


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
    ambient = {c: ambient_vector(t, c) for c in rs.roots}
    # the integer image of each root is a root, the ambient image's
    for c, v in ambient.items():
        for i, alpha in enumerate(simple):
            image = simple_reflection(c, i, rs.cartan_matrix)
            assert ambient[image] == reflect(v, alpha)


def test_root_data_hold_no_reflection_table():
    # the closure keeps no images: the pipeline reads none, and the oracle
    # permutes the roots through simple_reflection
    rs = build_root_system(CartanType("E", 6))
    assert not hasattr(rs, "reflections")
    assert rootsys._closure(rs.cartan_matrix, 72) == rs.positive


@pytest.mark.parametrize("cartan", [((2, -2), (-2, 2)),
                                    ((2, -1, 0), (-1, 2, -2), (0, -2, 2))],
                         ids=["affine A1", "indefinite rank 3"])
@pytest.mark.parametrize("limit", [1, 10, 255])
def test_an_infinite_closure_raises_at_the_limit(cartan, limit):
    # neither matrix has a finite root system: the raising steps never stop
    with pytest.raises(ValueError, match=f"root closure passed {limit} roots"):
        rootsys._closure(cartan, limit)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_the_closure_limit_binds_on_the_root_count(family, rank):
    # the positive closure counts its mirror: the type's root count passes
    # and one fewer raises
    cartan, count = cartan_matrix(CartanType(family, rank)), root_count(CartanType(family, rank))
    assert 2 * len(rootsys._closure(cartan, count)) == count
    with pytest.raises(ValueError, match=f"root closure passed {count - 1} roots"):
        rootsys._closure(cartan, count - 1)


@pytest.mark.parametrize("family,rank", DIAGRAM_CHECKED)
def test_diagram_data_match_the_realization(family, rank):
    # the Cartan matrix read off the Dynkin diagram is the one divided out
    # of the diagram's integer Gram matrix and the realization's, and the
    # diagram's Gram matrix is the realization's up to scale
    t = CartanType(family, rank)
    gram, ambient = simple_gram(t), ambient_gram(t)
    assert cartan_matrix(t) == cartan_from_gram(gram) == cartan_from_gram(ambient)
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


VALIDATED = [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


def _patch_closure(monkeypatch, positive):
    """Make RootSystem read the given positive roots from its closure."""
    monkeypatch.setattr(rootsys, "_closure", lambda cartan, limit: tuple(sorted(positive)))


def _flipped_closure():
    """rootsys._closure with the sign of its raising step flipped, d[i] += k
    for d[i] -= k: a mutant of the library's own source, not memoized."""
    source = textwrap.dedent(inspect.getsource(rootsys._closure.__wrapped__))
    assert source.startswith("@_memo\n") and source.count("d[i] -= k") == 1
    scope = dict(vars(rootsys))
    exec(source.removeprefix("@_memo\n").replace("d[i] -= k", "d[i] += k"), scope)
    return scope["_closure"]


@pytest.mark.parametrize("family,rank", VALIDATED)
def test_validate_rejects_a_wrong_root_count(family, rank, monkeypatch):
    t = CartanType(family, rank)
    positive = rootsys._closure(cartan_matrix(t), root_count(t))
    # one positive root goes: the signs still hold
    _patch_closure(monkeypatch, positive[:-1])
    with pytest.raises(ValueError, match=f"^{family}{rank}: built {root_count(t) - 2} "
                                         f"roots, expected {root_count(t)}$"):
        RootSystem(t)


@pytest.mark.parametrize("family,rank", VALIDATED)
def test_validate_rejects_mixed_signs(family, rank, monkeypatch):
    t = CartanType(family, rank)
    positive = rootsys._closure(cartan_matrix(t), root_count(t))
    v = (1, -1) + (0,) * (rank - 2)
    # a mixed vector replaces a positive root: the count still holds
    _patch_closure(monkeypatch, (v,) + positive[1:])
    with pytest.raises(ValueError, match="^root coordinates of mixed sign$"):
        RootSystem(t)


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("G", 2)])
def test_root_system_rejects_a_sign_flipped_closure(family, rank, monkeypatch):
    # the flipped closure has the type's root count, and the degree product
    # reads no root: only the sign check on the positive roots catches it
    t = CartanType(family, rank)
    flipped = _flipped_closure()
    positive = flipped(cartan_matrix(t), root_count(t))
    assert 2 * len(positive) == root_count(t)
    if t == CartanType("B", 2):
        assert positive == ((-1, 1), (0, 1), (1, -2), (1, 0))
    monkeypatch.setattr(rootsys, "_closure", flipped)
    with pytest.raises(ValueError, match="^root coordinates of mixed sign$"):
        RootSystem(t)


def test_root_system_rejects_a_sign_flipped_closure_past_its_limit(monkeypatch):
    # on E6 the flipped steps never stop: the closure's limit catches them
    monkeypatch.setattr(rootsys, "_closure", _flipped_closure())
    with pytest.raises(ValueError, match="^root closure passed 72 roots$"):
        RootSystem(CartanType("E", 6))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_roots_mirror_the_positive_roots(family, rank):
    # the whole system, sorted, is the positive roots' negatives, reversed,
    # then the positive roots, and reading it once forms it once
    rs = build_root_system(CartanType(family, rank))
    negative = tuple(tuple(-x for x in c) for c in rs.positive)
    assert rs.roots == tuple(sorted(negative + rs.positive))
    assert rs.roots[:len(rs.positive)] == negative[::-1]
    assert rs.roots[len(rs.positive):] == rs.positive
    assert rs.roots is rs.roots


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
    # of the types a case names, the input and the folded type, only the
    # folded type's Cartan matrix is read, once: the rows are read off it,
    # and the twist is checked on the input type's Dynkin diagram.  An
    # identity twist folds to the input type itself.  No route closes a
    # root.  The Cartan matrix is read off the Dynkin diagram: the pipeline
    # forms no Gram matrix.
    memoized = (rootsys.cartan_matrix, rootsys._closure)
    for fn in memoized:
        fn.cache_clear()
    t = CartanType(family, rank)
    folded = expected_folded_type(t, tag)
    assert len({t, folded}) == types
    compute(TwistSpec(t, tag))
    assert [fn.cache_info().misses for fn in memoized] == [1, 0]
    rootsys.cartan_matrix(folded)
    assert rootsys.cartan_matrix.cache_info().misses == 1
    assert not hasattr(rootsys, "simple_gram") and not hasattr(rootsys, "cartan_from_gram")
