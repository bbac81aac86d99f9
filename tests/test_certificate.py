"""The certified invariant ring of W^sigma, checked against enumeration.

The pipeline reads the invariant degrees of W^sigma off one Coxeter
element, checks them against the coset-chain order and the folded root
count, certifies them with a Jacobian determinant modulo a prime, and
expands Solomon's product.  Here the oracle walks every element of
W^sigma, buckets it by its characteristic polynomial on the fixed
subspace and averages the super-Molien series; the two routes must give
the same order, bigraded series and single-graded series.
"""

import inspect
import time
from pathlib import Path

import pytest

from twistloop import cli, exact, oracle, report, rootsys, twist, weyl
from twistloop.oracle import collapse_to_cohomological
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import CartanType, build_root_system, degrees, weyl_order
from twistloop.twist import folded_root_system, make_automorphism
from twistloop.weyl import (RootPermutationAction, certify_jacobian, coset_indices,
                            invariant_degrees)

from test_acceptance import expected_series
from test_wsigma import STREAMED, coset_inputs

TRUNC = 50
PIPELINE = (cli, exact, report, rootsys, twist, weyl)
MOVED_TO_ORACLE = ("_walk_products", "wsigma_elements", "fixed_space_charpoly_buckets",
                   "super_molien_from_buckets", "rational_function_series",
                   "dets_from_charpoly", "wsigma_transversals", "fixed_space_matrices",
                   "collapse_to_cohomological")
# the multi-row form of the generators, replaced by one row each, and the
# row read off a dense matrix, replaced by the row read off the walk
DELETED = ("MovedRows", "moved_rows", "_functional_image", "_reflection_rows", "_orbit",
           "reflection_rows")


def certificate_inputs(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    fold = folded_root_system(aut)
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    return aut, fold, action, generators


# every ALL_TYPES identity and every TWISTED case with |W^sigma| <= 10^5
@pytest.mark.parametrize("family,rank,tag", STREAMED)
def test_certificate_agrees_with_enumeration(family, rank, tag):
    aut, fold, action, generators = certificate_inputs(family, rank, tag)
    order = weyl_order(fold.folded_type)
    positive = sum(all(c >= 0 for c in v) for v in fold.folded_roots)
    rows = coset_inputs(family, rank, tag)[-1]
    ds = invariant_degrees(action, aut.simple_perm, generators, rows, order, positive)
    assert ds == degrees(fold.folded_type)
    assert sum(d - 1 for d in ds) == positive

    rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
    stream = oracle.wsigma_elements(action, aut.simple_perm, generators, order, 10**7)
    buckets = oracle.fixed_space_charpoly_buckets(action, aut.simple_perm, stream)
    enumerated = sum(buckets.values())
    molien = oracle.super_molien_from_buckets(buckets, enumerated, TRUNC)
    assert rpt.stabilizer_order == rpt.restricted_order == enumerated == order
    assert rpt.bigraded == molien
    assert rpt.series == collapse_to_cohomological(molien)


def test_compute_never_walks_the_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an element walk of W^sigma on the pipeline path")

    for module in PIPELINE:
        source = Path(module.__file__).read_text()
        for name in MOVED_TO_ORACLE:
            assert not hasattr(module, name), (module.__name__, name)
            assert f"def {name}(" not in source, (module.__name__, name)
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)
            assert f"def {name}(" not in source and f"{name} =" not in source, \
                (module.__name__, name)
    assert "cap" not in inspect.signature(coset_indices).parameters
    monkeypatch.setattr(oracle, "_walk_products", refuse)
    monkeypatch.setattr(oracle, "wsigma_elements", refuse)
    for family, rank, tag in STREAMED:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
        assert rpt.series == expected_series(degrees(rpt.folded_type)), (family, rank, tag)


@pytest.mark.parametrize("family,rank,tag,orbits", [
    ("E", 6, "identity", 1), ("D", 6, "identity", 2), ("D", 8, "identity", 3),
    ("A", 7, "flip", 1), ("D", 4, "triality", 1)])
def test_jacobian_needs_few_orbits(family, rank, tag, orbits):
    aut, fold, action, generators = certificate_inputs(family, rank, tag)
    rows = coset_inputs(family, rank, tag)[-1]
    assert certify_jacobian(rows, degrees(fold.folded_type)) == orbits


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "flip"), ("D", 4, "triality"),
                                             ("A", 5, "identity"), ("D", 6, "identity")])
def test_zero_jacobian_point_names_the_case(family, rank, tag, monkeypatch):
    # at the origin every partial derivative of a degree >= 2 invariant vanishes
    monkeypatch.setattr(weyl, "_jacobian_point", lambda attempt, dim: [0] * dim)
    with pytest.raises(ValueError, match=rf"^{family}{rank} {tag}: no invariants "
                                         r"of degrees .* nonzero Jacobian"):
        compute(TwistSpec(CartanType(family, rank), tag))


def test_zero_jacobian_point_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(weyl, "_jacobian_point", lambda attempt, dim: [0] * dim)
    assert cli.main(["--type", "E", "--rank", "6", "--auto", "flip"]) == 1
    assert capsys.readouterr().err.startswith("error: E6 flip: no invariants")


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "identity"), ("A", 5, "flip"),
                                             ("D", 4, "triality"), ("B", 3, "identity")])
def test_dropped_generator_breaks_the_degree_product(family, rank, tag, monkeypatch):
    # the coset chain keeps every generator, the Coxeter element loses one:
    # it then fixes a line, and the degree 1 it brings cannot multiply to
    # the group order
    certified = report.invariant_degrees

    def drop_last(action, simple_perm, generators, *rest):
        return certified(action, simple_perm, generators[:-1], *rest)

    monkeypatch.setattr(report, "invariant_degrees", drop_last)
    with pytest.raises(ValueError, match=rf"^{family}{rank} {tag}: degrees \[1, .*\] "
                                         r"multiply to \d+, not the coset-chain order"):
        compute(TwistSpec(CartanType(family, rank), tag))


def test_orbit_search_is_bounded_by_the_group_order():
    # a stretch generates no finite group: its orbits would never close; the
    # coset chain and the Jacobian share one search and its bound
    stretch = ((1,),)  # row 0 of ((2,),) - 1
    with pytest.raises(ValueError, match="functional orbit passed 2 elements"):
        certify_jacobian(stretch, (2,))
    with pytest.raises(ValueError, match="functional orbit passed 2 elements"):
        coset_indices(stretch, 2)


def test_exponents_divide_out_repeated_cyclotomic_factors():
    # D4's Coxeter element (order 6) has eigenvalues of exponents 1, 3, 3, 5:
    # charpoly Phi_2^2 Phi_6 = (x + 1)^2 (x^2 - x + 1) = x^4 + x^3 + x + 1
    assert sorted(weyl._exponents((1, 1, 0, 1, 1), 6)) == [1, 3, 3, 5]
    with pytest.raises(ValueError, match="not a product of cyclotomic factors"):
        weyl._exponents((2, 0, 1), 4)  # x^2 + 2 has no roots of unity


@pytest.mark.parametrize("family,rank", [("E", 7), ("D", 8)])
def test_large_identity_cases_are_fast(family, rank):
    # 2903040 and 5160960 elements: walking them took 15 s and 40 s
    t = CartanType(family, rank)
    start = time.perf_counter()
    rpt = compute(TwistSpec(t, "identity", truncation=TRUNC))
    assert time.perf_counter() - start < 5
    assert rpt.stabilizer_order == weyl_order(t)
    assert rpt.series == expected_series(degrees(t))
