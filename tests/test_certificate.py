"""The certified invariant ring of W^sigma, checked against enumeration.

The pipeline takes the folded type's degree table, checks its product
against the coset-chain order, certifies it with a Jacobian determinant
modulo a prime, and expands the product over the degrees.  Here the
oracle walks every element of W^sigma over root permutations, buckets it
by its characteristic polynomial on the fixed subspace and averages the
super-Molien series; the two routes must give the same order, bigraded
series and single-graded series.  Wrong degrees with the right product
fail the Jacobian, a wrong product fails the order check, and a dropped
generator fails the coset chain.
"""

import inspect
import math
import time
from pathlib import Path

import pytest

from twistloop import cli, exact, oracle, report, rootsys, twist, weyl
from twistloop.oracle import collapse_to_cohomological
from twistloop.report import TwistSpec, compute
from twistloop.oracle import RootPermutationAction
from twistloop.rootsys import CartanType, build_root_system, degrees, weyl_order
from twistloop.twist import expected_folded_type, folded_root_system, make_automorphism
from twistloop.weyl import certify_jacobian, coset_indices, steinberg_rows

from test_acceptance import expected_series
from test_wsigma import STREAMED

TRUNC = 50
PIPELINE = (cli, exact, report, rootsys, twist, weyl)
MOVED_TO_ORACLE = ("_walk_products", "wsigma_elements", "fixed_space_charpoly_buckets",
                   "super_molien_from_buckets", "rational_function_series",
                   "dets_from_charpoly", "wsigma_transversals", "fixed_space_matrices",
                   "collapse_to_cohomological", "RootPermutationAction",
                   "charpoly_from_power_traces")
# the multi-row form of the generators, replaced by one row each; the row
# read off a dense matrix, then off a walk over root permutations,
# replaced by the row walked from the Cartan matrix; and the degrees read
# off a Coxeter element, replaced by the certified degree table
DELETED = ("MovedRows", "moved_rows", "_functional_image", "_reflection_rows", "_orbit",
           "reflection_rows", "fixed_space_rows", "invariant_degrees",
           "_fixed_space_traces", "_exponents", "_cyclotomic", "_divide_monic")


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
    rows = steinberg_rows(aut.base.cartan_type, aut.simple_perm)
    ds = degrees(fold.folded_type)
    assert math.prod(coset_indices(rows, order)) == math.prod(ds) == order
    assert certify_jacobian(rows, ds) >= 1
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
            assert hasattr(oracle, name), name
            assert not hasattr(module, name), (module.__name__, name)
            assert f"def {name}(" not in source and f"class {name}" not in source, \
                (module.__name__, name)
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


def test_compute_forms_no_root_permutation(monkeypatch):
    # the rows are walked from the Cartan matrix; only --check, through the
    # oracle, permutes the roots
    def refuse(*args, **kwargs):
        raise AssertionError("root permutations on the pipeline path")

    monkeypatch.setattr(RootPermutationAction, "__init__", refuse)
    for family, rank, tag in STREAMED:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
        assert rpt.stabilizer_order == weyl_order(rpt.folded_type), (family, rank, tag)
    with pytest.raises(AssertionError, match="root permutations"):
        compute(TwistSpec(CartanType("A", 2), run_oracle=True))


@pytest.mark.parametrize("family,rank,tag,orbits", [
    ("E", 6, "identity", 1), ("D", 6, "identity", 2), ("D", 8, "identity", 3),
    ("A", 7, "flip", 1), ("D", 4, "triality", 1)])
def test_jacobian_needs_few_orbits(family, rank, tag, orbits):
    t = CartanType(family, rank)
    aut = make_automorphism(build_root_system(t), tag)
    rows = steinberg_rows(t, aut.simple_perm)
    assert certify_jacobian(rows, degrees(expected_folded_type(t, aut.tag))) == orbits


@pytest.mark.parametrize("family,rank,tag,wrong", [
    ("F", 4, "identity", (3, 4, 8, 12)), ("E", 6, "identity", (3, 4, 5, 8, 9, 12)),
    ("E", 6, "flip", (3, 4, 8, 12)), ("D", 4, "identity", (2, 2, 6, 8)),
    ("D", 4, "triality", (3, 4)), ("B", 3, "identity", (3, 4, 4))])
def test_wrong_degrees_with_the_right_product_fail_the_jacobian(family, rank, tag, wrong):
    # the coset-chain order alone would pass these degrees
    t = CartanType(family, rank)
    aut = make_automorphism(build_root_system(t), tag)
    rows = steinberg_rows(t, aut.simple_perm)
    right = degrees(expected_folded_type(t, aut.tag))
    assert math.prod(wrong) == math.prod(coset_indices(rows, math.prod(right)))
    assert tuple(sorted(wrong)) != right
    certify_jacobian(rows, right)
    with pytest.raises(ValueError, match="no invariants of degrees .* nonzero Jacobian"):
        certify_jacobian(rows, wrong)


def test_a_wrong_degree_product_fails_the_order_check(monkeypatch):
    monkeypatch.setattr(report, "degrees", lambda t: (2, 6, 8, 13))
    with pytest.raises(ValueError, match=r"^F4 identity: degrees \[2, 6, 8, 13\] multiply "
                                         r"to 1248, not the coset-chain order 1152$"):
        compute(TwistSpec(CartanType("F", 4)))


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
def test_dropped_generator_breaks_the_coset_chain(family, rank, tag, monkeypatch):
    # a zero row is the identity in place of the last generator: the chain
    # then ends in an index of 1, and its order falls short of the folded
    # Weyl group's
    walked = report.steinberg_rows

    def zero_last(t, simple_perm):
        rows = walked(t, simple_perm)
        return rows[:-1] + ((0,) * len(rows),)

    monkeypatch.setattr(report, "steinberg_rows", zero_last)
    with pytest.raises(ValueError, match=rf"^{family}{rank} {tag}: coset counts \[.*, 1\] "
                                         r"do not multiply to the group order \d+$"):
        compute(TwistSpec(CartanType(family, rank), tag))


def test_orbit_search_is_bounded_by_the_group_order():
    # a stretch generates no finite group: its orbits would never close; the
    # coset chain and the Jacobian share one search and its bound
    stretch = ((1,),)  # row 0 of ((2,),) - 1
    with pytest.raises(ValueError, match="functional orbit passed 2 elements"):
        certify_jacobian(stretch, (2,))
    with pytest.raises(ValueError, match="functional orbit passed 2 elements"):
        coset_indices(stretch, 2)


@pytest.mark.parametrize("family,rank", [("E", 7), ("D", 8)])
def test_large_identity_cases_are_fast(family, rank):
    # 2903040 and 5160960 elements: walking them took 15 s and 40 s
    t = CartanType(family, rank)
    start = time.perf_counter()
    rpt = compute(TwistSpec(t, "identity", truncation=TRUNC))
    assert time.perf_counter() - start < 5
    assert rpt.stabilizer_order == weyl_order(t)
    assert rpt.series == expected_series(degrees(t))
