"""Acceptance suite.

Each test covers one acceptance criterion, prints one PASS/FAIL line
(visible with ``pytest -s``), and enforces the stated runtime budget
where one applies.  Expected series values come from an independent
coin-change/subset expansion of the closed form, not from the package's
polynomial arithmetic.
"""

import math
import time
from contextlib import contextmanager

from twistloop.oracle import (ORACLE_ELEMENT_CAP, RootPermutationAction,
                              brute_force_invariant_dims, close_permutations,
                              collapse_to_cohomological, fixed_space_charpoly_buckets,
                              root_permutation, super_molien_from_buckets,
                              wsigma_by_definition)
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import CartanType, build_root_system, degrees
from twistloop.twist import make_automorphism

from conftest import cached_report

TRUNC = 50

SOLOMON_TYPES = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)] +
                 [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)] +
                 [("G", 2), ("F", 4), ("E", 6)])
D_FLIP_RANKS = range(2, 7)
A_FLIP_RANKS = range(2, 9)


def expected_series(degs, truncation=TRUNC):
    """Independent expansion of prod (1+u^(2d-1))/(1-u^(2d)), one entry at a
    time: subset-sum counts for the exterior part, then an unlimited
    coin-change count over the coins 2d for the polynomial part."""
    out = [1] + [0] * truncation
    for odd in (2 * d - 1 for d in degs):  # subsets: each odd degree used at most once
        for n in range(truncation, odd - 1, -1):
            out[n] += out[n - odd]
    for coin in (2 * d for d in degs):  # any number of each coin
        for n in range(coin, truncation + 1):
            out[n] += out[n - coin]
    return tuple(out)


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL ({time.time() - start:.1f}s) {description}")
        raise
    print(f"criterion {number}: PASS ({time.time() - start:.1f}s) {description}")


def test_criterion_1_untwisted_solomon_suite():
    with criterion(1, "untwisted series equal the Solomon product for all "
                      "desk-scale types"):
        start = time.time()
        for family, rank in SOLOMON_TYPES:
            t = CartanType(family, rank)
            rpt = compute(TwistSpec(t, "identity", truncation=TRUNC))
            assert rpt.series == expected_series(degrees(t)), f"series mismatch for {t}"
            assert rpt.closed_form is not None
            assert rpt.closed_form.y_degrees == tuple(2 * d for d in degrees(t))
        assert time.time() - start < 300


def test_criterion_2_so8_triality():
    with criterion(2, "both order-three twists of the rank-four even orthogonal "
                      "group give the rank-two exceptional series"):
        start = time.time()
        want = expected_series((2, 6))
        for tag in ("triality", "triality2"):
            rpt = compute(TwistSpec(CartanType("D", 4), tag, truncation=TRUNC))
            assert rpt.series == want
            assert rpt.closed_form.x_degrees == (3, 11)
            assert rpt.closed_form.y_degrees == (4, 12)
            assert rpt.positive_orbit_sizes == (1, 1, 1, 3, 3, 3)
        assert time.time() - start < 10


def test_criterion_3_e6_involution():
    with criterion(3, "the order-two twist of E6 gives the F4 series with "
                      "excluded characteristics {2, 3, 5}"):
        start = time.time()
        rpt = compute(TwistSpec(CartanType("E", 6), "flip", truncation=TRUNC))
        assert rpt.series == expected_series((2, 6, 8, 12))
        assert rpt.closed_form.x_degrees == (3, 11, 15, 23)
        assert rpt.closed_form.y_degrees == (4, 12, 16, 24)
        assert rpt.excluded_characteristics == (2, 3, 5)
        assert time.time() - start < 300


def test_criterion_4_even_orthogonal_flips():
    with criterion(4, "flips of the even orthogonal groups fold to the odd "
                      "orthogonal series with the right orbit counts"):
        for n in D_FLIP_RANKS:
            rpt = cached_report("D", n, "flip")
            ds = tuple(range(2, 2 * n - 1, 2))
            assert rpt.series == expected_series(ds), f"series mismatch for D{n}"
            assert rpt.closed_form.x_degrees == tuple(4 * i - 1 for i in range(1, n))
            assert rpt.closed_form.y_degrees == tuple(4 * i for i in range(1, n))
            assert rpt.orbit_criterion.orbit_count == 2 * (n - 1) ** 2


def test_criterion_5_special_unitary_flips():
    with criterion(5, "flips of the special unitary groups give the folded "
                      "series; the even cases agree with the extended even "
                      "orthogonal route"):
        for rank in A_FLIP_RANKS:
            n = rank + 1
            m = n // 2
            rpt = cached_report("A", rank, "flip")
            ds = tuple(2 * i for i in range(1, m + 1))
            assert rpt.series == expected_series(ds), f"series mismatch for A{rank}"
            assert rpt.closed_form.x_degrees == tuple(4 * i - 1 for i in range(1, m + 1))
            assert rpt.closed_form.y_degrees == tuple(4 * i for i in range(1, m + 1))
            if n % 2 == 0 and m <= 4:
                # independent route: the even orthogonal Weyl group W(D_m)
                # extended by its diagram flip, closed on the roots of D_m
                rs = build_root_system(CartanType("D", m))
                action = RootPermutationAction(rs)
                flip = bytes(root_permutation(make_automorphism(rs, "flip")))
                extended = close_permutations(action.simple_reflections + (flip,),
                                              ORACLE_ELEMENT_CAP)
                order = len(extended)
                assert order == 2 ** m * math.factorial(m)
                buckets = fixed_space_charpoly_buckets(action, tuple(range(m)), extended)
                series = super_molien_from_buckets(buckets, order, TRUNC)
                assert collapse_to_cohomological(series) == rpt.series


def test_criterion_6_criterion_honesty():
    with criterion(6, "orbit-count criterion holds exactly where expected and "
                      "the stabilizer image always preserves the folded roots"):
        for n in D_FLIP_RANKS:
            assert cached_report("D", n, "flip").orbit_criterion.holds
        assert cached_report("D", 4, "triality").orbit_criterion.holds
        assert cached_report("E", 6, "flip").orbit_criterion.holds
        for rank in A_FLIP_RANKS:
            rpt = cached_report("A", rank, "flip")
            if rank % 2 == 0:  # A_{2m}: projection is non-reduced
                assert not rpt.orbit_criterion.holds
            else:
                assert rpt.orbit_criterion.holds
        twisted = ([("D", n, "flip") for n in D_FLIP_RANKS] +
                   [("A", r, "flip") for r in A_FLIP_RANKS] +
                   [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
        for family, rank, tag in twisted:
            rpt = cached_report(family, rank, tag)
            assert rpt.preserves_folded
            # the restricted stabilizer image realizes the folded Weyl group
            from twistloop.rootsys import weyl_order
            assert rpt.restricted_order == weyl_order(rpt.folded_type)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "brute-force invariant dimensions match the series "
                      "through total degree 12"):
        start = time.time()
        cases = [("A", 2, "identity"), ("A", 3, "flip"), ("D", 4, "triality")]
        for family, rank, tag in cases:
            rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
            aut = make_automorphism(build_root_system(CartanType(family, rank)), tag)
            group = wsigma_by_definition(aut)
            dims = brute_force_invariant_dims(group, 12)
            for (a, b), c in dims.coefficients.items():
                assert rpt.bigraded[(a, b)] == c, (family, rank, tag, a, b)
            for (a, b), c in rpt.bigraded.coefficients.items():
                if a + 2 * b <= 12:
                    assert dims[(a, b)] == c, (family, rank, tag, a, b)
        assert time.time() - start < 120


def test_criterion_8_determinism():
    with criterion(8, "all reports are byte-identical across repeated runs and "
                      "worker counts"):
        cases = ([(f, r, "identity") for f, r in SOLOMON_TYPES] +
                 [("D", n, "flip") for n in D_FLIP_RANKS] +
                 [("A", r, "flip") for r in A_FLIP_RANKS] +
                 [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
        for family, rank, tag in cases:
            t = CartanType(family, rank)
            first = compute(TwistSpec(t, tag, truncation=TRUNC, workers=1))
            second = compute(TwistSpec(t, tag, truncation=TRUNC, workers=1))
            more_workers = compute(TwistSpec(t, tag, truncation=TRUNC, workers=8))
            blob = first.to_json().encode()
            assert blob == second.to_json().encode(), (family, rank, tag)
            assert blob == more_workers.to_json().encode(), (family, rank, tag)
            assert first.to_text() == second.to_text() == more_workers.to_text()
