"""Seeded property tests over the documented twists.

Random choices come from stdlib ``random`` with a fixed seed, so every run
checks the same cases.  Expected series come from the acceptance suite's
independent coin-change expansion; the diagram permutations are written
out here from the documented Dynkin symmetries, not taken from the
package.
"""

import json
import random

import pytest

from twistloop import CartanType, TwistSpec, compute, weyl_order

from conftest import cached_report
from test_acceptance import SOLOMON_TYPES, expected_series

SEED = 20261018

# every twist of the acceptance matrix, with its 0-based node images
TWISTS = ([("A", r, "flip", tuple(reversed(range(r)))) for r in range(2, 9)] +
          [("D", n, "flip", tuple(range(n - 2)) + (n - 1, n - 2)) for n in range(2, 7)] +
          [("E", 6, "flip", (5, 1, 4, 3, 2, 0)),
           ("D", 4, "triality", (2, 1, 3, 0)), ("D", 4, "triality2", (3, 1, 0, 2))])
SMALL_TYPES = [(f, r) for f, r in SOLOMON_TYPES if weyl_order(CartanType(f, r)) <= 10**4]
IDENTITIES = [(f, r, "identity", tuple(range(r)))
              for f, r in sorted(random.Random(SEED).sample(SMALL_TYPES, 4))]

# (type, twist) -> invariant degrees of the folded type
FOLDED_DEGREES = {("G", 2, "identity"): (2, 6), ("B", 3, "identity"): (2, 4, 6),
                  ("A", 3, "flip"): (2, 4), ("A", 5, "flip"): (2, 4, 6),
                  ("D", 4, "triality"): (2, 6)}


def assert_well_formed(series):
    assert series[0] == 1
    assert all(c >= 0 for c in series)


@pytest.mark.parametrize("family,rank,tag,perm", TWISTS + IDENTITIES,
                         ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_permutation_spelling_matches_tag(family, rank, tag, perm):
    by_tag = cached_report(family, rank, tag)
    by_perm = compute(TwistSpec(CartanType(family, rank), perm))
    echo = "perm=" + ",".join(str(i + 1) for i in perm)
    assert by_perm.automorphism == echo
    tag_dict, perm_dict = json.loads(by_tag.to_json()), json.loads(by_perm.to_json())
    perm_dict["input"]["automorphism"] = tag
    assert perm_dict == tag_dict
    assert by_perm.to_text().replace(f"automorphism {echo},", f"automorphism {tag},") == \
        by_tag.to_text()
    assert_well_formed(by_perm.series)


@pytest.mark.parametrize("family,rank,tag", sorted(FOLDED_DEGREES))
def test_random_truncations(family, rank, tag):
    degs = FOLDED_DEGREES[(family, rank, tag)]
    threshold = 4 * max(degs) + 1  # recognition needs the top generator twice
    rng = random.Random(f"{SEED} {family}{rank} {tag}")
    truncations = [rng.randint(0, 150) for _ in range(3)] + [rng.randint(0, threshold - 1)]
    for t in truncations:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=t))
        assert rpt.series == expected_series(degs, t), t
        assert_well_formed(rpt.series)
        assert (rpt.closed_form is None) == (t < threshold), t
