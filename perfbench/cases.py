"""Workload case lists, the seeded case generator and the benchmark's own
expectation for every case.

Nothing here imports twistloop: the folding table, the invariant degrees
and the series expansion are written out independently, so a wrong answer
from the program cannot also move the expectation it is checked against.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

# Each case: (family, rank, automorphism tag, expected outcome).
# "report" expects exit 0 and a report; "reject" expects exit status 2 and
# no report (the message is not compared).  "repeats" runs the cases that
# cost a tenth or less of the dearest several times per pass, so that
# their medians rest on as many samples as the time metrics need.
WORKLOADS = {
    "untwisted": {
        "cases": [("B", 6, "identity", "report"), ("C", 6, "identity", "report"),
                  ("D", 6, "identity", "report"), ("E", 6, "identity", "report"),
                  ("A", 7, "identity", "report")],
        "truncation": (50, 100),
        "workers": 2,
    },
    "twisted": {
        "cases": [("E", 6, "flip", "report"), ("D", 6, "flip", "report"),
                  ("A", 7, "flip", "report"), ("D", 5, "flip", "report"),
                  ("D", 4, "triality", "report"), ("D", 4, "triality2", "report")],
        "repeats": {("D", 5, "flip"): 3, ("D", 4, "triality"): 4, ("D", 4, "triality2"): 4},
        "truncation": (50, 100),
        "workers": 1,
    },
    "deep_series": {
        "cases": [("G", 2, "identity", "report"), ("B", 3, "identity", "report"),
                  ("B", 4, "identity", "report"), ("F", 4, "identity", "report"),
                  ("A", 3, "flip", "report"), ("A", 5, "flip", "report"),
                  ("D", 4, "triality", "report")],
        "truncation": (600, 1000),
        "workers": 1,
    },
    "over_cap": {
        # Every reject folds to a Weyl group still past the 10^7 cap, so it
        # stays a correct rejection once the cap applies to the folded group.
        # A14 flip is left out: it folds to C7 (645,120) and would become
        # computable.
        "cases": [("A", 12, "identity", "reject"), ("B", 10, "identity", "reject"),
                  ("C", 11, "identity", "reject"), ("D", 12, "flip", "reject"),
                  ("A", 18, "flip", "reject"), ("E", 8, "identity", "report")],
        "truncation": (50, 100),
        "workers": 1,
    },
}

GOLDEN = (5 ** 0.5 - 1) / 2

TWIST_ORDER = {"identity": 1, "flip": 2, "triality": 3, "triality2": 3}


# ---------------------------------------------------------------------------
# the benchmark's own Lie-theory tables
# ---------------------------------------------------------------------------

def invariant_degrees(family: str, rank: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of the Weyl group of a simple type."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * rank - 1, 2)) + [rank]))
    return {("G", 2): (2, 6), ("F", 4): (2, 6, 8, 12),
            ("E", 6): (2, 5, 6, 8, 9, 12), ("E", 7): (2, 6, 8, 10, 12, 14, 18),
            ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30)}[(family, rank)]


def folded_type(family: str, rank: int, tag: str) -> tuple[str, int]:
    """The classical folding table."""
    if tag == "identity":
        return family, rank
    if family == "A" and tag == "flip":
        return ("C", (rank + 1) // 2) if rank % 2 else ("B", rank // 2)
    if family == "D" and tag == "flip":
        return "B", rank - 1
    if (family, rank) == ("D", 4) and tag in ("triality", "triality2"):
        return "G", 2
    if (family, rank) == ("E", 6) and tag == "flip":
        return "F", 4
    raise ValueError(f"no folding of {family}{rank} by {tag}")


def simple_perm(family: str, rank: int, tag: str) -> tuple[int, ...]:
    """The diagram symmetry as 0-based images of the simple roots, in the
    program's node numbering (chain order; D forks at the last two nodes;
    E6 branches at node 2)."""
    if tag == "identity":
        return tuple(range(rank))
    if family == "A" and tag == "flip":
        return tuple(rank - 1 - i for i in range(rank))
    if family == "D" and tag == "flip":
        return tuple(range(rank - 2)) + (rank - 1, rank - 2)
    if (family, rank) == ("E", 6) and tag == "flip":
        return (5, 1, 4, 3, 2, 0)
    if (family, rank) == ("D", 4) and tag == "triality":
        return (2, 1, 3, 0)
    if (family, rank) == ("D", 4) and tag == "triality2":
        return (3, 1, 0, 2)
    raise ValueError(f"no diagram symmetry {tag} of {family}{rank}")


def perm_spelling(family: str, rank: int, tag: str) -> str:
    """The same automorphism spelled as the CLI's 1-based ``perm=`` list."""
    return "perm=" + ",".join(str(i + 1) for i in simple_perm(family, rank, tag))


def prime_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def expected_series(degrees: tuple[int, ...], truncation: int) -> list[int]:
    """Coefficients of prod_d (1+u^(2d-1))/(1-u^(2d)) through u^truncation:
    an unlimited coin-change count over the coins 2d for the denominator,
    summed over the subsets of the odd degrees 2d-1 for the numerator."""
    ways = [0] * (truncation + 1)
    ways[0] = 1
    for coin in (2 * d for d in degrees):
        for n in range(coin, truncation + 1):
            ways[n] += ways[n - coin]
    out = [0] * (truncation + 1)
    for k in range(len(degrees) + 1):
        for subset in combinations(degrees, k):
            base = sum(2 * d - 1 for d in subset)
            for n in range(base, truncation + 1):
                out[n] += ways[n - base]
    return out


def expected_report(case: dict) -> dict | None:
    """The content a correct report for this case holds, or None when the
    case must be rejected with exit status 2."""
    if case["expect"] == "reject":
        return None
    fam, rank, tag, trunc = case["family"], case["rank"], case["tag"], case["truncation"]
    ffam, frank = folded_type(fam, rank, tag)
    degs = invariant_degrees(ffam, frank)
    # The E8 table route answers from the degree table itself.  Otherwise
    # recognition needs room for the highest relation degree (the program's
    # documented precondition), and the closed form is null without it.
    closed = None
    if (fam, rank, tag) == ("E", 8, "identity") or trunc >= 4 * max(degs) + 1:
        closed = {"x_degrees": [2 * d - 1 for d in degs],
                  "y_degrees": [2 * d for d in degs]}
    excluded = prime_factors(math.prod(invariant_degrees(fam, rank)))
    excluded |= prime_factors(TWIST_ORDER[tag])
    return {
        "input": {"type": fam, "rank": rank, "automorphism": case["auto"],
                  "truncation": trunc},
        "folded_type": f"{ffam}{frank}",
        "restricted_order": math.prod(degs),
        "preserves_folded": True,
        "series": expected_series(degs, trunc),
        "closed_form": closed,
        "excluded_characteristics": sorted(excluded),
    }


def check_report(case: dict, exit_code: int, report: dict | None) -> str | None:
    """Compare a child's outcome with the expectation by content.  Returns
    None when it matches, else a one-line reason."""
    want = expected_report(case)
    if want is None:
        if exit_code != 2 or report is not None:
            return f"expected exit 2 and no report, got exit {exit_code}"
        return None
    if exit_code != 0 or report is None:
        return f"expected a report, got exit {exit_code}"
    got = {
        "input": report.get("input"),
        "folded_type": report.get("folded_type"),
        "restricted_order": report.get("wsigma", {}).get("restricted_order"),
        "preserves_folded": report.get("wsigma", {}).get("preserves_folded"),
        "series": report.get("series"),
        "closed_form": report.get("closed_form"),
        "excluded_characteristics": report.get("excluded_characteristics"),
    }
    bad = [k for k in want if got[k] != want[k]]
    return f"mismatch in {', '.join(bad)}" if bad else None


# ---------------------------------------------------------------------------
# the seeded generator
# ---------------------------------------------------------------------------

def pass_cases(workload: str) -> list[tuple]:
    """The cases of one pass: the case list with each case repeated."""
    spec = WORKLOADS[workload]
    repeats = spec.get("repeats", {})
    return [case for case in spec["cases"] for _ in range(repeats.get(case[:3], 1))]


def passes(workload: str, seed: int):
    """Endless sequence of passes over the workload's case list.  The seed
    picks the case order of every pass and, per case, the tag or ``perm=``
    spelling and the truncation inside the workload's band.

    Truncations are stratified: each case starts at a seeded point of the
    band and steps by the golden ratio from one run of it to the next, so
    that every run covers the band evenly and runs differ less by the luck
    of the draw."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    lo, hi = spec["truncation"]
    offsets = {case: rng.random() for case in spec["cases"]}
    runs_of = dict.fromkeys(spec["cases"], 0)
    one_pass = pass_cases(workload)
    number = 0
    while True:
        batch = []
        for case in rng.sample(one_pass, len(one_pass)):
            fam, rank, tag, expect = case
            auto = perm_spelling(fam, rank, tag) if rng.random() < 0.5 else tag
            point = (offsets[case] + runs_of[case] * GOLDEN) % 1.0
            runs_of[case] += 1
            batch.append({"id": number, "family": fam, "rank": rank, "tag": tag,
                          "auto": auto, "truncation": lo + int(point * (hi - lo + 1)),
                          "workers": spec["workers"], "expect": expect})
            number += 1
        yield batch
