"""Byte-identity of reports across commits.

``golden_reports.json`` maps each case to the sha256 digests of its
``to_json()`` and ``to_text()`` output.  The cases are the acceptance
matrix at truncation 50, five ``--check`` runs (A2 and A4 flips among them:
non-reduced foldings, whose fixed-subspace coordinates depend on the
basis scaling), the E8 table route, the A9, A10, A14 and D8 flips, two
``perm=`` spellings, four deep series at truncation 600, the shortest
series (A1 and G2 at truncation 0 and 1, where the JSON ``series`` list
has one or two entries) and F4 and E7 identity at the largest admitted
truncation, 10000.  A
refactor that is meant to leave every answer unchanged must leave every
digest unchanged; criterion 8 checks determinism only within one commit.

When a report is meant to change, regenerate the file and say why in the
change log:

    PYTHONPATH=src python3 tests/test_golden_reports.py > tests/golden_reports.json
"""

import hashlib
import json
from functools import cache
from pathlib import Path

from twistloop import CartanType
from twistloop.exact import solomon_series
from twistloop.report import TwistReport, TwistSpec, compute
from twistloop.rootsys import degrees

from conftest import cached_report
from test_acceptance import A_FLIP_RANKS, D_FLIP_RANKS, SOLOMON_TYPES

GOLDEN = Path(__file__).with_name("golden_reports.json")

MATRIX = ([(f, r, "identity") for f, r in SOLOMON_TYPES] +
          [("D", n, "flip") for n in D_FLIP_RANKS] +
          [("A", r, "flip") for r in A_FLIP_RANKS] +
          [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
CHECKED = [("A", 2, "identity"), ("A", 3, "flip"), ("D", 4, "triality"),
           ("A", 2, "flip"), ("A", 4, "flip")]
# (family, rank, automorphism, truncation); tuples are 0-based node images
EXTRA = [("E", 8, "identity", 50), ("A", 9, "flip", 50),
         ("A", 10, "flip", 50), ("A", 14, "flip", 50), ("D", 8, "flip", 50),
         ("A", 3, (2, 1, 0), 50), ("D", 4, (2, 1, 3, 0), 50),
         ("G", 2, "identity", 600), ("F", 4, "identity", 600),
         ("A", 5, "flip", 600), ("D", 4, "triality", 600),
         ("A", 1, "identity", 0), ("A", 1, "identity", 1),
         ("G", 2, "identity", 0), ("G", 2, "identity", 1),
         ("F", 4, "identity", 10_000), ("E", 7, "identity", 10_000)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def golden_reports() -> dict[str, TwistReport]:
    reports = {f"{f}{r} {tag} T50": cached_report(f, r, tag) for f, r, tag in MATRIX}
    for f, r, tag in CHECKED:
        reports[f"{f}{r} {tag} T50 --check"] = compute(
            TwistSpec(CartanType(f, r), tag, run_oracle=True))
    for f, r, auto, t in EXTRA:
        rpt = cached_report(f, r, auto, t)
        reports[f"{f}{r} {rpt.automorphism} T{t}"] = rpt
    return reports


def digests() -> dict[str, dict[str, str]]:
    return {name: {"json": _sha(rpt.to_json()), "text": _sha(rpt.to_text())}
            for name, rpt in golden_reports().items()}


def test_reports_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    differing = sorted(name for name in want.keys() | got.keys()
                       if want.get(name) != got.get(name))
    assert not differing, f"reports differ from the golden digests: {differing}"


def test_bigraded_series_read_off_the_report_fields():
    # the report stores no bigraded series: each read expands Solomon's
    # product over the folded type's degrees, the E8 table route's too
    for name, rpt in golden_reports().items():
        assert rpt.bigraded == solomon_series(degrees(rpt.folded_type), rpt.truncation), name


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
