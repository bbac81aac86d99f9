"""One sha256 over the reports of a fixed case matrix, to check that a
change leaves every report byte-identical.

    python3 tools/report_digest.py <tree>

<tree> is a checkout of this repository; the package is imported from its
``src``.  Run it on two checkouts and compare the digests.  The matrix is
every family up to rank 11-13 and E6-E8, every diagram twist of each type
spelled both by tag and by node images (the reference automorphism's,
``twistloop.oracle.make_automorphism``), truncations 0, 7, 50 and 120,
each with and without the oracle, and truncation 1000 without it, so that
a long series is written too.  A case that compute() refuses, over a
cap for instance, contributes its exception's type and message.  Prints
the digest and the number of cases.
"""

import hashlib
import sys
from pathlib import Path

MAX_RANK = {"A": 13, "B": 12, "C": 11, "D": 13, "E": 8, "F": 4, "G": 2}
MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 2, "E": 6, "F": 4, "G": 2}
TRUNCATIONS = (0, 7, 50, 120)
# (truncation, run_oracle) pairs; the oracle's count stops at degree 12
RUNS = [(t, oracle) for t in TRUNCATIONS for oracle in (False, True)] + [(1000, False)]


def twists(family, rank):
    yield "identity"
    if (family == "A" and rank >= 2) or family == "D" or (family, rank) == ("E", 6):
        yield "flip"
    if (family, rank) == ("D", 4):
        yield from ("triality", "triality2")


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: report_digest.py <tree>")
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from twistloop import CartanType, TwistSpec, compute
    from twistloop.oracle import build_root_system, make_automorphism

    digest, cases = hashlib.sha256(), 0
    for family, hi in MAX_RANK.items():
        for rank in range(MIN_RANK[family], hi + 1):
            t = CartanType(family, rank)
            for tag in twists(family, rank):
                images = make_automorphism(build_root_system(t), tag).simple_perm
                for auto in (tag, images):
                    for truncation, oracle in RUNS:
                        spec = TwistSpec(t, auto, truncation=truncation, run_oracle=oracle)
                        try:
                            rpt = compute(spec)
                            out = rpt.to_json() + rpt.to_text()
                        except Exception as exc:  # a refusal is part of the answer
                            out = f"{type(exc).__name__}: {exc}\n"
                        digest.update(f"{spec!r}\n{out}".encode())
                        cases += 1
    print(f"{digest.hexdigest()}  {cases} cases")


if __name__ == "__main__":
    main(sys.argv[1:])
