"""Command-line interface.

Exit codes: 0 success, 1 input error, 2 resource-cap error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .exact import DEFAULT_TRUNCATION
from .report import MAX_TRUNCATION, MAX_WORKERS, TwistSpec, compute
from .rootsys import CartanType
from .twist import AUTOMORPHISM_TAGS, check_simple_perm
from .weyl import GroupTooLargeError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="twistloop",
                description="Exact cohomology series for classifying spaces "
                            "of twisted loop groups")
    p.add_argument("--type", required=True, choices=list("ABCDEFG"),
                   dest="family", help="simple type family")
    p.add_argument("--rank", required=True, type=int, help="rank of the type")
    p.add_argument("--auto", default="identity",
                   help=" | ".join(AUTOMORPHISM_TAGS) +
                        " | perm=<comma-separated 1-based images>")
    p.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATION,
                   help="series truncation in cohomological degree "
                        f"(at most {MAX_TRUNCATION})")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--check", action="store_true",
                   help="also recount the invariants by brute force over W^sigma "
                        "from its definition (fixed subspace of dimension <= 3)")
    p.add_argument("--workers", type=int, default=1,
                   help=f"accepted worker count (1 to {MAX_WORKERS}); it does "
                        "not change the output, which is computed in one thread")
    p.add_argument("--out", default=None, help="write the report to this file")
    return p


def _parse_automorphism(text: str, rank: int) -> str | tuple[int, ...]:
    if text.startswith("perm="):
        try:
            images = tuple(int(x) for x in text[len("perm="):].split(","))
        except ValueError as exc:
            raise _UsageError(f"bad permutation list: {text!r}") from exc
        check_simple_perm(images, rank, base=1)
        return tuple(x - 1 for x in images)
    if text not in AUTOMORPHISM_TAGS:
        raise _UsageError(f"unknown automorphism {text!r}")
    return text


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        auto = _parse_automorphism(args.auto, args.rank)
        spec = TwistSpec(cartan_type=CartanType(args.family, args.rank),
                         automorphism=auto,
                         truncation=args.truncate,
                         run_oracle=args.check,
                         workers=args.workers)
        rpt = compute(spec)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GroupTooLargeError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = rpt.to_json() + "\n" if args.format == "json" else rpt.to_text()
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
