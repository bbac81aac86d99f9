from functools import lru_cache

import pytest

from twistloop import CartanType
from twistloop.report import TwistSpec, TwistReport, compute


@lru_cache(maxsize=None)
def cached_report(family: str, rank: int, automorphism: str = "identity",
                  truncation: int = 50) -> TwistReport:
    """Shared pipeline runs; each (type, automorphism) is computed once per
    test session."""
    spec = TwistSpec(CartanType(family, rank), automorphism, truncation=truncation)
    return compute(spec)


def mirrored(positive):
    """Sorted positive vectors with their negatives, reversed, in front: the
    whole sorted set.  Entries may be (vector, multiplicity) pairs, as
    project_roots gives them; a pair's multiplicity is kept."""
    def negate(v):
        return ((negate(v[0]), v[1]) if isinstance(v[0], tuple)
                else tuple(-c for c in v))
    return tuple(map(negate, reversed(positive))) + tuple(positive)


@pytest.fixture
def report():
    return cached_report
