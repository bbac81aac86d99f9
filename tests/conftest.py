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


def chain_order(rows, nodes, folded):
    """Walked rows in the coset chain's order, the order twist_rows reads
    them in: rows[nodes[k]] is the row of the folded type's node k, and the
    chain takes nodes n..1 for B, C and D, 1..n otherwise."""
    nodes = nodes[::-1] if folded.family in "BCD" else nodes
    return tuple(tuple(rows[a][b] for b in nodes) for a in nodes)


@pytest.fixture
def report():
    return cached_report
