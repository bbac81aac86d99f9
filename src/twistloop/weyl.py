"""The Weyl-group route of the pipeline: W^sigma's generators as rows on
the fixed subspace, its order from coset indices, and the certificate
that its invariant ring is polynomial in the folded type's degrees.

:func:`steinberg_rows` walks Steinberg's generators of the fixed
subgroup W^sigma of a diagram automorphism sigma, one longest parabolic
element per sigma-orbit of simple nodes, on their images of the simple
roots, one Cartan-matrix entry per column and step.  On the fixed
subspace each generator is a simple reflection of the folded Weyl group
and changes one coordinate, so it is kept as one integer row; the coset
chain, the Jacobian and the preservation check read those rows.
:func:`coset_indices` counts the cosets along the chain of subgroups the
generators span as orbits of coordinate functionals, closed by one
breadth-first search (:func:`_orbit_search`) bounded by the group order;
the indices multiply to |W^sigma|.  :func:`certify_jacobian` finds
power-sum invariants of the folded type's degrees, over a few orbits of
coordinate functionals, with a nonzero Jacobian determinant modulo a
large prime.  With the degrees multiplying to |W^sigma|, the invariant
ring is then polynomial in them, so the report's series is the product
over them (:func:`twistloop.exact.product_over_degrees`), and Solomon's
product (:func:`twistloop.exact.solomon_series`), the bigraded series,
is expanded only when it is asked for.  No element of W^sigma is
enumerated and no root is permuted.

The element-by-element references (the simple reflections as byte
permutations of the roots and the walk of Steinberg's generators over
them, the dense matrices of elements on the fixed subspace, coset
representatives, the walk of W^sigma over them, its
characteristic-polynomial buckets and their super-Molien average) live
in :mod:`twistloop.oracle`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .rootsys import CartanType, cartan_matrix, root_count

DEFAULT_ELEMENT_CAP = 10**7
MAX_ROOTS = 255  # the largest root set compute() builds


class GroupTooLargeError(RuntimeError):
    """Raised by compute() from the type alone, before anything is built,
    when |W^sigma| passes the element cap or the root count passes
    MAX_ROOTS, and by the oracle's closures and root permutations past
    their caps."""


# ---------------------------------------------------------------------------
# Steinberg's generators of W^sigma, as rows on the fixed subspace
# ---------------------------------------------------------------------------

def steinberg_rows(t: CartanType, simple_perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row k of g_k - 1 for each of Steinberg's generators g_k of W^sigma,
    the elements of the Weyl group of type t commuting with the diagram
    automorphism sigma that permutes the simple nodes by simple_perm, on
    the fixed subspace over the projected simple roots beta_O, k in
    sigma-orbit order.

    By Steinberg (Endomorphisms of linear algebraic groups, 1968),
    W^sigma is generated by the longest elements w_O of the parabolic
    subgroups W_O, one for each sigma-orbit O of simple nodes.  w_O is
    reached from the identity by right-multiplying with a simple
    reflection s_i, i in O, while w(alpha_i) is positive: each step
    lengthens w, and the walk stops once every simple root of O is sent
    negative.  For sigma = identity w_O is the simple reflection s_k.  The
    walk keeps w's columns w(alpha_j), roots over the simple base, for j
    in O and for the first node of each orbit, and moves them one Cartan
    entry each per step: (w s_i)(alpha_j) = w(alpha_j) - A_ji w(alpha_i).
    No element is longer than the positive roots are many, which bounds
    the walk.

    g_k commutes with sigma, so g_k(beta_O') is the orbit sums of
    w_k(alpha_j), j the first node of O': entry O' of row k is the sum over
    O_k of w_k(alpha_j), less 1 when O' = O_k.  No other row of g_k - 1 is
    nonzero: w_k is a product of the s_i with i in O_k, and s_i changes
    coordinate i alone, so w_k keeps every orbit sum outside O_k.  So g_k
    sends a functional phi to phi + phi_k row_k and changes a vector v in
    entry k alone, by row_k . v.  :func:`twistloop.oracle.fixed_space_matrices`
    holds the dense matrices, from the oracle's root permutations, as a
    test reference.
    """
    cartan = cartan_matrix(t)
    steps = root_count(t) // 2
    orbits = _perm_orbits(simple_perm)
    firsts = [orb[0] for orb in orbits]
    rows = []
    for k, orb in enumerate(orbits):
        cols = {j: [int(i == j) for i in range(t.rank)] for j in (*orb, *firsts)}
        for _ in range(steps + 1):
            # a root's coordinates share one sign
            i = next((i for i in orb if max(cols[i]) > 0), None)
            if i is None:
                break
            image = cols[i]
            for j, col in cols.items():
                a = cartan[j][i]
                if a:
                    cols[j] = [x - a * y for x, y in zip(col, image)]
        else:
            raise ValueError("parabolic longest element longer than the root count allows")
        row = [sum(cols[j][i] for i in orb) for j in firsts]
        row[k] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def coset_indices(rows: Sequence[tuple[int, ...]], order: int) -> tuple[int, ...]:
    """[W_k : W_{k-1}] for k = 1..m, where W_k is generated by the first k
    reflections, the Steinberg generators on the fixed subspace in
    sigma-orbit order, given by their rows (:func:`steinberg_rows`).

    There they are the simple reflections of the folded Weyl group.  The
    coordinate functional y_k, the fundamental coweight omega_k^vee, lies
    in the closure of the fundamental chamber, so its stabilizer is the
    parabolic subgroup without node k (Humphreys, Reflection Groups and
    Coxeter Groups, 1.10-1.12), which meets W_k in W_{k-1}.  So the orbit
    of y_k under W_k (:func:`_orbit_search`) has [W_k : W_{k-1}] elements.

    Raises ValueError when an orbit passes order, the expected
    |W^sigma|, which each index divides, or when the indices do not
    multiply to it: then the generators are not Steinberg's.
    """
    indices = [sum(1 for _ in _orbit_search(k, rows[:k + 1], order))
               for k in range(len(rows))]
    if math.prod(indices) != order:
        raise ValueError(f"coset counts {indices} do not multiply to the group "
                         f"order {order}")
    return tuple(indices)


def _orbit_search(k: int, rows: Sequence[tuple[int, ...]],
                  limit: int) -> Iterator[tuple[int, ...]]:
    """The orbit of the coordinate functional y_k under the reflections
    with the given rows, in breadth-first order, yielding each functional
    once its images are queued; ValueError when the orbit passes limit.

    Only lowering steps are taken, phi -> phi s_r with phi_r > 0.  y_k is
    dominant: y_k(beta_j) >= 0 for every j.  Any functional w y_k of its
    orbit, with w of minimal length, is reached by such steps: for a
    reduced w = s_r w', w'^-1 beta_r is a positive root, so (w' y_k)(beta_r)
    >= 0, and it is not 0, since s_r moves w' y_k (Humphreys, Reflection
    Groups and Coxeter Groups, 1.6-1.10).  A breadth-first search thus meets
    each functional at its minimal length; a step with phi_r < 0 leads one
    length back, to a functional the search has already met, and phi_r = 0
    fixes phi.  Skipping both keeps every orbit and the order of its
    elements.
    """
    orbit = [tuple(int(i == k) for i in range(len(rows[0])))]
    seen = set(orbit)
    for phi in orbit:  # orbit grows while it is read: a breadth-first search
        for r, row in enumerate(rows):
            c = phi[r]
            if c > 0:
                psi = tuple([a + c * b for a, b in zip(phi, row)])
                if psi not in seen:
                    if len(orbit) >= limit:
                        raise ValueError(f"a functional orbit passed {limit} elements")
                    seen.add(psi)
                    orbit.append(psi)
        yield phi


# ---------------------------------------------------------------------------
# the invariant degrees of W^sigma, certified
# ---------------------------------------------------------------------------

JACOBIAN_PRIME = 2**61 - 1
JACOBIAN_ATTEMPTS = 4


def certify_jacobian(rows: Sequence[tuple[int, ...]], ds: Sequence[int]) -> int:
    """Find invariants of the degrees ds with a nonzero Jacobian
    determinant, for the group generated by the reflections with the given
    rows (:func:`steinberg_rows`) on the fixed subspace; return how many
    functional orbits they needed, or raise ValueError.

    U_j is the orbit of the coordinate functional y_j, and

        f_i = sum_j c_ij sum_{phi in U_j} phi^(d_i)

    is invariant of degree d_i.  Its partial derivatives are
    d_i sum_j c_ij sum_phi phi(x)^(d_i - 1) phi_k; the unit d_i is left
    out.  The weights c_ij and the point x are seeded residues modulo the
    prime JACOBIAN_PRIME, the weights differing per row so that equal
    degrees give different invariants.  Orbits join smallest first until
    the determinant is nonzero mod the prime; then the integer Jacobian
    determinant is a nonzero polynomial.  Each of JACOBIAN_ATTEMPTS
    seeded points may use every orbit.  No orbit is larger than the group,
    whose order the degrees multiply to; a search past it raises.

    When ds multiply to the group order, this certifies the invariant
    ring.  Invariants with a nonzero Jacobian determinant are
    algebraically independent.  Homogeneous algebraically independent
    invariants whose degrees multiply to the group order generate the
    invariant ring: the rational functions have degree at most that
    product over the field the invariants generate, with equality only
    when the invariants have no common zero but the origin (then the
    polynomials are finite over them), and degree |G| over the invariant
    field.  So the two fields agree, and the invariant ring, finite over
    the polynomial ring in the invariants and inside its fraction field,
    equals that integrally closed ring.  Algebraically independent
    invariants, sorted by degree, have degrees at least the basic ones,
    entry by entry (were the k-th smaller, the first k would lie in the
    algebra of fewer than k basic invariants), so other degrees with the same
    product have no such invariants, and their Jacobian vanishes at every
    point.
    """
    dim = len(ds)
    for attempt in range(JACOBIAN_ATTEMPTS):
        point = _jacobian_point(attempt, dim)
        weights = _seeded(2 * attempt + 2, dim * dim)
        jacobian = [[0] * dim for _ in range(dim)]
        for j, orbit in enumerate(_coordinate_orbits(rows, math.prod(ds))):
            for phi in orbit:
                v = sum(a * x for a, x in zip(phi, point)) % JACOBIAN_PRIME
                for i, d in enumerate(ds):
                    c = weights[i * dim + j] * pow(v, d - 1, JACOBIAN_PRIME) % JACOBIAN_PRIME
                    row = jacobian[i]
                    for k, a in enumerate(phi):
                        row[k] += c * a
            if _nonsingular_mod(jacobian, JACOBIAN_PRIME):
                return j + 1
    raise ValueError(f"no invariants of degrees {list(ds)} with a nonzero Jacobian "
                     f"at {JACOBIAN_ATTEMPTS} seeded points")


def _coordinate_orbits(rows: Sequence[tuple[int, ...]],
                       limit: int) -> Iterator[list[tuple[int, ...]]]:
    """The orbits of the coordinate functionals y_0, y_1, ... under the
    reflections with the given rows, smallest first, ties in node order; an
    orbit growing past limit raises ValueError.

    One :func:`_orbit_search` per coordinate, all advanced in step, one
    functional each per round, so an orbit of n functionals is complete
    after n rounds: orbits come out in order of size, and a caller that
    stops early never finishes the larger ones.
    """
    running = {j: ([], _orbit_search(j, rows, limit)) for j in range(len(rows))}
    while running:
        for j, (orbit, search) in tuple(running.items()):
            phi = next(search, None)
            if phi is None:
                del running[j]
                yield orbit
            else:
                orbit.append(phi)


def _jacobian_point(attempt: int, dim: int) -> list[int]:
    return _seeded(2 * attempt + 1, dim)


def _seeded(seed: int, count: int) -> list[int]:
    """count residues mod JACOBIAN_PRIME from a linear congruential stream
    (Knuth's MMIX constants) started at seed."""
    out = []
    x = seed
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append(x % JACOBIAN_PRIME)
    return out


def _nonsingular_mod(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Whether the square integer matrix is invertible mod the prime p."""
    rows = [[a % p for a in row] for row in rows]
    n = len(rows)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return True


def _perm_orbits(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    seen = set()
    orbits = []
    for start in range(len(perm)):
        if start in seen:
            continue
        orb = [start]
        seen.add(start)
        j = perm[start]
        while j != start:
            orb.append(j)
            seen.add(j)
            j = perm[j]
        orbits.append(tuple(orb))
    return tuple(orbits)


def _perm_order(perm: Sequence[int]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*map(len, _perm_orbits(perm)))
