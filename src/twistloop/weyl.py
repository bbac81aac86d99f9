"""The Weyl-group route of the pipeline: W^sigma's order from coset
indices, and the certificate that its invariant ring is polynomial in the
folded type's degrees.

Both read W^sigma's generators as rows on the fixed subspace, one per
node of the folded type's Dynkin diagram, read off its Cartan matrix
(:func:`twistloop.twist.twist_rows`).  The coset chain
(:func:`coset_indices`)'s indices, sizes of orbits of coordinate
functionals, multiply to |W^sigma|; invariants of the folded type's
degrees on its last orbit with a Jacobian nonzero mod 2^61 - 1
(:func:`certify_jacobian`) make the report's series the product over
those degrees (:func:`twistloop.exact.product_over_degrees`).  No
element of W^sigma is enumerated and no root is permuted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate

DEFAULT_ELEMENT_CAP = 10**7  # the largest |W^sigma| compute() accepts, read per call


class GroupTooLargeError(RuntimeError):
    """Raised by compute() from the type alone, before anything is built,
    when |W^sigma| passes the element cap, and by the oracle's closures
    and root permutations past their caps."""


def coset_indices(rows: Sequence[tuple[int, ...]],
                  order: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """[W_k : W_{k-1}] for k = 1..m, where W_k is generated by the first k
    Steinberg generators on the fixed subspace, in the order given, by
    their rows (:func:`twistloop.twist.twist_rows`), and the chain's last
    orbit, that of y_m under all of them, which :func:`certify_jacobian`
    starts from.

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
    dim, steps = len(rows), _sparse_rows(rows)
    orbits = [_orbit_search(k, dim, steps[:k + 1], order) for k in range(dim)]
    indices = tuple(map(len, orbits))
    if math.prod(indices) != order:
        raise ValueError(f"coset counts {list(indices)} do not multiply to the group "
                         f"order {order}")
    return indices, orbits[-1]


def _sparse_rows(rows: Sequence[tuple[int, ...]]) -> list[list[tuple[int, int]]]:
    """Each row's nonzero entries (i, b), at most four for Steinberg's rows."""
    return [[(i, b) for i, b in enumerate(row) if b] for row in rows]


def _orbit_search(k: int, dim: int, steps: Sequence[Sequence[tuple[int, int]]],
                  limit: int) -> list[tuple[int, ...]]:
    """The orbit of y_k in dimension dim under the reflections with the sparse
    rows steps, in breadth-first order; ValueError when it passes limit.

    Only lowering steps are taken, phi -> phi s_r with phi_r > 0.  y_k is
    dominant: y_k(beta_j) >= 0 for every j.  Any w y_k, w of minimal
    length, is reached by such steps: for a reduced w = s_r w', w'^-1
    beta_r is a positive root, so (w' y_k)(beta_r) >= 0, and it is not 0,
    since s_r moves w' y_k (Humphreys, Reflection Groups and Coxeter
    Groups, 1.6-1.10).  So a breadth-first search meets each functional at
    its minimal length; a step with phi_r < 0 leads back to one already
    met, and phi_r = 0 fixes phi: skipping both keeps every orbit and its
    order."""
    orbit = [tuple(int(i == k) for i in range(dim))]
    seen = set(orbit)
    for phi in orbit:  # orbit grows while it is read: a breadth-first search
        for r, entries in enumerate(steps):
            c = phi[r]
            if c > 0:
                psi = list(phi)
                for i, b in entries:
                    psi[i] += c * b
                if (psi := tuple(psi)) not in seen:
                    if len(orbit) >= limit:
                        raise ValueError(f"a functional orbit passed {limit} elements")
                    seen.add(psi)
                    orbit.append(psi)
    return orbit


# ---------------------------------------------------------------------------
# the invariant degrees of W^sigma, certified
# ---------------------------------------------------------------------------

JACOBIAN_PRIME = 2**61 - 1
JACOBIAN_ATTEMPTS = 4
SLOT = 128  # bits per entry of a row packed by _nonsingular_mod


def certify_jacobian(rows: Sequence[tuple[int, ...]], ds: Sequence[int],
                     orbit: Sequence[tuple[int, ...]]) -> int:
    """Find invariants of the degrees ds with a nonzero Jacobian
    determinant, for the group generated by the reflections with the given
    rows (:func:`twistloop.twist.twist_rows`) on the fixed subspace;
    return how many functional orbits they needed, or raise ValueError.

    U_1 is orbit, the coset chain's last (:func:`coset_indices`), enough
    in the folded type's chain order for every admissible case but D2; the
    orbits of y_1, y_2, ... follow, each searched, within the degrees'
    product, only once those before fail.  f_i = sum_j c_ij sum_{phi in
    U_j} phi^(d_i), plus e_i P_j when P_j, the product over U_j's half H_j,
    is invariant of degree d_i (:func:`_half_product`).  As -phi gives
    (-1)^d phi(x)^(d-1) phi mod p, a sum over U_j = -U_j is twice that
    over H_j for even d and 0 for odd d.  The gradient reads phi(x)^(d-1)
    off one running product per functional, over its nonzero entries, and
    P_j's from prefix and suffix products, with no inverse.  The weights
    and the point x are seeded residues modulo the prime JACOBIAN_PRIME,
    differing per row so that equal degrees give different invariants.
    Orbits join until the determinant is nonzero mod the prime, so the
    integer one is a nonzero polynomial.  Each of JACOBIAN_ATTEMPTS seeded
    points may use every orbit.

    When ds multiply to the group order, this certifies the invariant
    ring.  Invariants with a nonzero Jacobian determinant are
    algebraically independent, and homogeneous algebraically independent
    invariants whose degrees multiply to |G| generate the invariant ring:
    the rational functions have degree at most that product over the
    field they generate, with equality only when they have no common zero
    but the origin (then the polynomials are finite over them), and degree
    |G| over the invariant field.  So the two fields agree, and the
    invariant ring, finite over the polynomial ring in the invariants and
    inside its fraction field, equals that integrally closed ring.
    Algebraically independent invariants, sorted by degree, have degrees at
    least the basic ones, entry by entry (were the k-th smaller, the first
    k would lie in the algebra of fewer than k basic invariants), so other
    degrees with the same product have no such invariants, and their
    Jacobian vanishes at every point.
    """
    p, dim, top, steps = JACOBIAN_PRIME, len(ds), max(ds), _sparse_rows(rows)
    searches = (_orbit_search(k, dim, steps, math.prod(ds)) for k in range(dim - 1))
    orbits = [orbit]
    for attempt in range(JACOBIAN_ATTEMPTS):
        point = _jacobian_point(attempt, dim)
        weights = _seeded(2 * attempt + 2, dim * dim + dim)
        jacobian = [[0] * dim for _ in range(dim)]
        for j in range(dim):
            if j == len(orbits):
                orbits.append(next(searches))
            half, product = _half_product(orbits[j], rows, ds)
            # only v^(d-1) is read, for even d alone on H: by v^2 when every d read is even
            grads = {d: [0] * dim for d in ds if half is None or d % 2 == 0}
            step = 2 if all(d % 2 == 0 for d in grads) else 1
            reads = [((d - 1) // step, grad) for d, grad in grads.items()]
            for phi in orbits[j] if half is None else half:
                entries = [(k, a) for k, a in enumerate(phi) if a]
                v = sum(a * point[k] for k, a in entries) % p
                powers, stride = ([v], v * v % p) if step == 2 else ([1], v)
                for _ in range(1, top // step):
                    powers.append(powers[-1] * stride % p)
                for at, grad in reads:
                    c = powers[at]
                    for k, a in entries:
                        grad[k] += c * a
            if product:
                values = [sum(a * x for a, x in zip(phi, point)) % p for phi in product]
                pre = list(accumulate(values, lambda a, b: a * b % p, initial=1))
                suf = list(accumulate(values[::-1], lambda a, b: a * b % p, initial=1))
                others = [a * b % p for a, b in zip(pre, suf[-2::-1])]
                extra = [sum(c * phi[k] for c, phi in zip(others, product)) % p
                         for k in range(dim)]
            for i, d in enumerate(ds):
                if d in grads:
                    c = weights[i * dim + j] << (half is not None)
                    jacobian[i] = [(a + c * g) % p for a, g in zip(jacobian[i], grads[d])]
                if len(product) == d:
                    e = weights[dim * dim + i]
                    jacobian[i] = [(a + e * h) % p for a, h in zip(jacobian[i], extra)]
            if _nonsingular_mod(jacobian, p):
                return j + 1
    raise ValueError(f"no invariants of degrees {list(ds)} with a nonzero Jacobian "
                     f"at {JACOBIAN_ATTEMPTS} seeded points")


def _half_product(orbit: Sequence[tuple[int, ...]], rows: Sequence[tuple[int, ...]],
                  ds: Sequence[int]) -> tuple[list[tuple[int, ...]] | None, list]:
    """H, the members of the orbit U above 0 (first nonzero entry positive),
    or None unless U = -U, that is unless -U meets U; and H again when |H|
    is in ds and each row sends an even number of its members out of H,
    else [].  Then the product P over H is invariant: g permutes U and
    commutes with negation, so g P = (-1)^n(g) P, n(g) how many members of
    H g sends out, a character trivial when it is on the generators.  For
    D_n and U = {+-e_i}, P is the Pfaffian x_1...x_n; for B_n and C_n the
    last reflection sends e_n alone out: P is only a semi-invariant."""
    if tuple([-a for a in orbit[0]]) not in orbit:
        return None, []
    zero = (0,) * len(orbit[0])
    half = [phi for phi in orbit if phi > zero]
    members = set(half)
    return half, half if len(half) in ds and not any(
        sum(tuple([a + phi[r] * b for a, b in zip(phi, row)]) not in members
            for phi in half if phi[r]) % 2 for r, row in enumerate(rows)) else []


def _jacobian_point(attempt: int, dim: int) -> list[int]:
    return _seeded(2 * attempt + 1, dim)


def _seeded(seed: int, count: int) -> list[int]:
    """count residues mod JACOBIAN_PRIME from a linear congruential stream
    (Knuth's MMIX constants) started at seed."""
    out, x = [], seed
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append(x % JACOBIAN_PRIME)
    return out


def _nonsingular_mod(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Whether the square integer matrix is invertible mod p, a prime
    2^k - 1 with 3 <= k <= 61; ValueError for any other p.

    A row is one int, entry j in slot j, the current column lowest, and
    only that column is read out (mask, ``% p``).  A pivot row (q, *head)
    has q nonzero; each other row (f, *rest) becomes q rest + f (2p -
    head), q rest - f head mod p scaled by the unit q, with no inverse.
    Stored slots are at most 2p, so 2p - head borrows from no neighbour,
    and new ones below (p - 1) 4p < 2^(2k+2) <= 2^124: no carry crosses a
    slot.  As 2^k = 1 mod p, the fold (x & P) + ((x >> k) & H), P and H
    masking each slot's low k bits and its next SLOT - k, keeps residues;
    one fold brings a slot below 5 2^k, a second to at most p + 4 <= 2p.
    """
    k = p.bit_length()
    if p != (1 << k) - 1 or not 3 <= k <= 61:
        raise ValueError(f"p must be 2^k - 1 with 3 <= k <= 61, got {p}")
    ones = sum(1 << SLOT * j for j in range(len(rows)))
    low, high, twice = p * ones, ((1 << SLOT - k) - 1) * ones, 2 * p * ones
    cell = (1 << SLOT) - 1
    packed = [sum((a % p) << SLOT * j for j, a in enumerate(row)) for row in rows]
    while packed:
        leads = [(x & cell) % p for x in packed]
        i = next((i for i, q in enumerate(leads) if q), None)
        if i is None:
            return False
        q, twice = leads.pop(i), twice >> SLOT
        neg = twice - (packed.pop(i) >> SLOT)
        out = []
        for x, f in zip(packed, leads):
            x >>= SLOT
            if f:
                x = q * x + f * neg
                x = (x & low) + ((x >> k) & high)
                x = (x & low) + ((x >> k) & high)
            out.append(x)
        packed = out
    return True

