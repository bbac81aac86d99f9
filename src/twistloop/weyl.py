"""The Weyl-group route of the pipeline: W^sigma as permutations of the
root set, its order from coset indices, and the degrees of its basic
invariants on the fixed subspace, certified from one Coxeter element.

:class:`RootPermutationAction` writes the simple reflections of a Weyl
group as permutations of the root set (one byte per root index) and
derives Steinberg's generators of the fixed subgroup W^sigma of a
diagram automorphism sigma, one per sigma-orbit of simple nodes.  On the
fixed subspace each generator is a simple reflection of the folded Weyl
group and changes one coordinate, so it is kept as one integer row, read
off the walk that built it (:meth:`RootPermutationAction.fixed_space_rows`);
the coset chain, the Jacobian and the preservation check read those
rows.  :func:`coset_indices`
counts the cosets along the chain of subgroups the generators span as
orbits of coordinate functionals, closed by one breadth-first search
(:func:`_orbit_search`) bounded by the group order; the indices multiply
to |W^sigma|.
:func:`invariant_degrees` reads the degrees off the characteristic
polynomial of the product of the generators, a Coxeter element, and
certifies them: their product is |W^sigma|, their exponents add up to the
positive folded roots, and power-sum invariants over a few orbits of
coordinate functionals have a nonzero Jacobian determinant modulo a
large prime.  The invariant ring is then polynomial in those degrees, so
the report's series is the product over them
(:func:`twistloop.exact.product_over_degrees`), and Solomon's product
(:func:`twistloop.exact.solomon_series`), the bigraded series, is
expanded only when it is asked for.  No element of W^sigma is
enumerated.

The element-by-element references (the dense matrices of elements on the
fixed subspace, coset representatives, the walk of W^sigma over them,
its characteristic-polynomial buckets and their super-Molien average)
live in :mod:`twistloop.oracle`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .exact import Scalar, charpoly_from_power_traces
from .rootsys import RootSystem

DEFAULT_ELEMENT_CAP = 10**7
MAX_ROOTS = 255  # one byte per root index


class GroupTooLargeError(RuntimeError):
    """Raised by compute() from the type alone, before anything is built,
    when |W^sigma| passes the element cap or the root count MAX_ROOTS, and
    by the oracle's closures past their cap."""


# ---------------------------------------------------------------------------
# W^sigma as root permutations
# ---------------------------------------------------------------------------

class RootPermutationAction:
    """The simple reflections of a Weyl group as permutations of the root set.

    Each element is a bytes object p with p[i] = image index of root i, and
    products compose right to left: (w g)[i] = w[g[i]].  The matrix of an
    element over the simple-root basis has column j equal to the image of
    simple root j, a root in its own coordinates.
    """

    def __init__(self, root_system: RootSystem):
        rs = root_system
        if len(rs.roots) > MAX_ROOTS:
            raise GroupTooLargeError("root set too large for byte-permutation encoding")
        self.root_system = rs
        self.simple_indices = tuple(rs.root_index[a] for a in rs.simple_roots)
        index = rs.root_index
        self.simple_reflections = tuple(
            bytes(index[images[i]] for images in rs.reflections)
            for i in range(rs.cartan_type.rank))

    def steinberg_generators(self, simple_perm: tuple[int, ...]) -> tuple[bytes, ...]:
        """Generators of W^sigma, the elements commuting with the diagram
        automorphism sigma that permutes the simple nodes by simple_perm.

        By Steinberg (Endomorphisms of linear algebraic groups, 1968),
        W^sigma is generated by the longest elements w_O of the parabolic
        subgroups W_O, one for each sigma-orbit O of simple nodes.  w_O is
        reached from the identity by right-multiplying with a simple
        reflection s_i, i in O, while w(alpha_i) is positive: each step
        lengthens w, and the walk stops once every simple root of O is
        sent negative.  For sigma = identity these are the simple
        reflections, in node order.
        """
        positive = self.root_system.positive_mask
        steps = len(self.root_system.roots) // 2  # no element is longer
        generators = []
        for orb in _perm_orbits(simple_perm):
            w = bytes(range(len(positive)))
            for _ in range(steps + 1):
                i = next((i for i in orb if positive[w[self.simple_indices[i]]]), None)
                if i is None:
                    break
                w = bytes(map(w.__getitem__, self.simple_reflections[i]))
            else:
                raise ValueError("parabolic longest element longer than the root count allows")
            generators.append(w)
        return tuple(generators)

    def fixed_space_rows(self, simple_perm: tuple[int, ...],
                         generators: Sequence[bytes]) -> tuple[tuple[int, ...], ...]:
        """Row k of g_k - 1 for each Steinberg generator g_k
        (:meth:`steinberg_generators`) on the fixed subspace, over the
        projected simple roots beta_O.  g_k commutes with sigma, so
        g_k(beta_O') is the orbit sums of w_k(alpha_j), j the first node of
        O': entry O' of row k is the sum over O_k of w_k(alpha_j), less 1
        when O' = O_k.  No other row of g_k - 1 is nonzero: w_k is a product
        of the s_i with i in O_k, and s_i changes coordinate i alone, so
        w_k keeps every orbit sum outside O_k.  So g_k sends a functional
        phi to phi + phi_k row_k and changes a vector v in entry k alone,
        by row_k . v.  :func:`twistloop.oracle.fixed_space_matrices` holds
        the dense matrices as a test reference."""
        coords = self.root_system.roots
        orbits = _perm_orbits(simple_perm)
        firsts = [self.simple_indices[orb[0]] for orb in orbits]
        rows = []
        for k, (orb, w) in enumerate(zip(orbits, generators)):
            row = [sum(coords[w[s]][i] for i in orb) for s in firsts]
            row[k] -= 1
            rows.append(tuple(row))
        return tuple(rows)


def coset_indices(rows: Sequence[tuple[int, ...]], order: int) -> tuple[int, ...]:
    """[W_k : W_{k-1}] for k = 1..m, where W_k is generated by the first k
    reflections, the Steinberg generators on the fixed subspace in
    sigma-orbit order, given by their rows
    (:meth:`RootPermutationAction.fixed_space_rows`).

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


def invariant_degrees(action: RootPermutationAction, simple_perm: tuple[int, ...],
                      generators: Sequence[bytes], rows: Sequence[tuple[int, ...]],
                      order: int, positive_roots: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of W^sigma on the fixed subspace,
    read off one Coxeter element and certified without walking the group;
    rows are the generators on the fixed subspace
    (:meth:`RootPermutationAction.fixed_space_rows`).

    The product c of the Steinberg generators is a Coxeter element of
    W^sigma acting on the fixed subspace.  By Springer (Regular elements
    of finite reflection groups, 1974) its eigenvalues are exp(2 pi i m /
    h), where h is its order and m runs over the exponents; the degrees
    are m + 1.  The eigenvalues come from the characteristic polynomial,
    recovered from the traces of c's powers, by exact division by the
    cyclotomic polynomials Phi_e, e | h.

    The degrees must multiply to order (the coset-chain order) and the
    exponents must add up to positive_roots, the positive folded roots
    (the reflections of W^sigma).
    Invariants of these degrees with a nonzero Jacobian determinant
    (:func:`certify_jacobian`) are algebraically independent.  Homogeneous
    algebraically independent invariants whose degrees multiply to the
    group order generate the invariant ring: the rational functions have
    degree at most that product over the field the invariants generate,
    with equality only when the invariants have no common zero but the
    origin (then the polynomials are finite over them), and degree |G|
    over the invariant field.  So the two fields agree, and the invariant
    ring, finite over the polynomial ring in the invariants and inside its
    fraction field, equals that integrally closed ring.  Any failed step
    raises ValueError.
    """
    dim = len(_perm_orbits(simple_perm))
    c = generators[0]
    for g in generators[1:]:
        c = bytes(map(c.__getitem__, g))
    h = _perm_order(c)
    charpoly = charpoly_from_power_traces(
        _fixed_space_traces(action, simple_perm, c, dim), dim)
    exponents = _exponents(charpoly, h)
    ds = tuple(sorted(m + 1 for m in exponents))
    if math.prod(ds) != order:
        raise ValueError(f"degrees {list(ds)} multiply to {math.prod(ds)}, "
                         f"not the coset-chain order {order}")
    if sum(exponents) != positive_roots:
        raise ValueError(f"degrees {list(ds)} account for {sum(exponents)} "
                         f"reflections, not the {positive_roots} positive folded roots")
    certify_jacobian(rows, ds)
    return ds


def _fixed_space_traces(action: RootPermutationAction, simple_perm: tuple[int, ...],
                        w: bytes, count: int) -> list[int]:
    """tr(w^k | fixed subspace) for k = 1..count.

    The trace does not depend on the basis.  Over the orbit sums
    b_O = sum_{i in O} alpha_i the diagonal entry of w^k at orbit O is the
    coordinate at the first node of O of w^k(b_O), and w^k(alpha_i) is
    reached by stepping along the orbit of alpha_i under w.
    """
    coords = action.root_system.roots
    traces = [0] * count
    for orb in _perm_orbits(simple_perm):
        for i in orb:
            r = action.simple_indices[i]
            for k in range(count):
                r = w[r]
                traces[k] += coords[r][orb[0]]
    return traces


def _exponents(charpoly: Sequence[Scalar], h: int) -> list[int]:
    """Exponents m, eigenvalues exp(2 pi i m / h), of an element of order
    h with the given characteristic polynomial.  Each factor Phi_e, e | h,
    stands for the primitive e-th roots of unity, the m = (h / e) k with
    0 <= k < e and k prime to e.  Raises ValueError unless these factors
    exhaust the polynomial."""
    rest = list(charpoly)
    exponents = []
    for e in range(1, h + 1):
        if h % e:
            continue
        phi = _cyclotomic(e)
        while len(rest) > 1:
            quotient, remainder = _divide_monic(rest, phi)
            if any(remainder):
                break
            rest = quotient
            exponents.extend(h // e * k for k in range(e) if math.gcd(k, e) == 1)
    if rest != [1]:
        raise ValueError("the Coxeter element's characteristic polynomial is not "
                         f"a product of cyclotomic factors of its order {h}")
    return exponents


def _cyclotomic(e: int) -> list[int]:
    """Phi_e, ascending: x^e - 1 divided by Phi_d for every proper divisor d."""
    p = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            p = _divide_monic(p, _cyclotomic(d))[0]
    return p


def _divide_monic(p: Sequence[Scalar], q: Sequence[int]) -> tuple[list, list]:
    """Quotient and remainder of p by the monic q, both ascending."""
    n = len(q) - 1
    rem = list(p)
    quot = [0] * max(len(p) - n, 0)
    for k in range(len(p) - n - 1, -1, -1):
        c = quot[k] = rem[k + n]
        if c:
            for i, qi in enumerate(q):
                rem[k + i] -= c * qi
    return quot, rem[:n]


def certify_jacobian(rows: Sequence[tuple[int, ...]], ds: Sequence[int]) -> int:
    """Find invariants of the degrees ds with a nonzero Jacobian
    determinant, for the group generated by the reflections with the given
    rows (:meth:`RootPermutationAction.fixed_space_rows`) on the fixed
    subspace; return how many functional orbits they needed, or raise
    ValueError.

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
