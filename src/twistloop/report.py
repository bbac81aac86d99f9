"""End-to-end pipeline: from a twist specification to a serialized report.

:func:`compute` builds the root system, the diagram automorphism sigma and
its folding, then the group the answer needs: W^sigma, the elements of
the Weyl group that commute with sigma, streamed from Steinberg's
generators (one longest parabolic element per sigma-orbit of simple
nodes; sigma = identity gives all of W) as products of coset
representatives, each element bucketed by its characteristic polynomial
on the fixed subspace as it is produced and then dropped.  W^sigma acts
faithfully on the fixed subspace and realizes the folded Weyl group
there; the super-Molien series of that action, averaged over the
buckets, gives the single-graded series the report emits.  That series
is the dimension series of the cohomology of the classifying space of
the corresponding twisted loop group, valid away from the reported
excluded characteristics.

The series is then compared with the Solomon product over the folded
type's invariant degrees.  A match is the report's closed form; a miss
would be a bug, so it yields no closed form and a note, never a search
for other degrees.

The one deliberate shortcut: untwisted E8 is answered from the
invariant-degree table, because its Weyl group (order 696729600) exceeds
the enumeration cap.  Every other case is computed by enumerating
W^sigma.  With ``run_oracle`` the brute-force count of
:mod:`twistloop.oracle` re-derives the low-degree invariant dimensions;
that module is imported only then.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .exact import (BigradedSeries, DEFAULT_TRUNCATION,
                    collapse_to_cohomological, poly_mul_trunc,
                    product_over_degrees)
from .rootsys import CartanType, build_root_system, degrees, root_count, weyl_order
from .twist import (DiagramAutomorphism, OrbitCriterion, _perm_order,
                    expected_folded_type, fixed_group_info, folded_root_system,
                    make_automorphism, orbit_count_criterion,
                    positive_orbit_sizes, resolve_twist, wsigma_preserves_folded)
from .weyl import (DEFAULT_ELEMENT_CAP, MAX_ROOTS, GroupTooLargeError,
                   RootPermutationAction, fixed_space_charpoly_buckets,
                   super_molien_from_buckets, wsigma_elements)

MAX_TRUNCATION = 10_000  # the Molien output grows as the square of it
MAX_WORKERS = 64


@dataclass(frozen=True)
class TwistSpec:
    cartan_type: CartanType
    automorphism: str | tuple[int, ...] = "identity"
    truncation: int = DEFAULT_TRUNCATION
    run_oracle: bool = False
    workers: int = 1
    element_cap: int = DEFAULT_ELEMENT_CAP

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        if self.truncation > MAX_TRUNCATION:
            raise ValueError(f"truncation must be at most {MAX_TRUNCATION}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")


@dataclass(frozen=True)
class ClosedForm:
    x_degrees: tuple[int, ...]
    y_degrees: tuple[int, ...]


@dataclass(frozen=True)
class TwistReport:
    cartan_type: CartanType
    automorphism: str
    truncation: int
    folded_type: CartanType
    orbit_criterion: OrbitCriterion
    positive_orbit_sizes: tuple[int, ...]
    stabilizer_order: int
    restricted_order: int
    preserves_folded: bool
    series: tuple[int, ...]
    closed_form: ClosedForm | None
    excluded_characteristics: tuple[int, ...]
    notes: tuple[str, ...]
    bigraded: BigradedSeries | None = field(compare=False, repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "input": {
                "type": self.cartan_type.family,
                "rank": self.cartan_type.rank,
                "automorphism": self.automorphism,
                "truncation": self.truncation,
            },
            "folded_type": str(self.folded_type),
            "orbit_criterion": {
                "orbits": self.orbit_criterion.orbit_count,
                "folded_roots": self.orbit_criterion.folded_root_count,
                "holds": self.orbit_criterion.holds,
            },
            "wsigma": {
                "order": self.stabilizer_order,
                "restricted_order": self.restricted_order,
                "preserves_folded": self.preserves_folded,
            },
            "series": list(self.series),
            "closed_form": (None if self.closed_form is None else {
                "x_degrees": list(self.closed_form.x_degrees),
                "y_degrees": list(self.closed_form.y_degrees),
            }),
            "excluded_characteristics": list(self.excluded_characteristics),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            "twisted loop group cohomology report",
            f"input: type {self.cartan_type}, automorphism {self.automorphism}, "
            f"truncation {self.truncation}",
            f"folded type: {self.folded_type}",
            f"orbit criterion: {self.orbit_criterion.orbit_count} orbits vs "
            f"{self.orbit_criterion.folded_root_count} folded roots -> "
            f"{'holds' if self.orbit_criterion.holds else 'inconclusive'}",
            f"positive-root orbit sizes: {list(self.positive_orbit_sizes)}",
            f"stabilizer order: {self.stabilizer_order}; restricted image order: "
            f"{self.restricted_order}; preserves folded roots: "
            f"{str(self.preserves_folded).lower()}",
            f"excluded characteristics: {list(self.excluded_characteristics)}",
            f"series coefficients (degree 0..{self.truncation}): {list(self.series)}",
        ]
        if self.closed_form is None:
            lines.append("closed form: not recognized")
        else:
            lines.append(f"closed form: exterior degrees "
                         f"{list(self.closed_form.x_degrees)}, polynomial degrees "
                         f"{list(self.closed_form.y_degrees)}")
        lines.append("notes:")
        lines.extend(f"  - {n}" for n in self.notes)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed-form recognition
# ---------------------------------------------------------------------------

def recognize_closed_form(series: Sequence[int],
                          candidate_degrees: Sequence[int]) -> ClosedForm | None:
    """Test whether the series equals prod (1+u^(2d-1))/(1-u^(2d)) over the
    candidate degrees, by exact coefficient comparison up to truncation.

    Raises ValueError when the truncation is too short to make the test
    meaningful (never reports a silent false negative).
    """
    truncation = len(series) - 1
    ds = sorted(candidate_degrees)
    if not ds:
        raise ValueError("need at least one candidate degree")
    if truncation < 2 * max(2 * d for d in ds) + 1:
        raise ValueError(f"truncation {truncation} too small to test degrees {ds}")
    lhs = list(series)
    for d in ds:
        g = [0] * (2 * d + 1)
        g[0] = 1
        g[2 * d] = -1
        lhs = poly_mul_trunc(lhs, g, truncation)
    rhs: list = [1]
    for d in ds:
        f = [0] * (2 * d)
        f[0] = 1
        if 2 * d - 1 <= truncation:
            f[2 * d - 1] = 1
        rhs = poly_mul_trunc(rhs, f, truncation)
    rhs += [0] * (truncation + 1 - len(rhs))
    if lhs == rhs[:truncation + 1]:
        return ClosedForm(tuple(2 * d - 1 for d in ds), tuple(2 * d for d in ds))
    return None


# ---------------------------------------------------------------------------
# excluded characteristics
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def excluded_characteristics(cartan_type: CartanType,
                             automorphism: str | tuple[int, ...] = "identity",
                             ) -> tuple[int, ...]:
    """Primes dividing the Weyl order, the twist order, or the component
    count of the fixed subgroup (taken over both documented
    representatives, so the guarantee is conservative).  Read from the
    type and the twist alone; no root system is built."""
    perm, tag = resolve_twist(cartan_type, automorphism)
    return _excluded_primes(cartan_type, perm, tag)


def _excluded_primes(t: CartanType, simple_perm: tuple[int, ...],
                     tag: str) -> tuple[int, ...]:
    primes = _prime_factors(weyl_order(t)) | _prime_factors(_perm_order(simple_perm))
    for c in fixed_group_info(t, tag).component_counts:
        primes |= _prime_factors(c)
    return tuple(sorted(primes))


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _canonical_automorphism_echo(aut: DiagramAutomorphism,
                                 spec: str | tuple[int, ...]) -> str:
    if isinstance(spec, str):
        return spec
    return "perm=" + ",".join(str(i + 1) for i in spec)


def _closed_form_or_note(series: tuple[int, ...], folded: CartanType,
                         notes: list[str]) -> ClosedForm | None:
    ds = degrees(folded)
    truncation = len(series) - 1
    if truncation < 2 * max(2 * d for d in ds) + 1:
        notes.append("closed-form recognition skipped: truncation too small "
                     "for the folded degree table")
        return None
    # by Solomon's theorem the folded table always matches; a miss is a bug,
    # reported as such rather than covered by a search for other degrees
    hit = recognize_closed_form(series, ds)
    if hit is None:
        notes.append("series does not match the folded degree table")
    return hit


def compute(spec: TwistSpec) -> TwistReport:
    """Run the full pipeline for one twist specification.

    The spec's knobs are bounded when it is made.  Here the twist is
    checked against the Cartan matrix, and the order of W^sigma (the Weyl
    group of the folded type) and the root count are checked against
    their caps, from the type alone and before anything is built.
    """
    t = spec.cartan_type
    _, tag = resolve_twist(t, spec.automorphism)
    folded_type = expected_folded_type(t, tag)
    table_path = (t == CartanType("E", 8) and tag == "identity"
                  and weyl_order(t) > spec.element_cap)
    if not table_path and weyl_order(folded_type) > spec.element_cap:
        raise GroupTooLargeError(
            f"W^sigma, the Weyl group of the folded type {folded_type}, has order "
            f"{weyl_order(folded_type)}, past the element cap {spec.element_cap}")
    if not table_path and root_count(t) > MAX_ROOTS:
        raise GroupTooLargeError(f"type {t} has {root_count(t)} roots, past the "
                                 f"{MAX_ROOTS} of the one-byte root encoding")
    rs = build_root_system(t)
    aut = make_automorphism(rs, spec.automorphism)
    folding = folded_root_system(aut)
    criterion = orbit_count_criterion(aut, folding)
    pos_sizes = positive_orbit_sizes(aut)
    info = fixed_group_info(t, aut.tag)
    notes = [info.note]
    sizes_note = ", ".join(f"{pos_sizes.count(s)} of size {s}"
                           for s in sorted(set(pos_sizes)))
    notes.append(f"positive-root orbits: {len(pos_sizes)} ({sizes_note})")

    if table_path:
        series = product_over_degrees(rs.degrees, spec.truncation)
        bigraded = None
        stab_order = restricted_order = rs.weyl_order
        preserves = True  # identity twist: the Weyl group permutes its own roots
        notes.append("series from the invariant-degree table; Weyl enumeration "
                     "skipped (group order exceeds the element cap)")
        closed = ClosedForm(tuple(2 * d - 1 for d in rs.degrees),
                            tuple(2 * d for d in rs.degrees))
    else:
        action = RootPermutationAction(rs)
        generators = action.steinberg_generators(aut.simple_perm)
        # a lazy walk: each element is bucketed as it comes, then dropped
        wsigma = wsigma_elements(action, aut.simple_perm, generators,
                                 weyl_order(folded_type), spec.element_cap)
        buckets = fixed_space_charpoly_buckets(action, aut.simple_perm, wsigma)
        # the restriction to the fixed subspace is faithful
        stab_order = restricted_order = sum(buckets.values())
        preserves = wsigma_preserves_folded(
            action.fixed_space_matrices(aut.simple_perm, generators), folding)
        bigraded = super_molien_from_buckets(buckets, stab_order, spec.truncation)
        series = collapse_to_cohomological(bigraded)
        if series[0] != 1 or any(c < 0 for c in series):
            raise ValueError("malformed invariant series")
        closed = _closed_form_or_note(series, folded_type, notes)

    if restricted_order != weyl_order(folded_type):
        notes.append(f"restricted stabilizer image has order {restricted_order}, "
                     f"folded Weyl group has order {weyl_order(folded_type)}")
    else:
        notes.append("restricted stabilizer image matches the folded Weyl "
                     f"group order {restricted_order}")
    notes.append("finite central covers and quotients of the group share this "
                 "series at the reported characteristics")
    if aut.tag == "flip" and spec.cartan_type.family == "A":
        notes.append("the unitary-group form of this twist has the same series "
                     "away from characteristic 2 and primes dividing the rank "
                     "plus one")
        if spec.cartan_type.rank % 2 == 1:
            notes.append("an equivalent route through the even orthogonal group "
                         "extended by its diagram symmetry yields the same series")
    if spec.cartan_type == CartanType("E", 6) and aut.tag == "flip":
        notes.append("every characteristic greater than 30 avoids the excluded "
                     "set {2, 3, 5}")

    if spec.run_oracle:
        notes.append("oracle skipped: no enumerated group on the table path"
                     if table_path else
                     _oracle_note(spec, aut, action, generators, stab_order,
                                  bigraded))

    return TwistReport(
        cartan_type=spec.cartan_type,
        automorphism=_canonical_automorphism_echo(aut, spec.automorphism),
        truncation=spec.truncation,
        folded_type=folded_type,
        orbit_criterion=criterion,
        positive_orbit_sizes=pos_sizes,
        stabilizer_order=stab_order,
        restricted_order=restricted_order,
        preserves_folded=preserves,
        series=tuple(series),
        closed_form=closed,
        excluded_characteristics=_excluded_primes(t, aut.simple_perm, aut.tag),
        notes=tuple(notes),
        bigraded=bigraded,
    )


def _oracle_note(spec: TwistSpec, aut: DiagramAutomorphism,
                 action: RootPermutationAction, generators: Sequence[bytes],
                 order: int, bigraded: BigradedSeries) -> str:
    from . import oracle  # the references stay out of the pipeline's imports

    dim = len(aut.simple_orbits)
    if dim > oracle.ORACLE_MAX_DIM:
        return (f"oracle skipped: restricted dimension {dim} exceeds "
                f"{oracle.ORACLE_MAX_DIM}")
    wsigma = wsigma_elements(action, aut.simple_perm, generators, order,
                             spec.element_cap)
    group = oracle.FiniteMatrixGroup(
        dim, action.fixed_space_matrices(aut.simple_perm, wsigma))
    max_deg = min(oracle.ORACLE_MAX_DEGREE, spec.truncation)
    dims = oracle.brute_force_invariant_dims(group, max_deg)
    for (a, b), c in dims.coefficients.items():
        if bigraded[(a, b)] != c:
            raise ValueError(f"oracle mismatch at bidegree {(a, b)}: "
                             f"{c} vs {bigraded[(a, b)]}")
    for (a, b), c in bigraded.coefficients.items():
        if a + 2 * b <= max_deg and dims[(a, b)] != c:
            raise ValueError(f"oracle mismatch at bidegree {(a, b)}")
    return (f"oracle: brute-force invariant dimensions match the series "
            f"through total degree {max_deg}")
