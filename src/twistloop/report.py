"""End-to-end pipeline: from a twist specification to a serialized report.

:func:`compute` builds the root system, the diagram automorphism sigma and
its folding, then certifies the invariant ring of the group the answer
needs: W^sigma, the elements of the Weyl group that commute with sigma,
generated by Steinberg's elements (one longest parabolic element per
sigma-orbit of simple nodes; sigma = identity gives all of W), each
walked from the Cartan matrix on its images of the simple roots.
W^sigma acts faithfully on the fixed subspace and realizes the folded
Weyl group there, each generator as a simple reflection, kept as one
row.  Its order is the product of the indices along the chain of
subgroups the generators span, each the size of one orbit of a
coordinate functional on the fixed subspace.  The degrees of its basic
invariants are the folded type's degree table, certified: they must
multiply to that order, and invariants of those degrees must have a
nonzero Jacobian determinant modulo a large prime.  The invariant ring
is then polynomial in those degrees, so the series the report emits is
the product of (1 + u^(2d-1)) / (1 - u^(2d)) over them, expanded in
O(rank * truncation) integer steps.  That series is the dimension series
of the cohomology of the classifying space of the corresponding twisted
loop group, valid away from the reported excluded characteristics.  No
element of W^sigma is enumerated and no root is permuted, so the cost
does not grow with its order.

The closed form is the product form over the certified degrees, from
truncation 4 max(d) + 1 on (below it a note says the truncation is too
small).  The series-level comparison is a reference in
:mod:`twistloop.oracle` (``recognize_closed_form``).

Solomon's bigraded series over the same degrees, the report's
``bigraded`` field, is expanded only when it is read (or under
``run_oracle``, which compares it with a brute-force count); the single
series and the JSON never need it.

The one deliberate shortcut: untwisted E8 is answered from the
invariant-degree table alone, because its Weyl group (order 696729600)
exceeds the element cap.  With ``run_oracle`` the brute-force count of
:mod:`twistloop.oracle` re-derives the low-degree invariant dimensions
from the elements of W^sigma; that module is imported only then.
"""

from __future__ import annotations

import math

from .exact import (BigradedSeries, DEFAULT_TRUNCATION, Record, check_int,
                    product_over_degrees, solomon_series)
from .rootsys import CartanType, build_root_system, degrees, root_count, weyl_order
from .twist import (DiagramAutomorphism, OrbitCriterion, expected_folded_type,
                    fixed_group_info, folded_root_system, make_automorphism,
                    orbit_count_criterion, positive_orbit_sizes, resolve_twist,
                    wsigma_preserves_folded)
from .weyl import (DEFAULT_ELEMENT_CAP, MAX_ROOTS, GroupTooLargeError, _perm_order,
                   certify_jacobian, coset_indices, steinberg_rows)

# the series, its JSON and a bigraded series read on demand grow with it
MAX_TRUNCATION = 10_000
MAX_WORKERS = 64


class TwistSpec(Record):
    __slots__ = ("cartan_type", "automorphism", "truncation", "run_oracle",
                 "workers", "element_cap")
    cartan_type: CartanType
    automorphism: str | tuple[int, ...]
    truncation: int
    run_oracle: bool
    workers: int
    element_cap: int
    _defaults = {"automorphism": "identity", "truncation": DEFAULT_TRUNCATION,
                 "run_oracle": False, "workers": 1, "element_cap": DEFAULT_ELEMENT_CAP}

    def _check(self):
        for name in ("truncation", "workers", "element_cap"):
            check_int(name, getattr(self, name))
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        if self.truncation > MAX_TRUNCATION:
            raise ValueError(f"truncation must be at most {MAX_TRUNCATION}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")
        if self.element_cap < 1:
            raise ValueError("element_cap must be at least 1")


class ClosedForm(Record):
    __slots__ = ("x_degrees", "y_degrees")
    x_degrees: tuple[int, ...]
    y_degrees: tuple[int, ...]


class TwistReport(Record, hidden=("bigraded",)):
    """The pipeline's answer for one spec.  ``bigraded`` (the bigraded
    series, None on the table route) is left out of ==, hash and repr;
    :func:`compute` leaves it as a :class:`_DeferredSolomon`, expanded on
    first read."""

    __slots__ = ("cartan_type", "automorphism", "truncation", "folded_type",
                 "orbit_criterion", "positive_orbit_sizes", "stabilizer_order",
                 "restricted_order", "preserves_folded", "series", "closed_form",
                 "excluded_characteristics", "notes", "bigraded")
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
    bigraded: BigradedSeries | None
    _defaults = {"bigraded": None}

    def to_json_dict(self) -> dict:
        return self._json_dict(list(self.series))

    def _json_dict(self, series: list[int] | None) -> dict:
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
            "series": series,
            "closed_form": (None if self.closed_form is None else {
                "x_degrees": list(self.closed_form.x_degrees),
                "y_degrees": list(self.closed_form.y_degrees),
            }),
            "excluded_characteristics": list(self.excluded_characteristics),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_json_dict(), indent=2)``.  With an
        indent json encodes in pure Python, so the series list, the bulk of
        the report, is written here in the same layout: one entry per line,
        at the depth of a top-level value."""
        import json  # loaded on first use: compute() and the text report need none

        head, tail = json.dumps(self._json_dict(None), indent=2).split(
            '"series": null', 1)
        return (head + '"series": [\n    ' + ",\n    ".join(map(str, self.series))
                + "\n  ]" + tail)

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
# the bigraded series, expanded on first read
# ---------------------------------------------------------------------------

class _DeferredSolomon:
    """Solomon's product over certified degrees, not yet expanded."""

    __slots__ = ("degrees", "truncation")

    def __init__(self, degrees: tuple[int, ...], truncation: int):
        self.degrees = degrees
        self.truncation = truncation


def _bigraded_on_read(slot):
    """A property over the ``bigraded`` slot: a deferred product is expanded
    on first read and the slot keeps the series."""

    def read(self) -> BigradedSeries | None:
        value = slot.__get__(self, TwistReport)
        if type(value) is _DeferredSolomon:
            value = solomon_series(value.degrees, value.truncation)
            slot.__set__(self, value)
        return value

    return property(read, slot.__set__)


TwistReport.bigraded = _bigraded_on_read(TwistReport.bigraded)


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

def _closed_form(ds: tuple[int, ...]) -> ClosedForm:
    return ClosedForm(tuple(2 * d - 1 for d in ds), tuple(2 * d for d in ds))


def _closed_form_or_note(ds: tuple[int, ...], truncation: int,
                         notes: list[str]) -> ClosedForm | None:
    """The closed form over the certified degrees, the folded type's degree
    table.  Below truncation 4 max(d) + 1 it is skipped with a note, where
    the series-level comparison
    (:func:`twistloop.oracle.recognize_closed_form`) raises."""
    if truncation < 2 * max(2 * d for d in ds) + 1:
        notes.append("closed-form recognition skipped: truncation too small "
                     "for the folded degree table")
        return None
    return _closed_form(ds)


def _check_order_cap(folded: CartanType, cap: int) -> None:
    """Raise GroupTooLargeError when |W^sigma|, the product of the folded
    type's degrees, passes cap.  They are multiplied in ascending order
    until the product passes it, so the message gives the exact order only
    when every degree went in, and never forms an order too long to print."""
    ds = degrees(folded)
    order = 1
    for used, d in enumerate(ds, 1):
        order *= d
        if order > cap:
            raise GroupTooLargeError(
                f"W^sigma, the Weyl group of the folded type {folded}, has order "
                f"{'' if used == len(ds) else 'at least '}{order}, past the "
                f"element cap {cap}")


def compute(spec: TwistSpec) -> TwistReport:
    """Run the full pipeline for one twist specification.

    The spec's knobs are bounded when it is made.  Here the twist is
    checked on the Dynkin diagram, and the order of W^sigma (the Weyl
    group of the folded type) and the root count are checked against
    their caps, from the type alone and before anything is built.
    """
    t = spec.cartan_type
    _, tag = resolve_twist(t, spec.automorphism)
    folded_type = expected_folded_type(t, tag)
    table_path = (t == CartanType("E", 8) and tag == "identity"
                  and weyl_order(t) > spec.element_cap)
    if not table_path:
        _check_order_cap(folded_type, spec.element_cap)
    if not table_path and root_count(t) > MAX_ROOTS:
        raise GroupTooLargeError(f"type {t} has {root_count(t)} roots, past the "
                                 f"root cap {MAX_ROOTS}")
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
        closed = _closed_form(rs.degrees)
    else:
        ds = degrees(folded_type)
        try:
            # each of Steinberg's generators is a reflection on the fixed
            # subspace: one row
            rows = steinberg_rows(t, aut.simple_perm)
            indices = coset_indices(rows, weyl_order(folded_type))
            # the restriction to the fixed subspace is faithful
            stab_order = restricted_order = math.prod(indices)
            # the certificate: the degrees multiply to the group order, and
            # invariants of those degrees are algebraically independent
            if math.prod(ds) != stab_order:
                raise ValueError(f"degrees {list(ds)} multiply to {math.prod(ds)}, "
                                 f"not the coset-chain order {stab_order}")
            certify_jacobian(rows, ds)
        except ValueError as exc:
            raise ValueError(f"{t} {aut.tag}: {exc}") from None
        preserves = wsigma_preserves_folded(rows, folding)
        series = product_over_degrees(ds, spec.truncation)
        closed = _closed_form_or_note(ds, spec.truncation, notes)
        # the oracle compares the bigraded series; otherwise it waits for a read
        bigraded = (solomon_series(ds, spec.truncation) if spec.run_oracle
                    else _DeferredSolomon(ds, spec.truncation))

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
                     _oracle_note(spec, aut, stab_order, bigraded))

    return TwistReport(
        cartan_type=spec.cartan_type,
        automorphism=(spec.automorphism if isinstance(spec.automorphism, str) else
                      "perm=" + ",".join(str(i + 1) for i in spec.automorphism)),
        truncation=spec.truncation,
        folded_type=folded_type,
        orbit_criterion=criterion,
        positive_orbit_sizes=pos_sizes,
        stabilizer_order=stab_order,
        restricted_order=restricted_order,
        preserves_folded=preserves,
        series=series,
        closed_form=closed,
        excluded_characteristics=_excluded_primes(t, aut.simple_perm, aut.tag),
        notes=tuple(notes),
        bigraded=bigraded,
    )


def _oracle_note(spec: TwistSpec, aut: DiagramAutomorphism, order: int,
                 bigraded: BigradedSeries) -> str:
    from . import oracle  # the references stay out of the pipeline's imports

    dim = len(aut.simple_orbits)
    if dim > oracle.ORACLE_MAX_DIM:
        return (f"oracle skipped: restricted dimension {dim} exceeds "
                f"{oracle.ORACLE_MAX_DIM}")
    # W^sigma element by element, over root permutations
    action = oracle.RootPermutationAction(aut.base)
    generators = action.steinberg_generators(aut.simple_perm)
    wsigma = oracle.wsigma_elements(action, aut.simple_perm, generators, order,
                                    spec.element_cap)
    group = oracle.FiniteMatrixGroup(
        dim, oracle.fixed_space_matrices(action, aut.simple_perm, wsigma))
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
