"""End-to-end pipeline: from a twist specification to a serialized report.

:func:`compute` builds no root.  From the type and the diagram
automorphism sigma it certifies the invariant ring of the group the
answer needs: W^sigma, the elements of the Weyl group that commute with
sigma, generated by Steinberg's elements (one longest parabolic element
per sigma-orbit of simple nodes).  W^sigma acts faithfully on the fixed
subspace and realizes the folded Weyl group there, each generator as a
simple reflection in a projected simple root (Steinberg 1968), kept as
one row: row k is column k of the folded type's Cartan matrix negated,
read off that matrix for every twist (:func:`twistloop.twist.twist_rows`);
for sigma = identity they are W's simple reflections, by definition.
No row is walked or matched; the walk and the match are the reference
fold's (:func:`twistloop.oracle.folded_root_system`).  W^sigma is the
folded Weyl group, which permutes the folded roots, so
``preserves_folded`` holds.
sigma's orbit sizes on the positive roots and the orbit count follow
from the root counts of the input and folded types and the order of
sigma (:func:`twistloop.twist.orbit_sizes`).  The order of W^sigma is
the product of the indices along the chain of subgroups the generators
span, taken in the folded type's order, each the size of one orbit of a
coordinate functional on the fixed subspace.  The degrees of its basic
invariants are the folded type's degree table, certified: they must
multiply to that order, and invariants of those degrees on the chain's
last orbit must have a nonzero Jacobian determinant modulo a large
prime.  The invariant ring is then polynomial in those degrees, so the
series the report emits is the product of (1 + u^(2d-1)) / (1 - u^(2d))
over them, O(rank) list operations of the truncation's length.  That
series is the dimension series of the cohomology of the classifying
space of the corresponding twisted loop group, valid away from the
reported excluded characteristics.  No
element of W^sigma is enumerated and no root is permuted, so the cost
does not grow with its order.

The closed form is the product form over the certified degrees, from
truncation 4 max(d) + 1 on (below it a note says the truncation is too
small).  The series-level comparison is a reference in
:mod:`twistloop.oracle` (``recognize_closed_form``).

Solomon's bigraded series over the same degrees, the report's
``bigraded`` property, is computed on each read from the report's folded
type and truncation (and under ``run_oracle``, which compares it with a
brute-force count); the report stores no bigraded series, and the single
series and the JSON never need it.

The one deliberate shortcut: untwisted E8 is answered from the
invariant-degree table alone, because its Weyl group (order 696729600)
exceeds the element cap; that route forms no row.  With
``run_oracle`` the brute-force count of :mod:`twistloop.oracle`
re-derives the low-degree invariant dimensions from W^sigma taken from
its definition, the stabilizer of the fixed subspace in the enumerated
Weyl group, so the check shares no Steinberg generator with the
pipeline; that module is imported only then.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .exact import (BigradedSeries, DEFAULT_TRUNCATION, Record, check_int,
                    product_over_degrees, solomon_series)
from . import weyl
from .rootsys import CartanType, ascending_degrees, degrees, root_count, weyl_order
from .twist import OrbitCriterion, orbit_sizes, twist_entry, twist_of, twist_rows
from .weyl import GroupTooLargeError, certify_jacobian, coset_indices

# the series, its JSON and a bigraded series read on demand grow with it
MAX_TRUNCATION = 10_000
MAX_WORKERS = 64


class TwistSpec(Record):
    __slots__ = ("cartan_type", "automorphism", "truncation", "run_oracle", "workers")
    cartan_type: CartanType
    automorphism: str | tuple[int, ...]
    truncation: int
    run_oracle: bool
    workers: int
    _defaults = {"automorphism": "identity", "truncation": DEFAULT_TRUNCATION,
                 "run_oracle": False, "workers": 1}

    def _check(self):
        if not isinstance(self.cartan_type, CartanType):
            raise ValueError(f"cartan_type must be a CartanType, got {self.cartan_type!r}")
        auto = self.automorphism
        if not isinstance(auto, str):
            if not isinstance(auto, Sequence):
                raise ValueError("automorphism must be a tag or a sequence of node "
                                 f"images, got {auto!r}")
            for x in auto:
                check_int("automorphism image", x)
            object.__setattr__(self, "automorphism", tuple(auto))
        if type(self.run_oracle) is not bool:
            raise ValueError(f"run_oracle must be a bool, got {self.run_oracle!r}")
        for name in ("truncation", "workers"):
            check_int(name, getattr(self, name))
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        if self.truncation > MAX_TRUNCATION:
            raise ValueError(f"truncation must be at most {MAX_TRUNCATION}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")


class ClosedForm(Record):
    __slots__ = ("x_degrees", "y_degrees")
    x_degrees: tuple[int, ...]
    y_degrees: tuple[int, ...]


class TwistReport(Record):
    """The pipeline's answer for one spec."""

    __slots__ = ("cartan_type", "automorphism", "truncation", "folded_type",
                 "orbit_criterion", "positive_orbit_sizes", "stabilizer_order",
                 "restricted_order", "preserves_folded", "series", "closed_form",
                 "excluded_characteristics", "notes")
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

    @property
    def bigraded(self) -> BigradedSeries:
        """Solomon's bigraded series over the folded type's degrees, expanded
        to the report's truncation on each read."""
        return solomon_series(degrees(self.folded_type), self.truncation)

    def to_json(self) -> str:
        """The report as JSON, the bytes ``json.dumps(..., indent=2)`` gives
        for this one shape, laid out here: each member and list entry on its
        own line, indented two spaces per level, ``[]`` for an empty list,
        and strings escaped as json's ``ensure_ascii`` does (:func:`_json_str`).
        json's indented encoder runs in pure Python, and importing json
        takes longer than most cases take to compute."""
        t, crit, cf = self.cartan_type, self.orbit_criterion, self.closed_form
        closed = "null" if cf is None else (
            f'{{\n    "x_degrees": {_json_list(cf.x_degrees, 6)},\n'
            f'    "y_degrees": {_json_list(cf.y_degrees, 6)}\n  }}')
        return (
            f'{{\n  "input": {{\n    "type": {_json_str(t.family)},\n'
            f'    "rank": {t.rank},\n'
            f'    "automorphism": {_json_str(self.automorphism)},\n'
            f'    "truncation": {self.truncation}\n  }},\n'
            f'  "folded_type": {_json_str(str(self.folded_type))},\n'
            f'  "orbit_criterion": {{\n    "orbits": {crit.orbit_count},\n'
            f'    "folded_roots": {crit.folded_root_count},\n'
            f'    "holds": {str(crit.holds).lower()}\n  }},\n'
            f'  "wsigma": {{\n    "order": {self.stabilizer_order},\n'
            f'    "restricted_order": {self.restricted_order},\n'
            f'    "preserves_folded": {str(self.preserves_folded).lower()}\n  }},\n'
            f'  "series": {_json_list(self.series, 4)},\n'
            f'  "closed_form": {closed},\n'
            f'  "excluded_characteristics": {_json_list(self.excluded_characteristics, 4)},\n'
            f'  "notes": {_json_list(tuple(map(_json_str, self.notes)), 4, "%s")}\n}}')

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


def _json_str(s: str) -> str:
    """s as ``json.dumps`` writes it: printable ASCII with no quote or
    backslash, every string compute() writes, is quoted as it stands; any
    other string goes through json, imported only then."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json
    return json.dumps(s)


def _json_list(values: Sequence, indent: int, item: str = "%d") -> str:
    """A list, each entry by the % template item (ints by default) on its own
    line at indent spaces, the bracket closed two less; ``[]`` when empty."""
    if not values:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + ((pad + item + ",") * len(values))[:-1] % tuple(values) + pad[:-2] + "]"


# ---------------------------------------------------------------------------
# excluded characteristics
# ---------------------------------------------------------------------------

def excluded_characteristics(cartan_type: CartanType,
                             automorphism: str | tuple[int, ...] = "identity",
                             ) -> tuple[int, ...]:
    """Primes dividing the Weyl order or the component count of the fixed
    subgroup (taken over both documented representatives, so the guarantee
    is conservative).  They hold the twist order's prime: every Weyl group
    has the degree 2, and 3 divides |W(D4)|, the one type with a twist of
    order three.  Read from the type and the twist alone; no root system
    is built, and the Weyl order, the product of the degrees, is not
    formed: its primes are theirs."""
    spec = TwistSpec(cartan_type, automorphism)  # its checks of the arguments
    _, folded = twist_of(spec.cartan_type, spec.automorphism)
    return _excluded_primes(spec.cartan_type, twist_entry(spec.cartan_type, folded)[1])


def _excluded_primes(t: CartanType, component_counts: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`excluded_characteristics` for a resolved twist's component counts."""
    primes = set()
    for n in {*ascending_degrees(t), *component_counts}:
        d = 2
        while d * d <= n:
            while n % d == 0:
                primes.add(d)
                n //= d
            d += 1
        if n > 1:
            primes.add(n)
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
    type's degrees, passes cap.  They are read and multiplied in ascending
    order until the product passes it, so the message gives the exact order
    only when every degree went in, and no order too long to print is formed."""
    ds = ascending_degrees(folded)
    order = 1
    for d in ds:
        order *= d
        if order > cap:
            exact = next(ds, None) is None
            raise GroupTooLargeError(
                f"W^sigma, the Weyl group of the folded type {folded}, has order "
                f"{'' if exact else 'at least '}{order}, past the element cap {cap}")


def compute(spec: TwistSpec) -> TwistReport:
    """Run the full pipeline for one twist specification.

    The spec's fields are checked when it is made.  Here the twist is
    resolved once to its tag and folded type
    (:func:`twistloop.twist.twist_of`), a tag in O(1) and explicit images
    on the Dynkin diagram, and then |W^sigma| is checked against the
    element cap, from the folded type alone, before anything else is
    built.  The twist's notes and component counts are its one entry of
    :data:`twistloop.twist.TWISTS`.  No twist builds a root or walks a
    row: every twist's rows are read off the folded type's Cartan matrix,
    in the coset chain's order, and the orbit sizes and root counts off
    the types.  Only ``run_oracle`` builds the roots, for its references.
    """
    t = spec.cartan_type
    tag, folded_type = twist_of(t, spec.automorphism)
    cap = weyl.DEFAULT_ELEMENT_CAP
    # E8 has no diagram symmetry: its one twist is the identity
    table_path = (t.family, t.rank) == ("E", 8) and weyl_order(t) > cap
    if not table_path:
        _check_order_cap(folded_type, cap)
    pos_sizes = orbit_sizes(t, folded_type)
    # negation commutes with sigma: as many orbits on the negative roots
    criterion = OrbitCriterion(2 * len(pos_sizes), root_count(folded_type))
    note, component_counts, twist_notes = twist_entry(t, folded_type)
    notes = [note]
    sizes_note = ", ".join(f"{pos_sizes.count(s)} of size {s}"
                           for s in sorted(set(pos_sizes)))
    notes.append(f"positive-root orbits: {len(pos_sizes)} ({sizes_note})")

    ds = degrees(folded_type)
    # |W^sigma|, the restriction to the fixed subspace being faithful
    order = math.prod(ds)
    if table_path:
        notes.append("series from the invariant-degree table; Weyl enumeration "
                     "skipped (group order exceeds the element cap)")
        closed = _closed_form(ds)
    else:
        rows = twist_rows(folded_type)
        try:
            # the certificate: the coset chain raises unless its indices, the
            # group order, are the degrees' product, and invariants of those
            # degrees are algebraically independent
            _, orbit = coset_indices(rows, order)
            certify_jacobian(rows, ds, orbit)
        except ValueError as exc:
            raise ValueError(f"{t} {tag}: {exc}") from None
        closed = _closed_form_or_note(ds, spec.truncation, notes)
    series = product_over_degrees(ds, spec.truncation)

    notes.append(f"restricted stabilizer image matches the folded Weyl group order {order}")
    notes.append("finite central covers and quotients of the group share this "
                 "series at the reported characteristics")
    notes.extend(twist_notes)

    if spec.run_oracle:
        if table_path:
            notes.append("oracle skipped: no enumerated group on the table path")
        else:
            from .oracle import check_note  # the references load only here
            notes.append(check_note(t, spec.automorphism, solomon_series(ds, spec.truncation)))

    return TwistReport(
        cartan_type=spec.cartan_type,
        automorphism=(spec.automorphism if isinstance(spec.automorphism, str) else
                      "perm=" + ",".join(str(i + 1) for i in spec.automorphism)),
        truncation=spec.truncation,
        folded_type=folded_type,
        orbit_criterion=criterion,
        positive_orbit_sizes=pos_sizes,
        stabilizer_order=order,
        restricted_order=order,
        preserves_folded=True,  # W^sigma is the folded Weyl group (Steinberg)
        series=series,
        closed_form=closed,
        excluded_characteristics=_excluded_primes(t, component_counts),
        notes=tuple(notes),
    )

