import json
import multiprocessing.process
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import twistloop
from twistloop.cli import main
from twistloop.exact import product_over_degrees, solomon_series
from twistloop.oracle import (FiniteMatrixGroup, WeylPermutationGroup,
                              brute_force_invariant_dims, build_root_system,
                              collapse_to_cohomological, identity_matrix,
                              recognize_closed_form)
from twistloop.report import (MAX_TRUNCATION, MAX_WORKERS, ClosedForm, TwistReport,
                              TwistSpec, _closed_form_or_note, compute,
                              excluded_characteristics)
from twistloop.rootsys import CartanType, degrees

from conftest import cached_report
from test_acceptance import A_FLIP_RANKS, D_FLIP_RANKS, SOLOMON_TYPES, expected_series

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment of a child interpreter that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def read_json(text):
    """The report JSON text read back, after checking that it is laid out
    byte for byte as ``json.dumps(..., indent=2)`` lays out what it holds."""
    d = json.loads(text)
    assert json.dumps(d, indent=2) == text
    return d


class TestRecognizeClosedForm:
    def test_g2_degrees_match(self):
        series = product_over_degrees([2, 6], 50)
        cf = recognize_closed_form(series, [2, 6])
        assert cf == ClosedForm((3, 11), (4, 12))

    def test_wrong_degrees_rejected(self):
        series = product_over_degrees([2], 50)
        assert recognize_closed_form(series, [3]) is None

    def test_c2_match(self):
        series = product_over_degrees([2, 4], 50)
        assert recognize_closed_form(series, [2, 4]) == ClosedForm((3, 7), (4, 8))

    def test_truncation_too_small_is_an_error(self):
        series = product_over_degrees([2, 6], 20)
        with pytest.raises(ValueError):
            recognize_closed_form(series, [2, 6])

    def test_closed_form_over_the_certified_degrees(self):
        # the certified degrees are the folded table, so no comparison is
        # left: only the truncation decides, at 4 max(d) + 1
        notes = []
        assert _closed_form_or_note((2, 6), 25, notes) == ClosedForm((3, 11), (4, 12))
        assert notes == []
        assert _closed_form_or_note((2, 6), 24, notes) is None
        assert notes == ["closed-form recognition skipped: truncation too small for "
                         "the folded degree table"]


class TestSeriesFromDegrees:
    """The series, the closed form and the JSON come from the certified
    degrees; Solomon's bigraded series is expanded only when read."""

    CASES = [("B", 3, "identity", 50), ("D", 4, "triality", 50), ("E", 6, "flip", 50),
             ("E", 8, "identity", 50)]

    def test_default_path_expands_no_bigraded_series(self, monkeypatch):
        import twistloop.exact

        def refuse(*args, **kwargs):
            raise AssertionError("bigraded series expanded on the default path")

        modules = [twistloop, twistloop.exact] + [
            sys.modules[f"twistloop.{m}"] for m in ("cli", "report", "rootsys", "twist", "weyl")]
        for module in modules:
            for name in ("solomon_series", "collapse_to_cohomological"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        reports = []
        for family, rank, tag, trunc in self.CASES:
            rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=trunc))
            assert rpt.to_json() and rpt.to_text()
            assert rpt.series == product_over_degrees(degrees(rpt.folded_type), trunc)
            assert rpt.closed_form is not None
            reports.append(rpt)
        monkeypatch.undo()
        for rpt in reports:  # the E8 table route's included
            want = solomon_series(degrees(rpt.folded_type), rpt.truncation)
            assert rpt.bigraded == want
            assert collapse_to_cohomological(rpt.bigraded) == rpt.series

    def test_bigraded_is_a_read_only_property(self):
        rpt = compute(TwistSpec(CartanType("G", 2)))
        with pytest.raises(AttributeError):
            rpt.bigraded = None
        assert rpt == cached_report("G", 2) and "bigraded" not in repr(rpt)
        assert "bigraded" not in TwistReport.__slots__
        assert TwistReport.bigraded.fset is None

    def test_degree_decision_agrees_with_the_series_comparison(self):
        from test_golden_reports import EXTRA, MATRIX

        cases = [(f, r, tag, 50) for f, r, tag in MATRIX] + EXTRA
        for family, rank, auto, trunc in cases:
            if (family, rank) == ("E", 8):
                continue  # the table route takes the closed form from the table
            rpt = cached_report(family, rank, auto, trunc)
            try:
                want = recognize_closed_form(rpt.series, degrees(rpt.folded_type))
            except ValueError:
                want = None
                assert ("closed-form recognition skipped: truncation too small for "
                        "the folded degree table") in rpt.notes, (family, rank, auto, trunc)
            assert rpt.closed_form == want, (family, rank, auto, trunc)

    @pytest.mark.parametrize("family,rank,auto,trunc", [
        ("A", 1, "identity", 0), ("G", 2, "identity", 0), ("A", 1, "identity", 1),
        ("G", 2, "identity", 1), ("D", 4, "triality", 50), ("E", 8, "identity", 50),
        ("F", 4, "identity", MAX_TRUNCATION)])
    def test_json_is_the_indented_dump(self, family, rank, auto, trunc):
        rpt = cached_report(family, rank, auto, trunc)
        assert len(rpt.series) == trunc + 1
        assert read_json(rpt.to_json())["series"] == list(rpt.series)


class TestExcludedCharacteristics:
    def test_triality(self):
        assert excluded_characteristics(CartanType("D", 4), "triality") == (2, 3)

    def test_e6_flip(self):
        assert excluded_characteristics(CartanType("E", 6), "flip") == (2, 3, 5)

    def test_a1_identity(self):
        assert excluded_characteristics(CartanType("A", 1)) == (2,)

    @pytest.mark.parametrize("family,rank,auto", [("A", 4, "flip"), ("B", 3, "identity"),
                                                  ("D", 5, "flip"), ("G", 2, "identity")])
    def test_always_contains_two(self, family, rank, auto):
        assert 2 in excluded_characteristics(CartanType(family, rank), auto)

    def test_agrees_with_compute_over_the_acceptance_matrix(self):
        cases = ([(f, r, "identity") for f, r in SOLOMON_TYPES] +
                 [("D", n, "flip") for n in D_FLIP_RANKS] +
                 [("A", r, "flip") for r in A_FLIP_RANKS] +
                 [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
        for family, rank, tag in cases:
            assert excluded_characteristics(CartanType(family, rank), tag) == \
                cached_report(family, rank, tag).excluded_characteristics

    def test_read_from_the_type_alone(self, monkeypatch):
        from twistloop import oracle, report, rootsys, twist

        def refuse(*args, **kwargs):
            raise AssertionError("root system built for the excluded primes")

        # no pipeline module holds the builder; every build goes through the
        # oracle's RootSystem constructor
        for module in (report, rootsys, twist):
            assert "build_root_system" not in vars(module), module.__name__
        monkeypatch.setattr(oracle, "build_root_system", refuse)
        monkeypatch.setattr(oracle.RootSystem, "__init__", refuse)
        assert excluded_characteristics(CartanType("D", 4), "triality") == (2, 3)
        assert excluded_characteristics(CartanType("A", 5), (4, 3, 2, 1, 0)) == (2, 3, 5)

    @pytest.mark.parametrize("family,rank,spec,folded", [
        ("E", 8, "identity", None), ("A", 12, "identity", None), ("E", 6, "identity", None),
        ("E", 6, "flip", "F4"), ("D", 4, "triality", "G2"),
        ("E", 6, (5, 1, 4, 3, 2, 0), "F4")])
    def test_compute_resolves_the_twist_once(self, family, rank, spec, folded, monkeypatch):
        # compute() calls the one resolver, twist_of, once: a tag is checked
        # in O(1), and only explicit images go through resolve_twist; the
        # notes and the excluded primes read the twist's entry, the rows and
        # the orbit sizes the folded type, and the E8 test compares (family,
        # rank), so the only type record built is the folded type, once
        from twistloop import report, twist
        from twistloop.weyl import GroupTooLargeError

        t = CartanType(family, rank)
        resolved, walked, made = [], [], []
        twist_of, resolve, check = report.twist_of, twist.resolve_twist, CartanType._check
        monkeypatch.setattr(report, "twist_of",
                            lambda *args: resolved.append(args) or twist_of(*args))
        monkeypatch.setattr(twist, "resolve_twist",
                            lambda *args: walked.append(args) or resolve(*args))
        monkeypatch.setattr(CartanType, "_check", lambda self: made.append(self) or check(self))
        try:
            rpt = compute(TwistSpec(t, spec))
        except GroupTooLargeError:
            rpt = None
        assert len(resolved) == 1
        assert len(walked) == (not isinstance(spec, str))
        assert [str(u) for u in made] == ([folded] if folded else []), made
        if rpt is not None:
            monkeypatch.undo()
            assert rpt.excluded_characteristics == excluded_characteristics(t, spec)

    @pytest.mark.parametrize("family,rank,tag", [
        ("A", 20000, "flip"), ("A", 5, "flip"), ("D", 4, "triality"), ("D", 4, "triality2"),
        ("D", 7, "flip"), ("E", 6, "flip"), ("B", 3, "identity")])
    def test_a_tag_forms_no_node_permutation(self, family, rank, tag, monkeypatch):
        # a tag is checked by the folding table and its entry read off the
        # folded type: the twist's node permutation, reference data in the
        # oracle, is never formed
        from twistloop import oracle

        def refuse(*args):
            raise AssertionError("a tag's node permutation formed")

        t = CartanType(family, rank)
        want = excluded_characteristics(t, tag)
        monkeypatch.setattr(oracle, "simple_perm_for_tag", refuse)
        assert excluded_characteristics(t, tag) == want

    @pytest.mark.parametrize("args,message", [
        (("A3",), "cartan_type must be a CartanType, got 'A3'"),
        ((CartanType("A", 3), 5), "automorphism must be a tag or a sequence of node "
                                  "images, got 5"),
        ((CartanType("A", 3), (2, "flip", 0)),
         "automorphism image must be an integer, got 'flip'"),
    ], ids=["type", "automorphism", "image"])
    def test_malformed_arguments_get_the_specs_message(self, args, message):
        # the arguments are checked as TwistSpec checks them, by TwistSpec
        with pytest.raises(ValueError) as err:
            excluded_characteristics(*args)
        assert str(err.value) == message

    def test_a6_has_factorial_primes(self):
        # |W(A6)| = 7!: primes 2, 3, 5, 7
        assert excluded_characteristics(CartanType("A", 6), "flip") == (2, 3, 5, 7)

    def test_untwisted_primes_are_those_of_the_weyl_order(self):
        from twistloop.rootsys import FAMILIES, _RANK_BOUNDS, weyl_order

        for family in FAMILIES:
            lo, hi = _RANK_BOUNDS[family]
            for rank in range(lo, (hi or 30) + 1):
                t = CartanType(family, rank)
                order = weyl_order(t)
                want = tuple(p for p in range(2, 2 * rank + 2) if order % p == 0
                             and all(p % q for q in range(2, p)))
                assert excluded_characteristics(t) == want, t

    @pytest.mark.timebound
    def test_primes_read_off_the_degrees_at_large_rank(self):
        # |W(A20000)| = 20001! is never formed: its primes are the degrees'
        start = time.perf_counter()
        got = excluded_characteristics(CartanType("A", 20000), "flip")
        assert time.perf_counter() - start < 0.5
        sieve = bytearray([0, 0]) + bytearray([1]) * 20000
        for p in range(2, 142):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(sieve[p * p::p]))
        assert got == tuple(p for p, prime in enumerate(sieve) if prime)


class TestBruteForceOracle:
    def test_trivial_group_counts_monomials(self):
        g = FiniteMatrixGroup(2, [identity_matrix(2)])
        dims = brute_force_invariant_dims(g, 8)
        assert dims[(0, 3)] == 4  # all degree-3 monomials in two variables
        assert dims[(1, 1)] == 4
        assert dims[(2, 0)] == 1

    def test_sign_group_on_line(self):
        g = FiniteMatrixGroup(1, [((1,),), ((-1,),)])
        dims = brute_force_invariant_dims(g, 8)
        assert dims[(1, 1)] == 1  # x*y survives: x -> -x, y -> -y
        assert dims[(1, 0)] == 0
        assert dims[(0, 2)] == 1

    def test_guards(self):
        for dim in (4, 5):
            g = FiniteMatrixGroup(dim, [identity_matrix(dim)])
            with pytest.raises(ValueError):
                brute_force_invariant_dims(g, 4)
        g2 = FiniteMatrixGroup(2, [identity_matrix(2)])
        with pytest.raises(ValueError):
            brute_force_invariant_dims(g2, 13)

    def test_a2_identity_matches_molien(self, monkeypatch):
        # the joint fixed spaces are found in integers, by fraction-free
        # elimination: no Fraction kernel is formed
        from twistloop import oracle

        def refuse(m):
            raise AssertionError("a Fraction kernel formed for a fixed space")

        rs = build_root_system(CartanType("A", 2))
        g = WeylPermutationGroup(rs).to_matrix_group()
        monkeypatch.setattr(oracle, "kernel_basis", refuse)
        dims = brute_force_invariant_dims(g, 10)
        rpt = compute(TwistSpec(CartanType("A", 2), truncation=30))
        for (a, b), c in dims.coefficients.items():
            assert rpt.bigraded[(a, b)] == c
        for (a, b), c in rpt.bigraded.coefficients.items():
            if a + 2 * b <= 10:
                assert dims[(a, b)] == c


class TestCompute:
    def test_a1_identity_series(self):
        rpt = compute(TwistSpec(CartanType("A", 1)))
        assert rpt.series == product_over_degrees([2], 50)
        assert rpt.closed_form == ClosedForm((3,), (4,))
        assert rpt.excluded_characteristics == (2,)

    def test_series_invariants(self):
        rpt = compute(TwistSpec(CartanType("B", 3)))
        assert rpt.series[0] == 1
        assert all(c >= 0 for c in rpt.series)
        assert len(rpt.series) == 51

    def test_run_oracle_flag(self):
        rpt = compute(TwistSpec(CartanType("A", 3), "flip", run_oracle=True))
        assert any(n.startswith("oracle: brute-force") for n in rpt.notes)

    @pytest.mark.timebound
    def test_oracle_skips_above_guard(self):
        # in dimension 4 the brute-force count ran past 40 s on D5 flip and A4
        for family, rank, tag, dim in [("B", 5, "identity", 5), ("D", 5, "flip", 4),
                                       ("A", 4, "identity", 4)]:
            start = time.time()
            rpt = compute(TwistSpec(CartanType(family, rank), tag, run_oracle=True,
                                    truncation=50))
            assert time.time() - start < 5
            assert f"oracle skipped: restricted dimension {dim} exceeds 3" in rpt.notes

    def test_e8_identity_table_path(self):
        rpt = compute(TwistSpec(CartanType("E", 8)))
        assert rpt.series == product_over_degrees(degrees(CartanType("E", 8)), 50)
        assert rpt.closed_form.y_degrees == (4, 16, 24, 28, 36, 40, 48, 60)
        assert rpt.orbit_criterion.orbit_count == 240
        assert any("degree table" in n for n in rpt.notes)

    def test_cap_error(self):
        from twistloop.weyl import GroupTooLargeError
        with pytest.raises(GroupTooLargeError):
            compute(TwistSpec(CartanType("A", 11)))

    def test_small_cap_respected(self, monkeypatch):
        from twistloop.weyl import GroupTooLargeError
        # compute() reads the cap when it is called
        monkeypatch.setattr(twistloop.weyl, "DEFAULT_ELEMENT_CAP", 10)
        with pytest.raises(GroupTooLargeError, match="has order 24, past the element cap 10$"):
            compute(TwistSpec(CartanType("A", 3)))

    def test_pipeline_never_loads_the_oracle(self):
        # the package resolves 8 of the oracle's names on first use and
        # leaves them out of __all__: a star import, done first, then a
        # triality, a flip, an identity and the E8 table route load no
        # reference, and each name then is the oracle's own object; -S
        # keeps site hooks out
        star = ("import sys; from twistloop import *; import twistloop; "
                "print('twistloop.oracle' in sys.modules, "
                "all(n in globals() for n in twistloop.__all__))")
        src = os.path.dirname(os.path.dirname(twistloop.__file__))
        out = subprocess.run([sys.executable, "-S", "-c", star], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout == "False True\n"
        code = ("import sys, twistloop; "
                "[twistloop.compute(twistloop.TwistSpec(twistloop.CartanType(f, r), a)) "
                "for f, r, a in (('D', 4, 'triality'), ('E', 6, 'flip'), "
                "('B', 3, 'identity'), ('E', 8, 'identity'))]; "
                "print('twistloop.oracle' in sys.modules); "
                "names = ('RootSystem', 'build_root_system', 'DiagramAutomorphism', "
                "'FoldingResult', 'folded_root_system', 'make_automorphism', "
                "'project_roots', 'steinberg_rows'); "
                "lazy = [getattr(twistloop, n) for n in names]; "
                "import twistloop.oracle as oracle; "
                "print(all(x is getattr(oracle, n) for x, n in zip(lazy, names)), "
                "[n for n in names if n in vars(twistloop)]); "
                "from twistloop import *; "
                "print(all(n in globals() for n in twistloop.__all__))")
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout == "False\nTrue []\nTrue\n"

    def test_pipeline_never_loads_dataclasses_inspect_or_typing(self):
        # the records are plain slotted classes, to_json() writes the
        # report itself, and the pipeline's scalars are ints, so neither
        # fractions nor the decimal it loads comes in; -S keeps site hooks
        # out, and only modules new since before the import count, in case
        # something still preloads one.  E8 takes the table route.
        code = ("import sys; before = set(sys.modules); import twistloop; "
                "[twistloop.compute(twistloop.TwistSpec(twistloop.CartanType(f, r), a)) "
                "for f, r, a in (('D', 4, 'triality'), ('E', 6, 'flip'), "
                "('B', 3, 'identity'), ('E', 8, 'identity'))]; "
                "print(sorted({'dataclasses', 'inspect', 'typing', 'json', 'fractions', "
                "'decimal'} & (set(sys.modules) - before)))")
        src = os.path.dirname(os.path.dirname(twistloop.__file__))
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout == "[]\n"

    def test_json_output_never_loads_json(self):
        # to_json() writes the report itself, so a --format json run leaves
        # json out of sys.modules; -S keeps site hooks out
        code = ("import sys; from twistloop.cli import main; "
                "code = main(['--type', 'E', '--rank', '6', '--auto', 'flip', "
                "'--format', 'json']); print('json' in sys.modules, code, file=sys.stderr)")
        src = os.path.dirname(os.path.dirname(twistloop.__file__))
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stderr == "False 0\n"
        rpt = compute(TwistSpec(CartanType("E", 6), "flip"))
        assert out.stdout == rpt.to_json() + "\n"
        assert read_json(out.stdout[:-1])["folded_type"] == "F4"

    def test_explicit_permutation_echo(self):
        rpt = compute(TwistSpec(CartanType("A", 3), (2, 1, 0)))
        assert rpt.automorphism == "perm=3,2,1"
        assert rpt.folded_type == CartanType("C", 2)


class TestDeterminism:
    def test_byte_identical_reports(self):
        a = compute(TwistSpec(CartanType("C", 2), "identity"))
        b = compute(TwistSpec(CartanType("C", 2), "identity"))
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_workers_do_not_change_output(self):
        a = compute(TwistSpec(CartanType("D", 4), "triality", workers=1))
        b = compute(TwistSpec(CartanType("D", 4), "triality", workers=8))
        assert a.to_json() == b.to_json()


class TestJsonSchema:
    def test_field_order_and_content(self):
        rpt = compute(TwistSpec(CartanType("D", 4), "triality"))
        d = read_json(rpt.to_json())
        assert list(d.keys()) == ["input", "folded_type", "orbit_criterion",
                                  "wsigma", "series", "closed_form",
                                  "excluded_characteristics", "notes"]
        # the members' order inside each object, which dict equality ignores
        assert list(d["input"].items()) == [("type", "D"), ("rank", 4),
                                            ("automorphism", "triality"), ("truncation", 50)]
        assert d["folded_type"] == "G2"
        assert list(d["orbit_criterion"].items()) == [("orbits", 12), ("folded_roots", 12),
                                                      ("holds", True)]
        assert list(d["wsigma"].items()) == [("order", 12), ("restricted_order", 12),
                                             ("preserves_folded", True)]
        assert d["series"] == list(product_over_degrees([2, 6], 50))
        assert list(d["closed_form"].items()) == [("x_degrees", [3, 11]),
                                                  ("y_degrees", [4, 12])]
        assert d["excluded_characteristics"] == [2, 3]
        assert all(isinstance(n, str) for n in d["notes"])

    def test_closed_form_null_when_unrecognized(self):
        # degrees {2} need truncation >= 2*4+1 = 9 before recognition may run
        rpt = compute(TwistSpec(CartanType("A", 1), truncation=8))
        d = read_json(rpt.to_json())
        assert d["closed_form"] is None
        assert any("truncation too small" in n for n in rpt.notes)

    def test_json_is_the_indented_dump_on_every_golden_case(self):
        # null closed forms, truncations 0 and 1, perm= spellings, the E8
        # table route and the longest series among them
        from test_golden_reports import golden_reports

        reports = golden_reports()
        assert {"A1 identity T0", "A3 perm=3,2,1 T50", "F4 identity T10000"} <= set(reports)
        assert any(rpt.closed_form is None for rpt in reports.values())
        for name, rpt in reports.items():
            d = read_json(rpt.to_json())
            assert (d["series"], d["notes"]) == (list(rpt.series), list(rpt.notes)), name

    @pytest.mark.parametrize("notes,excluded,series,closed", [
        ((), (), (1, 0, 1), ClosedForm((3,), (4,))),
        (('say "twisted"', "a\\b", "caf\u00e9 \u03c3 \u2192 W^\u03c3", "\U0001d54e"),
         (2,), (), None),
        (("",), (2, 3, 5), (1,), ClosedForm((), ())),
    ])
    def test_json_layout_of_a_built_report(self, notes, excluded, series, closed):
        # empty lists come out as [], and the notes go through the escapes
        base = compute(TwistSpec(CartanType("A", 2), "flip"))
        rpt = TwistReport(base.cartan_type, "perm=2,1", 0, base.folded_type,
                          base.orbit_criterion, base.positive_orbit_sizes, 6, 6, False,
                          series, closed, excluded, notes)
        d = read_json(rpt.to_json())
        assert d["input"]["automorphism"] == "perm=2,1"
        assert d["wsigma"] == {"order": 6, "restricted_order": 6, "preserves_folded": False}
        assert d["series"] == list(series)
        assert d["closed_form"] == (None if closed is None else {
            "x_degrees": list(closed.x_degrees), "y_degrees": list(closed.y_degrees)})
        assert d["excluded_characteristics"] == list(excluded)
        assert d["notes"] == list(notes)

    def test_strings_are_escaped_as_json_does(self):
        from twistloop.report import _json_str

        samples = ['"', "\\", "\b\f\n\r\t", "".join(map(chr, range(32))), "\x7f",
                   "plain ASCII ~ text", "caf\u00e9", "\u00ff\u0100\u07ff\u0800\uffff",
                   "\U0001d54e and \U0010ffff", "\ud800 lone", 'mixed "q" \\ \u00e9\n\U0001f600']
        for text in samples + ["".join(samples), "".join(map(chr, range(0x2100)))]:
            assert _json_str(text) == json.dumps(text), repr(text)

    @pytest.mark.parametrize("values", [
        [], [7], [0], [-1, 0, -25, 3], [10**399 + 1, -(10**399)], list(range(-5000, 5001))],
        ids=["empty", "one", "zero", "negative", "400-digit", "10001"])
    def test_int_lists_are_laid_out_as_json_does(self, values):
        # one %d template, at the top level and nested as the report nests them
        from twistloop.report import _json_list

        assert _json_list(tuple(values), 2) == json.dumps(values, indent=2)
        nested = json.dumps({"series": values}, indent=2)
        assert nested == '{\n  "series": ' + _json_list(values, 4) + "\n}"
        strings = [f"note {v}" for v in values[:50]]
        assert _json_list(tuple(map(json.dumps, strings)), 2, "%s") == \
            json.dumps(strings, indent=2)


class TestCli:
    def test_triality_json(self, capsys):
        code = main(["--type", "D", "--rank", "4", "--auto", "triality",
                     "--format", "json"])
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert d["folded_type"] == "G2"

    def test_e8_identity_table(self, capsys):
        code = main(["--type", "E", "--rank", "8", "--auto", "identity"])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed form" in out

    def test_e8_flip_is_input_error(self, capsys):
        assert main(["--type", "E", "--rank", "8", "--auto", "flip"]) == 1

    def test_cap_exit_code(self, capsys):
        assert main(["--type", "A", "--rank", "11", "--auto", "identity"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["--type", "A", "--rank", "2", "--bogus"]) == 1

    def test_bad_rank(self, capsys):
        assert main(["--type", "G", "--rank", "5"]) == 1

    @pytest.mark.parametrize("family,rank,perm", [("A", -3, "perm=1"), ("E", 5, "perm=1,2")])
    def test_bad_rank_is_reported_before_the_twist(self, capsys, family, rank, perm):
        assert main(["--type", family, "--rank", str(rank), "--auto", perm]) == 1
        assert capsys.readouterr().err == \
            f"error: rank {rank} out of range for family {family}\n"

    def test_bad_auto(self, capsys):
        # the CLI passes a tag on as it is: the folding table refuses it
        # with compute()'s own message
        assert main(["--type", "A", "--rank", "3", "--auto", "twist"]) == 1
        assert capsys.readouterr().err == "error: unknown automorphism spec 'twist'\n"

    def test_negative_truncation(self, capsys):
        assert main(["--type", "A", "--rank", "2", "--truncate", "-1"]) == 1

    @pytest.mark.parametrize("perm,message", [
        ("perm=3,2", "permutation has 2 images, expected one per simple node (3)"),
        ("perm=4,2,1", "permutation image 4 out of range 1..3"),
        ("perm=0,1,2", "permutation image 0 out of range 1..3"),
        ("perm=1,1,3", "permutation is not a bijection: 1 named more than once"),
    ])
    def test_bad_perm_messages(self, capsys, perm, message):
        assert main(["--type", "A", "--rank", "3", "--auto", perm]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unsupported_permutation_order(self, capsys):
        # a 5-cycle and a 7-cycle: order 35, read from the cycle lengths
        images = [2, 3, 4, 5, 1, 7, 8, 9, 10, 11, 12, 6]
        auto = "perm=" + ",".join(map(str, images))
        assert main(["--type", "A", "--rank", "12", "--auto", auto]) == 1
        assert capsys.readouterr().err == ("error: permutation of order 35 is not a "
                                           "supported diagram symmetry\n")

    def test_perm_flag(self, capsys):
        code = main(["--type", "A", "--rank", "3", "--auto", "perm=3,2,1",
                     "--format", "json"])
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert d["folded_type"] == "C2"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["--type", "A", "--rank", "2", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        d = json.loads(target.read_text())
        assert d["input"]["type"] == "A"

    def test_out_to_an_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["--type", "A", "--rank", "2", "--out", str(target)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot write {str(target)!r}: No such file or directory\n"
        assert not target.parent.exists()

    def test_out_to_an_empty_path(self, capsys):
        # an empty path is a path that cannot be written, not a request for stdout
        assert main(["--type", "A", "--rank", "3", "--out", ""]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: cannot write '': No such file or directory\n"

    def test_check_flag_runs_oracle(self, capsys):
        code = main(["--type", "A", "--rank", "3", "--auto", "flip", "--check",
                     "--format", "json"])
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert any(n.startswith("oracle:") for n in d["notes"])

    def test_subprocess_byte_stability(self):
        cmd = [sys.executable, "-m", "twistloop", "--type", "D", "--rank", "4",
               "--auto", "triality", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True, env=src_env()).stdout
        second = subprocess.run(cmd, capture_output=True, check=True, env=src_env()).stdout
        assert first == second


def _refuse_walk(patch):
    """Make the walk of a twist's rows, their match to a Cartan matrix, in
    the oracle, and a tag's node permutation raise, through a monkeypatch
    or its context: compute() reads every twist's rows off the folded
    Cartan matrix."""
    from twistloop import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("rows walked or matched, or a tag's permutation formed")

    for name in ("steinberg_rows", "_match_cartan", "_rows_cartan", "simple_perm_for_tag"):
        patch.setattr(oracle, name, refuse)


def _refuse_roots(patch, refuse):
    """Make the root closure and the root system, in the oracle, raise."""
    from twistloop import oracle

    patch.setattr(oracle, "_closure", refuse)
    patch.setattr(oracle, "RootSystem", refuse)


class TestLimits:
    """Resource limits bind before any work: the cap on |W^sigma| from the
    type alone, the two knobs when the spec is made."""

    @pytest.mark.timebound
    def test_a60_rejected_at_once(self):
        start = time.time()
        proc = subprocess.run([sys.executable, "-m", "twistloop", "--type", "A",
                               "--rank", "60"], capture_output=True, text=True,
                              env=src_env())
        assert time.time() - start < 1
        assert proc.returncode == 2
        assert proc.stderr.startswith("resource cap: W^sigma, the Weyl group of the "
                                      "folded type A60, has order ")

    def test_cap_applies_to_the_folded_group(self, capsys):
        # |W(A10)| = 39916800 is past the cap; W^sigma = W(B5) has 3840 elements
        assert main(["--type", "A", "--rank", "10", "--auto", "flip",
                     "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["folded_type"] == "B5"
        assert d["wsigma"]["order"] == 3840
        assert d["closed_form"]["y_degrees"] == [4, 8, 12, 16, 20]
        assert d["series"] == list(expected_series((2, 4, 6, 8, 10)))

    def test_folded_group_past_the_cap(self, capsys):
        # A15 flip folds to C8, of order 10321920
        assert main(["--type", "A", "--rank", "15", "--auto", "flip"]) == 2
        assert "folded type C8, has order 10321920" in capsys.readouterr().err

    @pytest.mark.parametrize("family,rank,tag", [
        ("A", 12, "identity"), ("B", 10, "identity"), ("C", 11, "identity"),
        ("D", 12, "flip"), ("A", 18, "flip")])
    def test_over_cap_rejects_build_no_roots(self, family, rank, tag, monkeypatch, capsys):
        from twistloop import oracle, rootsys, twist
        from twistloop.weyl import GroupTooLargeError

        def refuse(*args, **kwargs):
            raise AssertionError("roots built for a spec past the cap")

        t = CartanType(family, rank)
        perm = oracle.simple_perm_for_tag(t, tag)
        _refuse_roots(monkeypatch, refuse)
        monkeypatch.setattr(rootsys, "cartan_matrix", refuse)
        monkeypatch.setattr(twist, "cartan_matrix", refuse)
        for spec in (tag, perm):
            with pytest.raises(GroupTooLargeError):
                compute(TwistSpec(t, spec))
        for auto in (tag, "perm=" + ",".join(str(i + 1) for i in perm)):
            assert main(["--type", family, "--rank", str(rank), "--auto", auto]) == 2
            assert capsys.readouterr().err.startswith("resource cap: ")

    @pytest.mark.parametrize("family,rank", SOLOMON_TYPES + [("E", 8)])
    def test_identity_route_builds_no_roots(self, family, rank, monkeypatch, capsys):
        # an identity twist, by tag or by perm=, reads its rows off the
        # Cartan matrix, with no walk and no match, and its root counts off
        # the type
        from twistloop.rootsys import root_count, weyl_order

        def refuse(*args, **kwargs):
            raise AssertionError("roots built for an identity twist")

        t = CartanType(family, rank)
        _refuse_roots(monkeypatch, refuse)
        _refuse_walk(monkeypatch)
        n = root_count(t)
        for auto in ("identity", tuple(range(rank))):
            rpt = compute(TwistSpec(t, auto))
            crit = rpt.orbit_criterion
            assert (crit.orbit_count, crit.folded_root_count, crit.holds) == (n, n, True)
            assert rpt.positive_orbit_sizes == (1,) * (n // 2)
            assert rpt.folded_type == t
            assert rpt.stabilizer_order == weyl_order(t)
            assert rpt.series == expected_series(degrees(t))
        perm = "perm=" + ",".join(str(i + 1) for i in range(rank))
        assert main(["--type", family, "--rank", str(rank), "--auto", perm]) == 0
        assert capsys.readouterr().out == rpt.to_text()

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
    def test_identity_oracle_still_computes(self, family, rank):
        # --check takes W^sigma from the enumerated Weyl group, so it builds
        # the roots the identity route leaves out
        for auto in ("identity", tuple(range(rank))):
            rpt = compute(TwistSpec(CartanType(family, rank), auto, truncation=6,
                                    run_oracle=True))
            assert rpt.notes[-1] == ("oracle: brute-force invariant dimensions "
                                     "match the series through total degree 6")

    @pytest.mark.parametrize("family,rank,tag",
                             [("D", n, "flip") for n in D_FLIP_RANKS] +
                             [("A", r, "flip") for r in A_FLIP_RANKS] +
                             [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
    def test_twisted_route_forms_no_negative_root(self, family, rank, tag, monkeypatch,
                                                  capsys):
        # a twist, by tag, by perm= or on the command line, builds no root
        # at all and walks and matches no row: its rows are read off the
        # folded Cartan matrix, the tag forms no node permutation, and its
        # orbit sizes and root counts are read off the types
        from twistloop import oracle

        def refuse(*args, **kwargs):
            raise AssertionError("roots built on the twisted route")

        t = CartanType(family, rank)
        perm = oracle.simple_perm_for_tag(t, tag)
        with monkeypatch.context() as m:
            _refuse_roots(m, refuse)
            _refuse_walk(m)
            reports = [compute(TwistSpec(t, auto)) for auto in (tag, perm)]
            for auto, rpt in zip((tag, "perm=" + ",".join(str(i + 1) for i in perm)),
                                 reports):
                assert main(["--type", family, "--rank", str(rank), "--auto", auto]) == 0
                assert capsys.readouterr().out == rpt.to_text()
        aut = oracle.make_automorphism(build_root_system(t), tag)
        for rpt in reports:
            assert rpt.positive_orbit_sizes == oracle.positive_orbit_sizes(aut)
            assert rpt.orbit_criterion.orbit_count == 2 * len(oracle.project_roots(aut))

    @pytest.mark.parametrize("family,rank,tag", [("A", 3, "flip"), ("A", 4, "flip"),
                                                 ("D", 4, "triality")])
    def test_twisted_oracle_still_computes(self, family, rank, tag):
        # --check's references read the whole root system
        rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=6,
                                run_oracle=True))
        assert rpt.notes[-1] == ("oracle: brute-force invariant dimensions "
                                 "match the series through total degree 6")

    @pytest.mark.timebound
    @pytest.mark.parametrize("family,rank,tag", [
        ("A", 1700, "identity"), ("A", 3000, "flip"), ("B", 3000, "identity"),
        ("D", 3000, "flip"), ("A", 10**6, "identity"), ("A", 10**6, "flip"),
        ("A", 10**12, "identity"), ("A", 10**12, "flip")])
    def test_large_ranks_rejected_at_once(self, family, rank, tag, capsys):
        # the exact orders have 4,300 digits and more, past what str() of an
        # int may print; the cap stops reading degrees once it is passed, and
        # a tag is checked without building the twist's node permutation
        from twistloop.weyl import GroupTooLargeError

        spec = TwistSpec(CartanType(family, rank), tag)
        start = time.perf_counter()
        with pytest.raises(GroupTooLargeError, match=r"has order at least \d+, past"):
            compute(spec)
        assert time.perf_counter() - start < 0.05
        assert main(["--type", family, "--rank", str(rank), "--auto", tag]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("resource cap: ")

    @pytest.mark.timebound
    def test_a_tag_without_the_twist_is_refused_at_once(self, capsys):
        spec = TwistSpec(CartanType("A", 10**6), "triality")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^triality exists only for D4$"):
            compute(spec)
        assert time.perf_counter() - start < 0.05
        assert main(["--type", "A", "--rank", str(10**6), "--auto", "triality"]) == 1
        assert capsys.readouterr().err == "error: triality exists only for D4\n"

    def test_element_cap_implies_the_one_byte_limit(self):
        # every spec admitted under the default cap has at most
        # MAX_BYTE_ROOTS roots, so the oracle's byte permutations encode
        # the roots of every admitted case.  |W^sigma| grows with the rank
        # in every family and twist, so the ranks are walked until it passes
        # the cap, which happens well below the walk's bound of 40.
        from twistloop.oracle import MAX_BYTE_ROOTS
        from twistloop.rootsys import _RANK_BOUNDS, FAMILIES, root_count, weyl_order
        from twistloop.twist import AUTOMORPHISM_TAGS, expected_folded_type
        from twistloop.weyl import DEFAULT_ELEMENT_CAP

        admitted = {}
        for family in FAMILIES:
            lo, hi = _RANK_BOUNDS[family]
            for tag in AUTOMORPHISM_TAGS:
                for rank in range(lo, (hi or 40) + 1):
                    t = CartanType(family, rank)
                    try:
                        expected_folded_type(t, tag)
                    except ValueError:  # no such twist of this type
                        continue
                    if t == CartanType("E", 8):
                        # the table route walks no generators, and its
                        # 240 roots fit one byte anyway
                        assert root_count(t) <= MAX_BYTE_ROOTS
                        continue
                    if weyl_order(expected_folded_type(t, tag)) > DEFAULT_ELEMENT_CAP:
                        break
                    admitted[(family, rank, tag)] = root_count(t)
        assert max(rank for _, rank, _ in admitted) < 40
        assert max(admitted.values()) <= MAX_BYTE_ROOTS
        assert max(admitted, key=admitted.get) == ("A", 14, "flip")
        assert admitted[("A", 14, "flip")] == 210

    def test_root_count_not_capped(self, monkeypatch):
        # A16 has 272 roots, past one byte: with the element cap raised past
        # W(B8) for its flip and past W(A16) = 17! for the identity, both
        # compute the product over the folded degrees
        from twistloop.oracle import MAX_BYTE_ROOTS
        from twistloop.rootsys import root_count

        t = CartanType("A", 16)
        assert root_count(t) == 272 > MAX_BYTE_ROOTS
        for cap, tag in ((10**8, "flip"), (10**15, "identity")):
            monkeypatch.setattr(twistloop.weyl, "DEFAULT_ELEMENT_CAP", cap)
            rpt = compute(TwistSpec(t, tag))
            assert rpt.series == product_over_degrees(degrees(rpt.folded_type),
                                                      rpt.truncation)

    @pytest.mark.parametrize("flags,message", [
        (["--auto", "perm=1,2"], "permutation has 2 images"),
        (["--auto", "perm=" + ",".join(map(str, [2, 1] + list(range(3, 61))))],
         "permutation does not preserve the Cartan matrix"),
        (["--truncate", str(MAX_TRUNCATION + 1)], "truncation must be at most"),
        (["--workers", str(MAX_WORKERS + 1)], "workers must be at most"),
        (["--auto", "twist"], "unknown automorphism spec 'twist'"),
    ])
    def test_malformed_input_before_the_cap(self, capsys, flags, message):
        assert main(["--type", "A", "--rank", "60"] + flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_truncation_bound(self, capsys):
        rpt = compute(TwistSpec(CartanType("A", 1), truncation=MAX_TRUNCATION))
        assert len(rpt.series) == MAX_TRUNCATION + 1
        assert rpt.series == product_over_degrees([2], MAX_TRUNCATION)
        with pytest.raises(ValueError, match="truncation must be at most 10000"):
            TwistSpec(CartanType("A", 1), truncation=MAX_TRUNCATION + 1)
        assert main(["--type", "A", "--rank", "1", "--truncate", "10001"]) == 1
        assert capsys.readouterr().err == "error: truncation must be at most 10000\n"

    def test_workers_bound_starts_nothing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread or process was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        threads = threading.active_count()
        at_bound = compute(TwistSpec(CartanType("A", 2), workers=MAX_WORKERS))
        assert at_bound.to_json() == compute(TwistSpec(CartanType("A", 2))).to_json()
        with pytest.raises(ValueError, match="workers must be at most 64"):
            TwistSpec(CartanType("A", 2), workers=MAX_WORKERS + 1)
        assert main(["--type", "A", "--rank", "2", "--workers", "65"]) == 1
        assert capsys.readouterr().err == "error: workers must be at most 64\n"
        assert threading.active_count() == threads
