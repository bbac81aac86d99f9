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
                              brute_force_invariant_dims, collapse_to_cohomological,
                              identity_matrix,
                              recognize_closed_form)
from twistloop.report import (MAX_TRUNCATION, MAX_WORKERS, ClosedForm, TwistReport,
                              TwistSpec, _closed_form_or_note, compute,
                              excluded_characteristics)
from twistloop.rootsys import CartanType, build_root_system, degrees

from conftest import cached_report
from test_acceptance import A_FLIP_RANKS, D_FLIP_RANKS, SOLOMON_TYPES, expected_series

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment of a child interpreter that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


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
        for rpt in reports:
            if rpt.cartan_type == CartanType("E", 8):
                assert rpt.bigraded is None  # the table route has none
                continue
            want = solomon_series(degrees(rpt.folded_type), rpt.truncation)
            assert rpt.bigraded == want
            assert rpt.bigraded is rpt.bigraded  # expanded once, then kept
            assert collapse_to_cohomological(rpt.bigraded) == rpt.series

    def test_bigraded_stays_a_read_only_hidden_field(self):
        rpt = compute(TwistSpec(CartanType("G", 2)))
        with pytest.raises(AttributeError):
            rpt.bigraded = None
        assert rpt == cached_report("G", 2) and "bigraded" not in repr(rpt)
        assert TwistReport.__slots__[-1] == "bigraded"

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
        assert rpt.to_json() == json.dumps(rpt.to_json_dict(), indent=2)


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
        import twistloop.report
        import twistloop.rootsys
        import twistloop.twist

        def refuse(*args, **kwargs):
            raise AssertionError("root system built for the excluded primes")

        for module in (twistloop.report, twistloop.rootsys):
            monkeypatch.setattr(module, "build_root_system", refuse)
        # twist does not import the builder; every build goes through
        # the RootSystem constructor
        assert not hasattr(twistloop.twist, "build_root_system")
        monkeypatch.setattr(twistloop.rootsys.RootSystem, "__init__", refuse)
        assert excluded_characteristics(CartanType("D", 4), "triality") == (2, 3)
        assert excluded_characteristics(CartanType("A", 5), (4, 3, 2, 1, 0)) == (2, 3, 5)

    def test_a6_has_factorial_primes(self):
        # |W(A6)| = 7!: primes 2, 3, 5, 7
        assert excluded_characteristics(CartanType("A", 6), "flip") == (2, 3, 5, 7)


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

    def test_a2_identity_matches_molien(self):
        rs = build_root_system(CartanType("A", 2))
        g = WeylPermutationGroup(rs).to_matrix_group()
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

    def test_small_cap_respected(self):
        from twistloop.weyl import GroupTooLargeError
        with pytest.raises(GroupTooLargeError):
            compute(TwistSpec(CartanType("A", 3), element_cap=10))

    def test_pipeline_never_loads_the_oracle(self):
        code = ("import sys, twistloop; twistloop.compute(twistloop.TwistSpec("
                "twistloop.CartanType('D', 4), 'triality')); "
                "print('twistloop.oracle' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=src_env())
        assert out.stdout == "False\n"

    def test_pipeline_never_loads_dataclasses_inspect_or_typing(self):
        # the records are plain slotted classes, json is imported by
        # to_json(), and the pipeline's scalars are ints, so neither
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
        d = rpt.to_json_dict()
        assert list(d.keys()) == ["input", "folded_type", "orbit_criterion",
                                  "wsigma", "series", "closed_form",
                                  "excluded_characteristics", "notes"]
        assert d["input"] == {"type": "D", "rank": 4,
                              "automorphism": "triality", "truncation": 50}
        assert d["folded_type"] == "G2"
        assert d["orbit_criterion"] == {"orbits": 12, "folded_roots": 12, "holds": True}
        assert d["wsigma"] == {"order": 12, "restricted_order": 12,
                               "preserves_folded": True}
        assert d["series"] == list(product_over_degrees([2, 6], 50))
        assert d["closed_form"] == {"x_degrees": [3, 11], "y_degrees": [4, 12]}
        assert d["excluded_characteristics"] == [2, 3]
        assert all(isinstance(n, str) for n in d["notes"])

    def test_closed_form_null_when_unrecognized(self):
        # degrees {2} need truncation >= 2*4+1 = 9 before recognition may run
        rpt = compute(TwistSpec(CartanType("A", 1), truncation=8))
        d = rpt.to_json_dict()
        assert d["closed_form"] is None
        assert any("truncation too small" in n for n in rpt.notes)


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

    def test_bad_auto(self, capsys):
        assert main(["--type", "A", "--rank", "3", "--auto", "twist"]) == 1

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
        assert out.err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

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


class TestLimits:
    """Resource limits bind before any work: the cap on |W^sigma| and the
    root count from the type alone, the two knobs when the spec is made."""

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
        from twistloop import rootsys, twist
        from twistloop.weyl import GroupTooLargeError

        def refuse(*args, **kwargs):
            raise AssertionError("roots built for a spec past the cap")

        t = CartanType(family, rank)
        perm, _ = twist.resolve_twist(t, tag)
        monkeypatch.setattr(rootsys, "_closure", refuse)
        monkeypatch.setattr(twist, "_closure", refuse)
        monkeypatch.setattr(rootsys, "RootSystem", refuse)
        monkeypatch.setattr(rootsys, "simple_gram", refuse)
        monkeypatch.setattr(rootsys, "cartan_matrix", refuse)
        monkeypatch.setattr(twist, "cartan_matrix", refuse)
        for spec in (tag, perm):
            with pytest.raises(GroupTooLargeError):
                compute(TwistSpec(t, spec))
        for auto in (tag, "perm=" + ",".join(str(i + 1) for i in perm)):
            assert main(["--type", family, "--rank", str(rank), "--auto", auto]) == 2
            assert capsys.readouterr().err.startswith("resource cap: ")

    @pytest.mark.parametrize("family,rank,tag", [
        ("A", 1700, "identity"), ("A", 3000, "flip"), ("B", 3000, "identity"),
        ("D", 3000, "flip")])
    def test_large_ranks_rejected_at_once(self, family, rank, tag, capsys):
        # the exact orders have 4,300 digits and more, past what str() of an
        # int may print; the cap stops multiplying degrees once it is passed
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

    def test_element_cap_implies_the_one_byte_limit(self):
        # every spec admitted under the default cap has at most MAX_ROOTS
        # roots, so the up-front root-cap reject binds only when
        # element_cap is raised.  |W^sigma| grows with the rank in every
        # family and twist, so the ranks are walked until it passes the cap,
        # which happens well below the walk's bound of 40.
        from twistloop.rootsys import _RANK_BOUNDS, FAMILIES, root_count, weyl_order
        from twistloop.twist import AUTOMORPHISM_TAGS, expected_folded_type, resolve_twist
        from twistloop.weyl import DEFAULT_ELEMENT_CAP, MAX_ROOTS

        admitted = {}
        for family in FAMILIES:
            lo, hi = _RANK_BOUNDS[family]
            for tag in AUTOMORPHISM_TAGS:
                for rank in range(lo, (hi or 40) + 1):
                    t = CartanType(family, rank)
                    try:
                        resolve_twist(t, tag)
                    except ValueError:  # no such twist of this type
                        continue
                    if t == CartanType("E", 8):
                        # the table route walks no generators, and its
                        # 240 roots are within the cap anyway
                        assert root_count(t) <= MAX_ROOTS
                        continue
                    if weyl_order(expected_folded_type(t, tag)) > DEFAULT_ELEMENT_CAP:
                        break
                    admitted[(family, rank, tag)] = root_count(t)
        assert max(rank for _, rank, _ in admitted) < 40
        assert max(admitted.values()) <= MAX_ROOTS
        assert max(admitted, key=admitted.get) == ("A", 14, "flip")
        assert admitted[("A", 14, "flip")] == 210

    def test_root_count_checked_up_front(self):
        from twistloop.weyl import GroupTooLargeError
        # W^sigma = W(B8) fits a raised cap, but A16 has 272 roots
        with pytest.raises(GroupTooLargeError, match="272 roots"):
            compute(TwistSpec(CartanType("A", 16), "flip", element_cap=10**8))

    @pytest.mark.parametrize("flags,message", [
        (["--auto", "perm=1,2"], "permutation has 2 images"),
        (["--auto", "perm=" + ",".join(map(str, [2, 1] + list(range(3, 61))))],
         "permutation does not preserve the Cartan matrix"),
        (["--truncate", str(MAX_TRUNCATION + 1)], "truncation must be at most"),
        (["--workers", str(MAX_WORKERS + 1)], "workers must be at most"),
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
