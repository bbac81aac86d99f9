"""Tests of the benchmark's own parts: the expansion oracle, the seeded
generator, the outcome check and the self-time arithmetic.

Run with: python3 -m pytest -q perfbench
"""

import itertools

import cases
import run
import spans


def naive_series(degrees, truncation):
    """prod (1+u^(2d-1)) * prod sum_k u^(2dk), multiplied out term by term."""
    out = [1] + [0] * truncation
    for d in degrees:
        factor = [0] * (truncation + 1)
        for k in range(0, truncation + 1, 2 * d):
            factor[k] += 1
            if k + 2 * d - 1 <= truncation:
                factor[k + 2 * d - 1] += 1
        out = [sum(out[i] * factor[n - i] for i in range(n + 1))
               for n in range(truncation + 1)]
    return out


def test_expansion_known_series():
    # G2: (1+u^3)(1+u^11) / ((1-u^4)(1-u^12))
    assert cases.expected_series((2, 6), 15) == [1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 2,
                                                 2, 0, 1, 3]
    # F4: degrees 2, 6, 8, 12
    assert cases.expected_series((2, 6, 8, 12), 12) == [1, 0, 0, 1, 1, 0, 0, 1, 1, 0,
                                                        0, 2, 2]
    for degrees in [(2, 6), (2, 6, 8, 12), (2, 4, 6, 8)]:
        assert cases.expected_series(degrees, 80) == naive_series(degrees, 80)


def test_folding_table_and_spelling():
    assert cases.folded_type("A", 7, "flip") == ("C", 4)
    assert cases.folded_type("A", 18, "flip") == ("B", 9)
    assert cases.folded_type("D", 6, "flip") == ("B", 5)
    assert cases.folded_type("E", 6, "flip") == ("F", 4)
    assert cases.folded_type("D", 4, "triality2") == ("G", 2)
    assert cases.perm_spelling("E", 6, "flip") == "perm=6,2,5,4,3,1"
    assert cases.perm_spelling("D", 4, "triality") == "perm=3,2,4,1"
    tri = cases.simple_perm("D", 4, "triality")
    tri2 = cases.simple_perm("D", 4, "triality2")
    assert tuple(tri[i] for i in tri2) == (0, 1, 2, 3)


def test_stabilizer_orders_match_folded_weyl_groups():
    # the orders the twisted workload's traced run reports as kept
    orders = {("A", 7): 384, ("E", 6): 1152, ("D", 6): 3840}
    for (fam, rank), order in orders.items():
        ffam, frank = cases.folded_type(fam, rank, "flip")
        assert cases.math.prod(cases.invariant_degrees(ffam, frank)) == order


def test_over_cap_rejects_stay_past_the_cap_after_folding():
    for fam, rank, tag, expect in cases.WORKLOADS["over_cap"]["cases"]:
        if expect == "reject":
            folded = cases.folded_type(fam, rank, tag)
            assert cases.math.prod(cases.invariant_degrees(*folded)) > 10**7


def first_passes(workload, seed, count=3):
    return list(itertools.islice(cases.passes(workload, seed), count))


def test_generator_is_seeded():
    for workload, spec in cases.WORKLOADS.items():
        a = first_passes(workload, 7)
        assert a == first_passes(workload, 7)
        assert a != first_passes(workload, 8)
        lo, hi = spec["truncation"]
        for batch in a:
            assert sorted((c["family"], c["rank"], c["tag"], c["expect"]) for c in batch) \
                == sorted(cases.pass_cases(workload))
            for c in batch:
                assert lo <= c["truncation"] <= hi
                assert c["auto"] in (c["tag"], cases.perm_spelling(c["family"], c["rank"],
                                                                   c["tag"]))
        ids = [c["id"] for batch in a for c in batch]
        assert ids == list(range(len(ids)))


def good_report(case):
    want = cases.expected_report(case)
    return {"input": want["input"], "folded_type": want["folded_type"],
            "wsigma": {"order": want["restricted_order"],
                       "restricted_order": want["restricted_order"],
                       "preserves_folded": True},
            "series": want["series"], "closed_form": want["closed_form"],
            "excluded_characteristics": want["excluded_characteristics"], "notes": []}


def test_check_report():
    case = {"family": "E", "rank": 6, "tag": "flip", "auto": "perm=6,2,5,4,3,1",
            "truncation": 60, "expect": "report"}
    report = good_report(case)
    assert report["folded_type"] == "F4"
    assert report["excluded_characteristics"] == [2, 3, 5]
    assert report["closed_form"]["x_degrees"] == [3, 11, 15, 23]
    assert cases.check_report(case, 0, report) is None
    report["series"][7] += 1
    assert "series" in cases.check_report(case, 0, report)
    assert cases.check_report(case, 2, None) is not None
    short = dict(case, truncation=40)
    assert cases.expected_report(short)["closed_form"] is None
    reject = {"family": "A", "rank": 12, "tag": "identity", "auto": "identity",
              "truncation": 60, "expect": "reject"}
    assert cases.check_report(reject, 2, None) is None
    assert cases.check_report(reject, 0, {"series": []}) is not None
    assert cases.check_report(reject, 1, None) is not None


def test_self_times_nested():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
    tree = [[0, None, "report.compute", "compute", 0.0, 10.0],
            [1, 0, "weyl.enum", "a", 1.0, 4.0],
            [2, 1, "exact.charpoly", "a1", 2.0, 3.0],
            [3, 0, "weyl.enum", "b", 5.0, 6.0]]
    assert spans.self_times(tree) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert spans.layer_self_times(tree) == {"report.compute": 6.0, "weyl.enum": 3.0,
                                            "exact.charpoly": 1.0}


def test_self_times_overlapping_threads_add_up():
    # two worker-thread spans under one parent overlap in [4,6]
    tree = [[0, None, "report.compute", "compute", 0.0, 10.0],
            [1, 0, "weyl.molien", "m", 1.0, 9.0],
            [2, 1, "exact.series", "x", 2.0, 6.0],
            [3, 1, "exact.series", "y", 4.0, 8.0]]
    own = spans.self_times(tree)
    assert own == {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0}
    assert sum(own.values()) == 10.0


def test_self_times_touching_boundaries():
    # a child that starts and ends exactly with its parent leaves it no time
    tree = [[0, None, "report.compute", "compute", 0.0, 2.0],
            [1, 0, "rootsys.build", "b", 0.0, 2.0]]
    assert spans.self_times(tree) == {0: 0.0, 1: 2.0}


def test_per_layer_metrics_never_fired_reads_zero():
    traced = [{"kind": "B4 identity", "case_s": 2.0, "spans": [[0, None, "report.compute", "c", 0.0, 2.0],
                                        [1, 0, "rootsys.build", "b", 0.5, 1.5]],
               "counts": {"rootsys.roots": 10, "weyl.stab_kept": 3,
                          "weyl.stab_attempted": 12}},
              {"kind": "A12 identity", "case_s": 4.0,
               "spans": [[0, None, "report.compute", "c", 0.0, 4.0]],
               "counts": {"report.cap_rejections": 1}}]
    m = spans.per_layer_metrics(traced)
    assert m["rootsys.build_s"] == 0.5
    assert m["report.self_s"] == 2.5
    assert m["weyl.enum_s"] == 0.0
    assert m["rootsys.roots"] == 5.0
    assert m["report.cap_rejections"] == 0.5
    assert m["weyl.stab_keep_ratio"] == 0.25
    assert m["trace.case_s"] == 3.0
    layer_sum = sum(v for k, v in m.items() if k.endswith("_s") and k != "trace.case_s")
    assert layer_sum == m["trace.case_s"]
    # a kind that ran three times weighs as much as one that ran once
    m = spans.per_layer_metrics(traced[:1] * 3 + traced[1:])
    assert m["trace.case_s"] == 3.0
    assert m["report.cap_rejections"] == 0.5


def test_p90_is_nearest_rank_and_the_slowest_below_ten_samples():
    assert run.p90([float(i) for i in range(1, 31)]) == 27.0
    assert run.p90([5.0, 1.0, 3.0, 2.0, 4.0]) == 5.0
    assert run.p90([float(i) for i in range(1, 11)]) == 9.0
    assert run.p90([7.0]) == 7.0


def result(kind, case_s, traced=False):
    return {"kind": kind, "case_s": case_s, "child_s": case_s + 0.5, "exit": 0,
            "traced": traced}


def test_case_metrics_weigh_each_case_equally():
    # a cheap case run nine times and a dear one run once count the same
    results = [result("D4 triality", 0.01)] * 9 + [result("E6 flip", 4.0)]
    assert abs(run.case_p50(results) - 0.2) < 1e-12
    killed = {"kind": "E6 flip", "exit": "timeout", "traced": False}
    assert run.by_kind(results + [killed], "case_s")["E6 flip"] == [4.0, run.CASE_LIMIT_S]


def test_summarize_end_to_end():
    results = [result("A7 flip", t) for t in (2.0, 3.0, 4.0)] + [result("D5 flip", 0.5)]
    for r, rss in zip(results, (20.0, 25.0, 21.0, 18.0)):
        r.update(setup_s=0.1, rss_mb=rss, ref_s=[run.REFERENCE_S] * 2)
    metrics, extra = run.summarize({"trace": 0, "results": results,
                                    "setup_probes": [0.2, 0.3],
                                    "calibrations": [run.REFERENCE_S]})
    assert abs(metrics["case_s.p50"] - (3.0 * 0.5) ** 0.5) < 1e-12
    assert abs(metrics["case_s.tail"] - (4.0 * 0.5) ** 0.5) < 1e-12
    # one pass of the two cases takes 3.5 s + 1.0 s of child wall time
    assert metrics["cases_per_s"] == 2 / 4.5
    assert metrics["setup_s"] == 0.1
    assert metrics["peak_rss_mb"] == 25.0
    assert extra["samples"] == {"A7 flip": 3, "D5 flip": 1}
    assert extra["failed"] == 0
    assert extra["host_speed"] == 1.0


def test_summarize_scales_times_to_reference_speed():
    results = [result("A7 flip", t) for t in (2.0, 3.0, 4.0)]
    for r in results:
        r.update(setup_s=0.1, rss_mb=20.0, ref_s=[run.REFERENCE_S, 3 * run.REFERENCE_S])
    # the reference loop ran at half speed on average, here and in the children
    metrics, extra = run.summarize({"trace": 0, "results": results,
                                    "setup_probes": [0.1],
                                    "calibrations": [2 * run.REFERENCE_S] * 4})
    assert extra["host_speed"] == 0.5
    assert abs(extra["wall_clock"]["case_s.p50"] - 3.0) < 1e-12
    assert abs(metrics["case_s.p50"] - 1.5) < 1e-12
    assert abs(metrics["setup_s"] - 0.05) < 1e-12
    assert abs(metrics["cases_per_s"] - 2 / 3.5) < 1e-12
    assert metrics["peak_rss_mb"] == 20.0


def test_truncations_cover_the_band_within_a_run():
    for workload, count in (("deep_series", 10), ("twisted", 2)):
        lo, hi = cases.WORKLOADS[workload]["truncation"]
        per_case = {}
        for batch in first_passes(workload, 3, count=count):
            for c in batch:
                per_case.setdefault((c["family"], c["rank"], c["tag"]), []).append(
                    c["truncation"])
        for values in per_case.values():
            if len(values) >= 8:
                fifths = {(t - lo) * 5 // (hi - lo + 1) for t in values}
                assert fifths == {0, 1, 2, 3, 4}
