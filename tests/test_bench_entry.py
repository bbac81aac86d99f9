"""Smoke test of the benchmark's entry point: its child process, spawned by
the benchmark's own spawning code, imports the package and answers one
case.  The child builds the pipeline's records itself, so a break in their
constructors would otherwise show only as every benchmark case failing."""

import json
import os

import pytest

from twistloop.weyl import DEFAULT_ELEMENT_CAP

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import cases
    import run
    return run, cases


def test_setup_child(bench):
    run, _ = bench
    out, status, _, _ = run.run_child(["--setup"])
    assert status == 0
    assert out["element_cap"] == DEFAULT_ELEMENT_CAP


def test_d4_triality_case_child(bench):
    run, cases = bench
    case = {"id": 0, "family": "D", "rank": 4, "tag": "triality",
            "auto": cases.perm_spelling("D", 4, "triality"), "truncation": 60,
            "workers": 1, "expect": "report"}
    out, status, _, _ = run.run_child([json.dumps(case)])
    assert status == 0, out and out["error"]
    assert out["report"]["folded_type"] == "G2"
    assert cases.check_report(case, status, out["report"]) is None
