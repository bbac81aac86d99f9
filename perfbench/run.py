"""Case-matrix benchmark for twistloop's ``compute()``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  One client runs one case at a time, each in a fresh child
interpreter, so that ``ru_maxrss`` is a per-case peak.  The case list is
repeated in seeded passes (closed loop).  The first pass always runs
whole; after it a case starts only when its own last run, started now,
would end within S seconds.  Import-only children that time the set-up
are spread over the run.  Every outcome is checked against the
benchmark's own expectation (cases.py).

The cases of a workload differ in cost by up to 300x, so the time metrics
are taken per case first and then combined with equal weight per case
(see summarize); a median pooled over all samples would fall into the gap
between two cases and follow whichever sample lands at its edge.

The speed of a shared host drifts by 10-30 % from one run to the next.
The time metrics are therefore given at a reference host speed: each is
scaled by REFERENCE_S over the mean time of a fixed reference loop that
shares no code with the program, timed between cases in this process and
on either side of every case in its child.  The wall-clock values are kept
in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every case
twice, untraced and traced (alternating which goes first), and prints the
per-layer metrics from the traced children's spans, plus the tracing
overhead.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  The line before it is the run's record.

Measurement limits: per-process wall time and ``ru_maxrss`` only; no
system-wide tracing and no cache dropping.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import cases
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CASE_LIMIT_S = 30   # a child past this is killed and its case counted failed
RUN_LIMIT_S = 150   # no case starts unless it would end, at its limit, before this
SETUP_PROBES = 16   # import-only children per run, besides one per case
CALIBRATIONS = 96   # timings of the reference loop per run
REFERENCE_S = 0.025  # reference loop time that counts as reference speed

END_TO_END_UNITS = {"case_s.p50": "s", "case_s.tail": "s", "cases_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(args: list[str]) -> tuple[dict | None, int | str, float, float]:
    """Run child.py to completion or to CASE_LIMIT_S.  Returns its parsed
    last stdout line (or None), its exit status (or "timeout"), and the
    monotonic times it was started and it ended."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CASE_LIMIT_S)
    except subprocess.TimeoutExpired:
        return None, "timeout", spawned, time.monotonic()
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    return out, proc.returncode, spawned, ended


def kind_of(case: dict) -> str:
    """The case kind: type and twist, whatever the spelling and truncation."""
    return f'{case["family"]}{case["rank"]} {case["tag"]}'


def run_case(case: dict, traced: bool) -> dict:
    out, status, spawned, ended = run_child([json.dumps(case)]
                                            + (["--trace"] if traced else []))
    result = {"id": case["id"], "case": f'{case["family"]}{case["rank"]} {case["auto"]} '
                                         f'T={case["truncation"]}',
              "kind": kind_of(case),
              "traced": traced, "exit": status, "child_s": ended - spawned}
    if out is None:
        result["failure"] = ("timeout after %d s" % CASE_LIMIT_S if status == "timeout"
                             else f"no result (exit {status})")
        return result
    result.update(case_s=out["case_s"], setup_s=out["import_done"] - spawned,
                  rss_mb=out["rss_mb"], ref_s=out["ref_s"])
    result["child_s"] -= sum(out["ref_s"])  # the reference loop is not the case
    failure = cases.check_report(case, status, out["report"])
    if failure is not None:
        result["failure"] = failure
        if out["error"]:
            result["error"] = out["error"]
    if traced:
        result["spans"] = out["spans"]
        result["counts"] = dict(out["counts"], **{"report.cap_rejections": int(status == 2)})
        result["missing"] = out["missing"]
    return result


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that shares no code with
    twistloop: byte-permutation products kept in a set, and integer
    arithmetic, the kind of work the program does.  Timed in this process
    between cases and in every untraced child on either side of its case,
    it measures how fast the shared host runs at the time."""
    gens = [bytes((i * k + k) % 61 for i in range(61)) for k in range(1, 13)]
    seen = set()
    perm = bytes(range(61))
    acc = 0
    start = time.perf_counter()
    for r in range(7000):
        perm = bytes(perm[i] for i in gens[r % 12])
        seen.add(perm)
        acc += sum(perm[:8]) * (r + 1) // (len(seen) + 1)
    return time.perf_counter() - start


def probe_setup() -> float | None:
    """One import-only child: seconds from its spawn to ``import twistloop`` done."""
    out, status, spawned, _ = run_child(["--setup"])
    return out["import_done"] - spawned if out is not None and status == 0 else None


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               started: float, nproc: int) -> tuple[list[dict], list[float], list[float]]:
    """The measured closed loop.  Returns the case results, the set-up
    probes and the reference-loop times; the last two are spread evenly
    over the run."""
    results, probes, calibrations = [], [], []
    last_child_s: dict[str, float] = {}
    begin = time.monotonic()

    def top_up(share: float) -> None:
        share = min(share, 1.0)
        while len(calibrations) < 1 + (CALIBRATIONS - 1) * share:
            calibrations.append(reference_loop())
        while len(probes) < 1 + (SETUP_PROBES - 1) * share:
            value = probe_setup()
            if value is None:
                return
            probes.append(value)

    for number, batch in enumerate(cases.passes(workload, seed)):
        for case in batch:
            case = dict(case, workers=min(case["workers"], nproc))
            kind = kind_of(case)
            modes = [False, True] if trace else [False]
            if case["id"] % 2:
                modes.reverse()
            elapsed = time.monotonic() - begin
            if (number and elapsed + last_child_s[kind] * len(modes) > seconds
                    or time.monotonic() - started + CASE_LIMIT_S * len(modes) > RUN_LIMIT_S):
                top_up(1.0)
                return results, probes, calibrations
            top_up(elapsed / seconds)
            for traced in modes:
                results.append(run_case(case, traced))
                last_child_s[kind] = results[-1]["child_s"]
    raise AssertionError("passes() is endless")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    info, status, _, _ = run_child(["--setup"])  # also fills the bytecode cache
    if info is None or status != 0:
        raise SystemExit(f"error: cannot import twistloop from {ROOT}/src (exit {status})")
    nproc = os.cpu_count() or 1
    results, probes, calibrations = run_passes(workload, seed, seconds, trace, started,
                                               nproc)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": nproc, "python": info["python"], "element_cap": info["element_cap"],
            "wall_s": time.monotonic() - started, "setup_probes": probes,
            "calibrations": calibrations, "results": results}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile: the slowest sample when there are
    fewer than ten."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def by_kind(results: list[dict], key: str) -> dict[str, list[float]]:
    """``key`` of each result, grouped by case kind (type and twist).  A
    killed case counts at the time limit."""
    out: dict[str, list[float]] = {}
    for r in results:
        if key in r or r["exit"] == "timeout":
            out.setdefault(r["kind"], []).append(r.get(key, CASE_LIMIT_S))
    return out


def case_p50(results: list[dict]) -> float:
    """Each case's median time, geometric mean over the cases."""
    return geomean(statistics.median(v) for v in by_kind(results, "case_s").values())


def summarize(run: dict) -> tuple[dict, dict]:
    """Metrics for the run, and extra figures recorded beside them."""
    results = run["results"]
    completed = [r for r in results if "case_s" in r]
    untraced = [r for r in results if not r["traced"]]
    if not any("case_s" in r for r in untraced):
        raise SystemExit("error: no case completed")
    failed = sum("failure" in r for r in results)
    extra = {"fail_ratio": failed / len(results), "failed": failed,
             "attempted": len(results)}
    if run["trace"]:
        traced = [r for r in completed if r["traced"]]
        if not traced:
            raise SystemExit("error: no traced case completed")
        metrics = spans.per_layer_metrics(traced)
        metrics["trace.overhead"] = case_p50(traced) / case_p50(untraced)
        layer_sum = sum(v for k, v in metrics.items()
                        if k.endswith("_s") and k != "trace.case_s")
        extra["self_time_sum_s"] = layer_sum
        extra["stabilizer"] = sorted({
            (r["case"].split()[0], r["counts"]["weyl.stab_kept"],
             r["counts"].get("weyl.stab_attempted", 0))
            for r in traced if "weyl.stab_kept" in r["counts"]})
        extra["missing_wraps"] = sorted({m for r in traced for m in r["missing"]})
        return metrics, extra
    case_s = by_kind(untraced, "case_s")
    child_s = by_kind(untraced, "child_s")
    extra["samples"] = {kind: len(v) for kind, v in sorted(case_s.items())}
    metrics = {
        "case_s.p50": case_p50(untraced),
        "case_s.tail": geomean(p90(v) for v in case_s.values()),
        # one pass over the case list, each case at its mean child time
        "cases_per_s": len(child_s) / sum(statistics.mean(v) for v in child_s.values()),
        "setup_s": statistics.median(run["setup_probes"]
                                     + [r["setup_s"] for r in completed]),
        "peak_rss_mb": max(r["rss_mb"] for r in completed),
    }
    # times at reference host speed; the wall-clock values go in the record
    references = run["calibrations"] + [t for r in completed for t in r["ref_s"]]
    speed = REFERENCE_S / statistics.mean(references)
    extra["host_speed"] = speed
    extra["wall_clock"] = dict(metrics)
    for name in ("case_s.p50", "case_s.tail", "setup_s"):
        metrics[name] *= speed
    metrics["cases_per_s"] /= speed
    return metrics, extra


def write_spans(run: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for r in run["results"]:
            for sid, parent, layer, name, start, end in r.get("spans", ()):
                fh.write(json.dumps({"case": r["id"], "span": sid, "parent": parent,
                                     "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "twistloop", "__init__.py")):
        raise SystemExit(f"error: no twistloop sources under {ROOT}/src")

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, extra = summarize(run)
    if args.trace:
        write_spans(run, os.path.join(ROOT, ".perfbench_out",
                                      f"spans-{args.workload}-{args.seed}.jsonl"))
    unit_of = (spans.unit_of if args.trace else END_TO_END_UNITS.get)

    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"nproc {run['nproc']}  python {run['python']}  "
          f"element cap {run['element_cap']}  wall {run['wall_s']:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit_of(name)}")
    print(f"  {'fail_ratio':<24} {extra['failed']}/{extra['attempted']} failed/attempted")
    for r in run["results"]:
        if "failure" in r:
            print(f"  FAILED {r['case']}: {r['failure']}")
    if args.trace:
        print(f"  self times sum to {extra['self_time_sum_s']:.6g} s per case; "
              f"traced case time {metrics['trace.case_s']:.6g} s per case")
        for case, kept, attempted in extra["stabilizer"]:
            print(f"  stabilizer {case}: kept {kept} of {attempted} enumerated")
    else:
        print("  samples per case: " + ", ".join(f"{kind} {n}"
                                                for kind, n in extra["samples"].items()))

    record = {k: v for k, v in run.items() if k != "results"}
    record["extra"] = extra
    record["cases"] = [{k: v for k, v in r.items() if k not in ("spans", "counts", "missing")}
                       for r in run["results"]]
    record["limits"] = "per-process wall time and ru_maxrss only; no system-wide " \
                       "tracing, no cache dropping"
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": extra["failed"] == 0, "attempted": extra["attempted"],
                      "failed": extra["failed"],
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
