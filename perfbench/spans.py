"""Self time from recorded spans, and the per-layer metrics built on it.

A span is ``[span_id, parent_id, layer, name, start, end]`` inside one
case.  Self time is computed by a sweep over the span boundaries: at each
instant the time goes to the open spans that have no open child, split
evenly when several do (spans of worker threads overlap their siblings).
With properly nested spans this is a span's duration minus the part its
children cover, and the self times of a case always add up to the time
its root spans cover.
"""

from __future__ import annotations

# Layers whose self time is reported as <layer>_s; report.compute's own
# self time is report.self_s.
TIME_LAYERS = ("rootsys.build", "twist.automorphism", "twist.fold",
               "twist.preserves", "weyl.enum", "weyl.buckets", "weyl.stab",
               "weyl.restrict", "weyl.molien", "exact.charpoly", "exact.series",
               "report.recognize", "report.serialize")
COUNTS = ("rootsys.roots", "twist.preserves_checks", "weyl.enum_elements",
          "weyl.buckets", "exact.charpoly_calls", "exact.series_terms",
          "report.search_calls", "report.cap_rejections")


def self_times(spans: list) -> dict[int, float]:
    """Self time of every span of one case, by span id."""
    depth: dict[int, int] = {}
    parent_of = {s[0]: s[1] for s in spans}

    def depth_of(sid):
        if sid not in depth:
            parent = parent_of.get(sid)
            depth[sid] = 0 if parent not in parent_of else depth_of(parent) + 1
        return depth[sid]

    # at equal times close before open, children close before parents and
    # parents open before children
    events = []
    for sid, _, _, _, start, end in spans:
        events.append((start, 1, depth_of(sid), sid))
        events.append((end, 0, -depth_of(sid), sid))
    events.sort()
    result = {s[0]: 0.0 for s in spans}
    open_children = {s[0]: 0 for s in spans}
    is_open: set[int] = set()
    leaves: set[int] = set()
    previous = None
    for time, kind, _, sid in events:
        if leaves and previous is not None and time > previous:
            share = (time - previous) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        previous = time
        parent = parent_of[sid]
        if kind == 1:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return result


def layer_self_times(spans: list) -> dict[str, float]:
    """Self time summed per layer for one case."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for sid, _, layer, _, _, _ in spans:
        out[layer] = out.get(layer, 0.0) + own[sid]
    return out


def per_layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics over the traced cases of a run.  Times and counts
    are means per case over one pass of the case list: each case kind
    (type and twist) weighs the same however often it ran.  The keep ratio
    is taken over that pass and the enumeration RSS growth is the run's
    maximum.  A layer or count that never fired reads 0.  The tracing
    overhead needs the untraced cases too, so the caller adds it."""
    runs_of_kind: dict = {}
    for case in traced:
        runs_of_kind[case["kind"]] = runs_of_kind.get(case["kind"], 0) + 1
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}
    rss_growth = 0.0
    case_s = 0.0
    for case in traced:
        weight = 1.0 / (runs_of_kind[case["kind"]] * len(runs_of_kind))
        case_s += weight * case["case_s"]
        for layer, t in layer_self_times(case["spans"]).items():
            totals[layer] = totals.get(layer, 0.0) + weight * t
        for key, value in case["counts"].items():
            if key == "weyl.enum_rss_mb":
                rss_growth = max(rss_growth, value)
            else:
                counts[key] = counts.get(key, 0) + weight * value
    metrics = {f"{layer}_s": totals.get(layer, 0.0) for layer in TIME_LAYERS}
    metrics["report.self_s"] = totals.get("report.compute", 0.0)
    for key in COUNTS:
        metrics[key] = counts.get(key, 0)
    attempted = counts.get("weyl.stab_attempted", 0)
    metrics["weyl.stab_keep_ratio"] = (counts.get("weyl.stab_kept", 0) / attempted
                                       if attempted else 0.0)
    metrics["weyl.enum_rss_mb"] = rss_growth
    metrics["trace.case_s"] = case_s
    return metrics


UNITS = {"rootsys.roots": "count", "twist.preserves_checks": "count",
         "weyl.enum_elements": "count", "weyl.buckets": "count",
         "exact.charpoly_calls": "count", "exact.series_terms": "count",
         "report.search_calls": "count", "report.cap_rejections": "count",
         "weyl.stab_keep_ratio": "ratio", "weyl.enum_rss_mb": "MB",
         "trace.overhead": "ratio"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")
