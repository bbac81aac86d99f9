"""Run one benchmark case in a fresh interpreter and print one JSON line.

Usage: python3 child.py '<case json>' [--trace]
       python3 child.py --setup

The parent passes ``src`` on PYTHONPATH.  The first thing measured is
``import twistloop``; the case itself is ``compute(spec)`` followed by
``to_json()``.  Exit status mirrors the CLI: 0 with a report, 2 when the
program rejects the case at its resource cap, 1 when it raises anything
else (the traceback is returned with the result).  An untraced child
also times the benchmark's reference loop (run.reference_loop) just before
and just after the case, so the parent can tell how fast the host ran.

With ``--trace`` the public functions the pipeline calls are wrapped, from
outside the program, under the names the calling module looks up.  Each
call becomes a span (layer, name, start, end, parent); counts are taken at
the same boundaries.  Spans stay in memory and are printed with the result.
"""

import json
import sys
import time

import twistloop  # the import is the measured set-up
import_done = time.monotonic()

import functools  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span and count recorder.  Spans opened on a worker thread take the
    innermost open span of the main thread as their parent."""

    def __init__(self):
        self.spans = []  # [span_id, parent_id, layer, name, start, end]
        self.counts = {}
        self.missing = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def open(self, layer, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            outer = stack or self._stacks.get(self._main) or [None]
            span = [len(self.spans), outer[-1], layer, name, time.perf_counter(), None]
            self.spans.append(span)
            stack.append(span[0])
        return span

    def close(self, span):
        span[5] = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    def wrap(self, owner, attr, layer, counter=None):
        """Replace owner.attr by a spanning wrapper.  A name that no longer
        exists, or a counter that no longer fits the call, is recorded as
        missing, and what it measured then reads 0."""
        fn = getattr(owner, attr, None)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        if fn is None:
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                try:
                    counter(self, args, out)
                except (AttributeError, IndexError, TypeError):
                    self.missing.append(f"count at {name}")
            return out

        setattr(owner, attr, traced)


def _terms(tracer, args, out):
    coefficients = getattr(out, "coefficients", out)
    tracer.count("exact.series_terms", len(coefficients))


def _stab(tracer, args, out):
    tracer.count("weyl.stab_kept", len(out))
    tracer.count("weyl.stab_attempted", len(args[0].elements))


def install_tracer(tracer):
    import twistloop.report as report
    import twistloop.weyl as weyl

    weyl_group = getattr(report, "WeylPermutationGroup", None)
    if weyl_group is not None:
        init = weyl_group.__init__

        # ru_maxrss growth across the enumeration needs the value before it
        @functools.wraps(init)
        def measured_init(self, *args, **kwargs):
            before = rss_mb()
            init(self, *args, **kwargs)
            tracer.peak("weyl.enum_rss_mb", rss_mb() - before)
            tracer.count("weyl.enum_elements", len(getattr(self, "elements", ())))

        weyl_group.__init__ = measured_init
        tracer.wrap(weyl_group, "__init__", "weyl.enum")
        tracer.wrap(weyl_group, "charpoly_buckets", "weyl.buckets")
    else:
        tracer.missing.append("twistloop.report.WeylPermutationGroup")

    wrap = tracer.wrap
    wrap(report, "compute", "report.compute")
    wrap(report, "build_root_system", "rootsys.build",
         lambda t, a, out: t.count("rootsys.roots", len(out.roots)))
    wrap(report, "make_automorphism", "twist.automorphism")
    wrap(report, "folded_root_system", "twist.fold")
    wrap(report, "wsigma_preserves_folded", "twist.preserves",
         lambda t, a, out: t.count("twist.preserves_checks",
                                   len(a[1].elements) * len(a[2].folded.roots)))
    wrap(report, "fixed_space_stabilizer_perms", "weyl.stab", _stab)
    wrap(report, "restricted_fixed_space_group", "weyl.restrict")
    wrap(report, "super_molien_from_buckets", "weyl.molien",
         lambda t, a, out: t.count("weyl.buckets", len(a[0])))
    wrap(report, "super_molien", "weyl.molien",
         lambda t, a, out: t.count("weyl.buckets", len(a[0].charpoly_buckets)))
    wrap(weyl, "charpoly", "exact.charpoly",
         lambda t, a, out: t.count("exact.charpoly_calls"))
    wrap(weyl, "rational_function_series", "exact.series", _terms)
    wrap(weyl, "collapse_to_cohomological", "exact.series", _terms)
    wrap(report, "product_over_degrees", "exact.series", _terms)
    wrap(report, "poly_mul_trunc", "exact.series", _terms)
    wrap(report, "_closed_form_or_note", "report.recognize")
    wrap(report, "recognize_closed_form", "report.recognize")
    wrap(report, "search_closed_form", "report.recognize",
         lambda t, a, out: t.count("report.search_calls"))
    wrap(getattr(report, "TwistReport", None), "to_json", "report.serialize")


def parse_automorphism(text):
    # the CLI's spelling: a tag, or perm= with 1-based images
    if text.startswith("perm="):
        return tuple(int(x) - 1 for x in text[len("perm="):].split(","))
    return text


def run_case(case, traced):
    from run import reference_loop
    from twistloop import CartanType, GroupTooLargeError, TwistSpec
    import twistloop.report as report

    tracer = Tracer() if traced else None
    if tracer is not None:
        install_tracer(tracer)
    spec = TwistSpec(cartan_type=CartanType(case["family"], case["rank"]),
                     automorphism=parse_automorphism(case["auto"]),
                     truncation=case["truncation"], workers=case["workers"])
    text, code, error = None, 0, None
    # untraced children time the reference loop on either side of the case
    refs = [] if traced else [reference_loop()]
    start = time.perf_counter()
    try:
        text = report.compute(spec).to_json()
    except GroupTooLargeError:
        code = 2
    except Exception:  # any other failure is reported as the case's outcome
        code, error = 1, traceback.format_exc()
    end = time.perf_counter()
    peak = rss_mb()
    if not traced:
        refs.append(reference_loop())
    out = {"import_done": import_done, "case_s": end - start, "rss_mb": peak,
           "ref_s": refs, "report": None if text is None else json.loads(text),
           "error": error}
    if tracer is not None:
        out["spans"] = [[sid, parent, layer, name, s - start, e - start]
                        for sid, parent, layer, name, s, e in tracer.spans]
        out["counts"] = tracer.counts
        out["missing"] = tracer.missing
    return out, code


def main(argv):
    if argv == ["--setup"]:
        import twistloop.weyl as weyl
        print(json.dumps({"import_done": import_done,
                          "element_cap": getattr(weyl, "DEFAULT_ELEMENT_CAP", None),
                          "python": sys.version.split()[0]}))
        return 0
    out, code = run_case(json.loads(argv[0]), traced="--trace" in argv[1:])
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
