"""Outside-in tracer: spans around the calls into each layer's entry points.

The library itself is not instrumented. In a traced process the tracer
rebinds each entry point in the namespace of the module that calls it (and in
the benchmark's own `api` namespace), so every call records a span: name,
start, end, parent span and job id. Start and end are readings of this
process's CPU clock, as the end-to-end pass times are. A layer's self time is
its spans' time minus the time covered by their child spans. Counters are derived from the
arguments and results at the same boundaries.

An entry point that no longer exists is reported by name as missing, never
as zero.
"""

import importlib
from collections import defaultdict
from time import process_time

ROUTE_FULL = "periods+forms"
ROUTE_ANALYTIC = "forms+index"


def _build_field_counts(ctx, args, kwargs):
    q = ctx.q
    return {
        "ffield.build_field.modulus_candidates": ctx.encode(ctx.modulus) + 1,
        "ffield.build_field.generator_candidates": ctx.encode(ctx.alpha) - q + 1,
    }


def _scan_counts(result, args, kwargs):
    total = args[2] if len(args) > 2 else kwargs["total"]
    return {"scan.scan_counts.elements": int(total)}


def _density_counts(est, args, kwargs):
    return {"quadforms.density_estimate.primes_tested": est.primes}


def _certify_counts(cert, args, kwargs):
    routes = [w.route for w in cert.witnesses]
    return {
        "certify.witnesses_tried": len(routes),
        "certify.route_full": routes.count(ROUTE_FULL),
        "certify.route_analytic": routes.count(ROUTE_ANALYTIC),
    }


def _vandiver_counts(report, args, kwargs):
    verdicts = [s.verdict for s in report.scans]
    return {
        "certify.witnesses_tried": sum(len(s.tried) for s in report.scans),
        "certify.eigenspaces_trivial": verdicts.count("Trivial"),
        "certify.eigenspaces_unknown": verdicts.count("Unknown"),
    }


# span name -> (counter derivation or None, counters it yields)
SPANS = {
    "ffield.build_field": (_build_field_counts, (
        "ffield.build_field.modulus_candidates", "ffield.build_field.generator_candidates")),
    "ffield.generator_recurrence": (None, ()),
    "scan.scan_counts": (_scan_counts, ("scan.scan_counts.elements",)),
    "periods.compute_period_table": (None, ()),
    "units.index_mod_p": (None, ()),
    "units.dlog_order_p": (None, ()),
    "quadforms.class_number": (None, ()),
    "quadforms.reduced_forms_count": (None, ()),
    "quadforms.represent_all": (None, ()),
    "quadforms.density_estimate": (_density_counts, ("quadforms.density_estimate.primes_tested",)),
    "certify.certify_half_plus": (_certify_counts, (
        "certify.witnesses_tried", "certify.route_full", "certify.route_analytic")),
    "certify.vandiver_scan": (_vandiver_counts, (
        "certify.witnesses_tried", "certify.eigenspaces_trivial", "certify.eigenspaces_unknown")),
    "certify.verify_certificate": (None, ()),
}

# (calling module, attribute, span name): where the library calls one layer
# from another. The benchmark's own calls are wrapped through `API_SPANS`.
CALL_SITES = (
    ("eigenvanish.certify", "build_field", "ffield.build_field"),
    ("eigenvanish.certify", "index_mod_p", "units.index_mod_p"),
    ("eigenvanish.certify", "compute_period_table", "periods.compute_period_table"),
    ("eigenvanish.certify", "represent_all", "quadforms.represent_all"),
    ("eigenvanish.certify", "class_number", "quadforms.class_number"),
    ("eigenvanish.periods", "generator_recurrence", "ffield.generator_recurrence"),
    ("eigenvanish.periods", "scan_counts", "scan.scan_counts"),
    ("eigenvanish.units", "dlog_order_p", "units.dlog_order_p"),
)

API_SPANS = {
    "build_field": "ffield.build_field",
    "compute_period_table": "periods.compute_period_table",
    "class_number": "quadforms.class_number",
    "reduced_forms_count": "quadforms.reduced_forms_count",
    "represent_all": "quadforms.represent_all",
    "density_estimate": "quadforms.density_estimate",
    "certify_half_plus": "certify.certify_half_plus",
    "vandiver_scan": "certify.vandiver_scan",
    "verify_certificate": "certify.verify_certificate",
}


class Tracer:
    """Span recorder; `install` wraps the entry points, `uninstall` restores them."""

    def __init__(self):
        # (name, start, end, parent index or -1, job id)
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, api) -> None:
        for module_name, attr, span in CALL_SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._mark_missing(span)
                continue
            self._wrap(module, attr, span)
        for attr, span in API_SPANS.items():
            self._wrap(api, attr, span)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _mark_missing(self, span: str) -> None:
        self.missing.add(span)
        self.missing.update(SPANS[span][1])

    def _wrap(self, owner, attr: str, span: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self._mark_missing(span)
            return
        derive = SPANS[span][0]
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(span, fn, args, kwargs)
            if derive is not None:
                tracer.count(span, derive, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.job))
        self._stack.append(index)
        start = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = process_time()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def count(self, span: str, derive, result, args, kwargs) -> None:
        try:
            values = derive(result, args, kwargs)
        except (AttributeError, KeyError, IndexError, TypeError):
            self.missing.update(SPANS[span][1])
            return
        for key, value in values.items():
            self.counters[key] += value

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time in s, number of calls)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, *_), t in zip(self.spans, own):
            totals[name][0] += t
            totals[name][1] += 1
        return {name: (t, c) for name, (t, c) in totals.items()}


# Per-layer metrics, each (name, unit). Times and counts are per traced pass.
SELF_TIME_SPANS = (
    "ffield.build_field", "ffield.generator_recurrence", "scan.scan_counts",
    "periods.compute_period_table", "units.index_mod_p",
    "quadforms.class_number", "quadforms.reduced_forms_count",
    "quadforms.represent_all", "quadforms.density_estimate",
    "certify.certify_half_plus", "certify.vandiver_scan",
    "certify.verify_certificate",
)
CALL_SPANS = (
    "ffield.build_field", "scan.scan_counts", "units.index_mod_p",
    "units.dlog_order_p", "quadforms.represent_all",
)
COUNTERS = (
    "ffield.build_field.modulus_candidates", "ffield.build_field.generator_candidates",
    "scan.scan_counts.elements", "quadforms.density_estimate.primes_tested",
    "certify.witnesses_tried", "certify.route_full", "certify.route_analytic",
    "certify.eigenspaces_trivial", "certify.eigenspaces_unknown",
)


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, list[str]]:
    """(metrics, missing names) per traced pass, from the recorded spans."""
    times = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []

    def have(span):
        if span in tracer.missing:
            missing.append(span)
            return False
        return True

    for span in SELF_TIME_SPANS:
        if have(span):
            metrics[f"{span}.self_s"] = (times.get(span, (0.0, 0))[0] / passes, "s")
    for span in CALL_SPANS:
        if have(span):
            metrics[f"{span}.calls"] = (times.get(span, (0.0, 0))[1] / passes, "count")
    for span in ("scan.scan_counts", "units.index_mod_p"):
        if span not in tracer.missing:
            t, c = times.get(span, (0.0, 0))
            metrics[f"{span}.ms_per_call"] = (1000 * t / c if c else 0.0, "ms")
    for key in COUNTERS:
        if key in tracer.missing:
            missing.append(key)
        else:
            metrics[key] = (tracer.counters.get(key, 0) / passes, "count")
    elements = "scan.scan_counts.elements"
    if "scan.scan_counts" not in tracer.missing and elements not in tracer.missing:
        t = times.get("scan.scan_counts", (0.0, 0))[0]
        rate = tracer.counters.get(elements, 0) / t / 1e6 if t else 0.0
        metrics["scan.scan_counts.melem_per_s"] = (rate, "Melem/s")
    return metrics, sorted(set(missing))
