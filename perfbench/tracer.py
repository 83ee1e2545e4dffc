"""Spans around calls into coxmal's public functions, recorded from outside.

install() replaces each timed function in every coxmal module that binds it,
so calls made through `from .x import f` and through module attributes both
land in a span.  A span is [name, start, end, parent index, counts]; spans
stay in memory and layer_metrics() turns them into the per-layer table when
the pass ends.  The per-element object functions (length, invert, ...) are
not wrapped: a verify pass makes about a million such calls.  Elements are
counted at enumerate_group instead.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

# module -> public functions timed as spans
TIMED = {
    "coxeter": ("windows_lengths", "windows_invert", "windows_descent_counts", "windows_two_sided"),
    "mallows": ("sample_windows", "normalization_enumeration_check",
                "reversal_identity_check", "pattern_probability_bound_check"),
    "moments": ("exact_distribution", "descent_indicator_mean_check",
                "cube_moment_bound_check", "goodness_of_fit"),
    "sizebias": ("size_bias_law_check", "covariance_type_sums", "coupling_boundedness_check"),
    "normal": ("wasserstein_from_samples", "w2_with_se", "w1_bound_check",
               "w2_bound_check", "smooth_bound_checks", "tail_bound_check"),
}
SAMPLER_PATHS = ("tower", "a_geometric", "uniform")


def _layer_units() -> dict:
    """Per-layer metric -> unit, in print order."""
    units = {}
    for path in SAMPLER_PATHS:
        base = f"mallows.sample_windows.{path}"
        units.update({f"{base}.self_s": "s", f"{base}.rows": "count", f"{base}.ns_per_entry": "ns"})
    units["mallows.sample_windows.cpu_per_wall"] = "ratio"
    units["coxeter.windows_lengths.self_s"] = "s"
    units["coxeter.windows_lengths.rows"] = "count"
    for name in ("windows_invert", "windows_descent_counts", "windows_two_sided"):
        units[f"coxeter.{name}.self_s"] = "s"
    units["coxeter.enumerate_group.calls"] = "count"
    units["coxeter.enumerate_group.elements"] = "count"
    units["moments.exact_distribution.self_s"] = "s"
    units["moments.exact_distribution.calls"] = "count"
    units["moments.exact_distribution.us_per_element"] = "us"
    for mod in ("sizebias", "mallows", "moments", "normal"):
        for name in TIMED[mod]:
            if name not in ("sample_windows", "exact_distribution"):
                units[f"{mod}.{name}.self_s"] = "s"
    units["reports.checks"] = "count"
    units["cli.self_s"] = "s"
    return units


LAYER_UNITS = _layer_units()


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def sampler_path(kind: str, q: float) -> str:
    """The sample_windows path that (kind, q) selects in coxmal.mallows."""
    if q == 1.0:
        return "uniform"
    if kind == "A" and q < 1.0:
        return "a_geometric"
    return "tower"


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn, label=None, counts=None):
        """fn wrapped in a span; label(args, kwargs) may refine the span name."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [
                label(args, kwargs) if label else name,
                time.perf_counter(),
                None,
                stack[-1] if stack else None,
                counts(args, kwargs) if counts else {},
            ]
            cpu = time.process_time()
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4]["cpu_s"] = time.process_time() - cpu
                stack.pop()

        return wrapper

    def count(self, name: str, n: int = 1, span_key: str | None = None) -> None:
        """Add n to a counter, and to the innermost open span's span_key."""
        self.counters[name] += n
        stack = self._stack()
        if span_key and stack:
            counts = self.spans[stack[-1]][4]
            counts[span_key] = counts.get(span_key, 0) + n

    def layer_metrics(self, wall_s: float) -> dict:
        """The LAYER_UNITS table for one pass that took wall_s seconds."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        self_s = defaultdict(float)
        calls = defaultdict(int)
        totals = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            own = (end - start) - _covered(children[i])
            self_s[name] += own
            calls[name] += 1
            for key, value in counts.items():
                totals[name][key] += value
            totals[name]["wall_s"] += end - start
            if counts.get("elements"):
                totals[name]["self_s_enumerating"] += own

        out = {}
        cpu = wall = 0.0
        for path in SAMPLER_PATHS:
            base = f"mallows.sample_windows.{path}"
            entries = totals[base]["entries"]
            out[f"{base}.self_s"] = self_s[base]
            out[f"{base}.rows"] = int(totals[base]["rows"])
            out[f"{base}.ns_per_entry"] = 1e9 * self_s[base] / entries if entries else 0.0
            cpu += totals[base]["cpu_s"]
            wall += totals[base]["wall_s"]
        out["mallows.sample_windows.cpu_per_wall"] = cpu / wall if wall else 0.0
        out["coxeter.windows_lengths.rows"] = int(totals["coxeter.windows_lengths"]["rows"])
        ed = "moments.exact_distribution"
        elements = totals[ed]["elements"]
        out[f"{ed}.calls"] = calls[ed]
        out[f"{ed}.us_per_element"] = 1e6 * totals[ed]["self_s_enumerating"] / elements if elements else 0.0
        out["coxeter.enumerate_group.calls"] = self.counters["coxeter.enumerate_group.calls"]
        out["coxeter.enumerate_group.elements"] = self.counters["coxeter.enumerate_group.elements"]
        out["reports.checks"] = self.counters["reports.checks"]
        out["cli.self_s"] = wall_s - _covered(children[None])
        for metric in LAYER_UNITS:
            if metric not in out and metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
        return {metric: out[metric] for metric in LAYER_UNITS}


def install(tracer: Tracer) -> None:
    """Wrap the timed functions, enumerate_group and ExperimentReport.add.

    A function a later version of the package no longer has is skipped, and
    its metrics read 0.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "coxmal" or n.startswith("coxmal.")]

    def replace(orig, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)

    for mod, names in TIMED.items():
        module = sys.modules.get(f"coxmal.{mod}")
        for name in names:
            orig = getattr(module, name, None)
            if orig is None:
                continue
            label = counts = None
            if name == "sample_windows":
                def label(args, kwargs):
                    g, q = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "q")
                    return f"mallows.sample_windows.{sampler_path(g.kind, q)}"

                def counts(args, kwargs):
                    rows = _arg(args, kwargs, 2, "count")
                    return {"rows": rows, "entries": rows * _arg(args, kwargs, 0, "g").window_size}
            elif name == "windows_lengths":
                def counts(args, kwargs):
                    return {"rows": len(_arg(args, kwargs, 1, "W"))}
            replace(orig, tracer.timed(f"{mod}.{name}", orig, label, counts))

    coxeter = sys.modules.get("coxmal.coxeter")
    enumerate_group = getattr(coxeter, "enumerate_group", None)
    if enumerate_group is not None:
        def counted_enumerate(g, *args, **kwargs):
            # every caller exhausts the generator, so it yields g.order() elements
            tracer.count("coxeter.enumerate_group.calls")
            tracer.count("coxeter.enumerate_group.elements", g.order(), span_key="elements")
            return enumerate_group(g, *args, **kwargs)

        replace(enumerate_group, counted_enumerate)

    report_cls = getattr(sys.modules.get("coxmal.reports"), "ExperimentReport", None)
    if report_cls is not None and hasattr(report_cls, "add"):
        add = report_cls.add

        def counted_add(self, *args, **kwargs):
            tracer.count("reports.checks")
            return add(self, *args, **kwargs)

        report_cls.add = counted_add
