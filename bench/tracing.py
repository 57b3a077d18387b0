"""Spans at lcoai's layer boundaries, recorded from outside the package.

:func:`install` replaces each module's public functions at the layer
boundaries with wrappers that open a span on entry and close it on exit, in
every ``lcoai`` namespace that holds them, and :func:`uninstall` puts the
originals back. Nested calls become child spans. Each span records its name,
start, end, parent and request id in compact arrays kept in memory; they are
written out when the run ends. A span's self time is its duration minus the
time its child spans cover. Counts are taken at the same boundaries from the
wrapped call's result, after the span closes.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# module -> functions whose calls are spans; the span name is "module.function"
BOUNDARIES = {
    "cli_report": ("build_parser", "load_scenarios", "build_comparison_table",
                   "sweep_series_csv"),
    "decision": ("compare",),
    "sensitivity": ("sweep", "break_even", "tornado", "with_total_volume",
                    "with_opex_rate", "with_capex_scaled"),
    "cost_core": ("compute_lcoai", "amortize_capex", "discount_factor"),
    "ingest": ("parse_log", "parse_rfc3339", "count_valid"),
}
RENDER_METHOD = "cli_report.ReportTable.render"
LAYERS = tuple(BOUNDARIES)


class Tracer:
    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")  # nanoseconds covered by direct children
        self._stack: list = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.denominator_bits = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.child.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        now = time.perf_counter_ns()
        self.end[index] = now
        self._stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    @contextmanager
    def span(self, name: str, request_id: int):
        self.request_id = request_id
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, span_name: str):
        name_id = self.name_id(span_name)
        observe = OBSERVERS.get(span_name)
        count_lines = span_name == "ingest.parse_log"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_lines:
                args = (tracer.counted(args[0]),) + args[1:]
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, result)
            return result
        return wrapper

    def counted(self, lines):
        for line in lines:
            self.counts["ingest.lines"] += 1
            yield line

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, request, name, parent, start/end ns."""
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "request", "name", "parent", "start_ns", "end_ns"))
            names = self.names
            for i in range(len(self.start)):
                writer.writerow((i, self.request[i], names[self.name[i]], self.parent[i],
                                 self.start[i], self.end[i]))


# counts taken at the boundaries, from the wrapped call's result

def _count(key, size):
    def observe(tracer, result):
        tracer.counts[key] += size(result)
    return observe


def _denominator_digits(tracer, result):
    denominator = result.exact_per_inference.denominator
    if denominator.bit_length() > tracer.denominator_bits:
        tracer.denominator_bits = denominator.bit_length()
        tracer.maxima["core.exact_denom_digits"] = len(str(denominator))


def _parse_result(tracer, result):
    held = tracer.maxima["ingest.records_held"]
    tracer.maxima["ingest.records_held"] = max(held, len(result.records))
    tracer.counts["ingest.skipped"] += len(result.skipped)


def _volume_count(tracer, result):
    tracer.counts["ingest.valid"] += result.valid
    tracer.counts["ingest.classified"] += result.total


_rendered = _count("render.bytes", lambda text: len(text.encode("utf-8")))
OBSERVERS = {
    "cli_report.load_scenarios": _count("schema.scenarios", len),
    "decision.compare": _count("decision.compare_rows", len),
    "cli_report.sweep_series_csv": _rendered,
    RENDER_METHOD: _rendered,
    "cost_core.compute_lcoai": _denominator_digits,
    "ingest.parse_log": _parse_result,
    "ingest.count_valid": _volume_count,
}


def install(tracer: Tracer) -> list:
    """Wrap every boundary function in every lcoai namespace; returns undo records."""
    package = sys.modules["lcoai"]
    wrappers = {}
    for module, functions in BOUNDARIES.items():
        mod = sys.modules[f"lcoai.{module}"]
        for fn_name in functions:
            original = getattr(mod, fn_name)
            wrappers[id(original)] = tracer.wrap(original, f"{module}.{fn_name}")
    undo = []
    namespaces = [package] + [sys.modules[f"lcoai.{m}"] for m in BOUNDARIES]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if id(value) in wrappers:
                undo.append((namespace, attr, value))
                setattr(namespace, attr, wrappers[id(value)])
    table = sys.modules["lcoai.cli_report"].ReportTable
    undo.append((table, "render", table.render))
    table.render = tracer.wrap(table.render, RENDER_METHOD)
    return undo


def uninstall(undo: list) -> None:
    for namespace, attr, value in reversed(undo):
        setattr(namespace, attr, value)


def summarize(tracer: Tracer, passes: int) -> dict:
    """Per-name call counts, total and self nanoseconds, plus derived counts."""
    names = tracer.names
    calls, total, own = Counter(), Counter(), Counter()
    layer_self = Counter()
    for i in range(len(tracer.start)):
        name = names[tracer.name[i]]
        duration = tracer.end[i] - tracer.start[i]
        calls[name] += 1
        total[name] += duration
        own[name] += duration - tracer.child[i]
        layer_self[name.split(".", 1)[0]] += duration - tracer.child[i]

    breakeven = tracer._ids.get("sensitivity.break_even", -2)
    compute = tracer._ids.get("cost_core.compute_lcoai", -2)
    probes = 0
    for i in range(len(tracer.start)):
        if tracer.name[i] == compute:
            p = tracer.parent[i]
            while p >= 0 and tracer.name[p] != breakeven:
                p = tracer.parent[p]
            probes += p >= 0
    return {"calls": calls, "total_ns": total, "self_ns": own, "layer_self_ns": layer_self,
            "breakeven_probes": probes, "passes": passes}
