"""Spans around the calls into chromsym's public functions, for the traced run.

`install()` replaces each target function, in every chromsym module namespace
that bound it, with a wrapper that records a span (name, parent, start, end)
and, for a few functions, counters read off the arguments and the result.
The wrapper calls the original object, so a `functools.cache` table stays in
place. A target that no longer exists is skipped and its metrics are absent.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (chromsym module) -> public functions whose calls are timed
TARGETS = {
    "tabloids": ("signed_g_tabloid_counts", "enumerate_srh_tabloids"),
    "posets": (
        "semi_ordered_count",
        "stable_partition_count",
        "has_stable_partition",
        "multipartite_has_stable_partition",
        "multipartite_stable_partition_count",
    ),
    "oracle": ("x_in_monomial", "monomial_to_schur", "kostka"),
    "schur": ("expand_schur", "coeff_report", "positivity_scan"),
    "sequences": ("nsp_chain_union",),
    "classifier": ("classify", "verify_classification"),
    "cli": ("main",),
}

# per-layer metrics reported by the benchmark, in BENCHMARK.json order
ROUTES = ("ww", "tabloid", "tail", "closed", "oracle")
METRICS = (
    ("tabloids.signed_g_tabloid_counts.calls", "count"),
    ("tabloids.signed_g_tabloid_counts.self_s", "s"),
    ("tabloids.signed_g_tabloid_counts.filled", "count"),
    ("tabloids.signed_g_tabloid_counts.net_share", "ratio"),
    ("tabloids.enumerate_srh_tabloids.calls", "count"),
    ("tabloids.enumerate_srh_tabloids.tilings", "count"),
    ("posets.semi_ordered_count.calls", "count"),
    ("posets.semi_ordered_count.distinct", "count"),
    ("posets.semi_ordered_count.self_s", "s"),
    ("posets.stable_partition_count.calls", "count"),
    ("posets.stable_partition_count.self_s", "s"),
    ("posets.has_stable_partition.calls", "count"),
    ("posets.has_stable_partition.self_s", "s"),
    ("posets.multipartite_has_stable_partition.calls", "count"),
    ("posets.multipartite_has_stable_partition.self_s", "s"),
    ("posets.multipartite_stable_partition_count.calls", "count"),
    ("oracle.x_in_monomial.self_s", "s"),
    ("oracle.monomial_to_schur.self_s", "s"),
    ("oracle.kostka.calls", "count"),
    ("oracle.kostka.self_s", "s"),
    ("schur.expand_schur.calls", "count"),
    ("schur.coeff_report.calls", "count"),
    *((f"schur.coeff_report.route_{r}", "count") for r in ROUTES),
    ("schur.positivity_scan.calls", "count"),
    ("sequences.nsp_chain_union.calls", "count"),
    ("sequences.nsp_chain_union.self_s", "s"),
    ("classifier.classify.self_s", "s"),
    ("classifier.verify_classification.self_s", "s"),
    ("cli.main.self_s", "s"),
)


class Recorder:
    """Spans and counters of one operation; reset in each forked child."""

    def __init__(self):
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.pairs: set = set()  # (graph, type) pairs asked of semi_ordered_count
        self._graph_keys: dict[int, tuple] = {}

    def bump(self, key: str, by: int = 1):
        self.counters[key] = self.counters.get(key, 0) + by

    def graph_key(self, graph) -> tuple:
        # keyed by id only while the graph object is held in the tuple
        entry = self._graph_keys.get(id(graph))
        if entry is None or entry[0] is not graph:
            entry = (graph, graph.size, tuple(graph.edges()))
            self._graph_keys[id(graph)] = entry
        return entry[1:]


recorder = Recorder()


def _observe_tabloid_counts(rec, args, result):
    pos, neg = result
    rec.bump("tabloids.signed_g_tabloid_counts.filled", pos + neg)
    rec.bump("tabloids.signed_g_tabloid_counts.net", abs(pos - neg))


def _observe_tilings(rec, args, result):
    rec.bump("tabloids.enumerate_srh_tabloids.tilings", len(result))


def _observe_semi_ordered(rec, args, result):
    rec.pairs.add((rec.graph_key(args[0]), tuple(args[1])))


def _observe_route(rec, args, result):
    rec.bump(f"schur.coeff_report.route_{result.route}")


OBSERVERS = {
    "tabloids.signed_g_tabloid_counts": _observe_tabloid_counts,
    "tabloids.enumerate_srh_tabloids": _observe_tilings,
    "posets.semi_ordered_count": _observe_semi_ordered,
    "schur.coeff_report": _observe_route,
}


def _traced(name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = recorder
        index = len(rec.spans)
        span = [name, rec.stack[-1] if rec.stack else -1, time.perf_counter(), 0.0]
        rec.spans.append(span)
        rec.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            rec.stack.pop()
        if observe:
            try:
                observe(rec, args, result)
            except (TypeError, ValueError, IndexError, AttributeError):
                pass  # a changed signature or result loses the counter, not the call
        return result

    return wrapper


def install() -> list[str]:
    """Wrap every target found; return the names of the wrapped functions."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "chromsym"]
    wrapped = []
    for layer, names in TARGETS.items():
        home = sys.modules.get(f"chromsym.{layer}")
        for fname in names:
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = _traced(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            wrapped.append(f"{layer}.{fname}")
    return wrapped


def reset():
    global recorder
    recorder = Recorder()


def op_summary(rec: Recorder) -> dict:
    """Per-function calls and self time of one operation, plus its counters."""
    child_time = [0.0] * len(rec.spans)
    for name, parent, start, end in rec.spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, _, start, end), inner in zip(rec.spans, child_time):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
    counters = dict(rec.counters)
    if rec.pairs:
        counters["posets.semi_ordered_count.distinct"] = len(rec.pairs)
    return {"calls": calls, "self_s": self_s, "counters": counters}


def pass_metrics(summaries: list[dict], wrapped: list[str]) -> dict[str, float]:
    """Per-layer metrics of one pass from its operations' summaries.

    Metrics of functions that were not wrapped are left out.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for s in summaries:
        for table, part in ((calls, s["calls"]), (self_s, s["self_s"]), (counters, s["counters"])):
            for k, v in part.items():
                table[k] = table.get(k, 0) + v
    out = {}
    for metric, _ in METRICS:
        func, _, what = metric.rpartition(".")
        if func not in wrapped:
            continue
        if what == "calls":
            out[metric] = calls.get(func, 0)
        elif what == "self_s":
            out[metric] = self_s.get(func, 0.0)
        elif what == "net_share":
            filled = counters.get(f"{func}.filled", 0)
            out[metric] = counters.get(f"{func}.net", 0) / filled if filled else 0.0
        else:
            out[metric] = counters.get(metric, 0)
    return out


def layer_self_time(summaries: list[dict]) -> dict[str, float]:
    """Self time summed by layer (the module part of each span name)."""
    out: dict[str, float] = {}
    for s in summaries:
        for name, t in s["self_s"].items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
    return out
