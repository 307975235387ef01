"""Spans recorded from outside the program, by wrapping module attributes.

A wrapper is installed at the name a caller looks up (for example
``isoswarm.cost.visible_mask``, which ``cost.coverage`` calls), so the
program itself is unchanged. Each span records its name, start, end, parent
and campaign cell; the parent stack is kept per thread because campaign
cells run on worker threads. Spans stay in memory until the traced pass
ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from importlib import import_module

# (module, attribute, span name, kind). Only calls that take about 50 us or
# more are wrapped (pair_overlap, for one, is not); kappa_total and
# unpack_swarm are named by the metric list and stay cheap at N <= 7.
WRAPPED = [
    ("isoswarm.cost", "visible_mask", "geometry.visible_mask", "points"),
    ("isoswarm.cost", "coverage", "cost.coverage", None),
    ("isoswarm.cost", "kappa_total", "cost.kappa_total", None),
    ("isoswarm.cost", "information_cost", "cost.information_cost", None),
    ("isoswarm.neldermead", "information_cost", "cost.information_cost", None),
    ("isoswarm.cli", "information_cost", "cost.information_cost", None),
    ("isoswarm.neldermead", "expected_information_cost",
     "cost.expected_information_cost", None),
    ("isoswarm.neldermead", "unpack_swarm", "neldermead.unpack_swarm", None),
    ("isoswarm.neldermead", "nelder_mead", "neldermead.nelder_mead",
     "optresult"),
    ("isoswarm.experiments", "optimize_swarm", "neldermead.optimize_swarm",
     None),
    ("isoswarm.cli", "optimize_swarm", "neldermead.optimize_swarm", None),
    ("isoswarm.experiments", "sample_pois", "sampling.sample_pois", None),
    ("isoswarm.cli", "sample_pois", "sampling.sample_pois", None),
    ("isoswarm.cli", "save_pois", "sampling.save_pois", "written"),
    ("isoswarm.cli", "load_pois", "sampling.load_pois", "read"),
    ("isoswarm.bound", "evaluate_bound", "bound.evaluate_bound", None),
    ("isoswarm.bound", "radius_for_success_probability",
     "bound.radius_for_success_probability", None),
    ("isoswarm.experiments", "_run_view_probability_trial", "experiments.cell",
     "cell"),
    ("isoswarm.experiments", "_run_swarm_size_cell", "experiments.cell",
     "cell"),
    ("isoswarm.experiments", "run_experiment", "experiments.run_experiment",
     None),
    ("isoswarm.cli", "main", "cli.main", None),
]


class Span:
    """One wrapped call; `value` holds what its kind counts."""

    __slots__ = ("name", "parent", "cell", "thread", "start", "end", "child_s",
                 "cpu_s", "value")

    def __init__(self, name, parent, cell, thread):
        self.name = name
        self.parent = parent
        self.cell = cell
        self.thread = thread
        self.child_s = 0.0
        self.cpu_s = 0.0
        self.value = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._cells = 0
        self._cell_lock = threading.Lock()
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.spans = []
        self.absent = []
        for mod_name, attr, name, kind in WRAPPED:
            module = import_module(mod_name)
            orig = getattr(module, attr, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, kind))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.cell = None
        return stack

    def _wrap(self, fn, name, kind):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            local = tracer._local
            outer_cell = local.cell
            if kind == "cell":
                with tracer._cell_lock:
                    tracer._cells += 1
                    local.cell = tracer._cells
            span = Span(name, stack[-1] if stack else None, local.cell,
                        threading.get_ident())
            stack.append(span)
            if kind == "cell":
                cpu0 = time.thread_time()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                if kind == "cell":
                    span.cpu_s = time.thread_time() - cpu0
                    local.cell = outer_cell
                tracer.spans.append(span)
            if kind == "points":
                span.value = len(args[0])
            elif kind == "optresult":
                span.value = (result.evaluation_count, result.iterations,
                              result.converged)
            elif kind == "written":
                span.value = os.path.getsize(args[0])
            elif kind == "read":
                span.value = (os.path.getsize(args[0]), len(result))
            return result

        return wrapper


def layer_metrics(tracer: Tracer, cores_used: float,
                  reported_objective_calls: int) -> dict:
    """Per-layer metrics of one traced pass over the workload's units.

    reported_objective_calls is the program's own evaluation count plus one
    final breakdown call per Nelder-Mead run; the traced count of objective
    calls is compared with it as trace.eval_coverage.
    """
    by = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by.get(name, ()))

    def self_s(*names):
        return sum(s.self_s for n in names for s in by.get(n, ()))

    def total_s(name):
        return sum(s.dur for s in by.get(name, ()))

    m = {}
    pois = sum(s.value for s in by.get("geometry.visible_mask", ()))
    m["geometry.visible_mask.calls"] = calls("geometry.visible_mask")
    m["geometry.visible_mask.self_s"] = self_s("geometry.visible_mask")
    m["geometry.visible_mask.us_per_kpoi"] = (
        1e9 * m["geometry.visible_mask.self_s"] / pois if pois else 0.0)
    m["geometry.pois_tested"] = pois

    n_cost = calls("cost.information_cost")
    m["cost.information_cost.calls"] = n_cost
    m["cost.information_cost.us_per_eval"] = (
        1e6 * total_s("cost.information_cost") / n_cost if n_cost else 0.0)
    m["cost.coverage.self_s"] = self_s("cost.coverage")
    m["cost.kappa_total.self_s"] = self_s("cost.kappa_total")

    runs = by.get("neldermead.nelder_mead", [])
    evals = sum(s.value[0] for s in runs)
    iters = sum(s.value[1] for s in runs)
    m["neldermead.runs"] = len(runs)
    m["neldermead.evaluations"] = evals
    m["neldermead.iterations"] = iters
    m["neldermead.converged_ratio"] = (
        sum(s.value[2] for s in runs) / len(runs) if runs else 0.0)
    m["neldermead.evals_per_iteration"] = evals / iters if iters else 0.0
    m["neldermead.self_s"] = self_s("neldermead.nelder_mead",
                                    "neldermead.optimize_swarm")
    m["neldermead.unpack_swarm.self_s"] = self_s("neldermead.unpack_swarm")

    for op in ("sample_pois", "save_pois", "load_pois"):
        m[f"sampling.{op}.self_s"] = self_s(f"sampling.{op}")
    loads = by.get("sampling.load_pois", [])
    load_s = total_s("sampling.load_pois")
    m["sampling.load_pois.rows_per_s"] = (
        sum(s.value[1] for s in loads) / load_s if load_s else 0.0)
    m["sampling.bytes_written"] = sum(
        s.value for s in by.get("sampling.save_pois", ()))
    m["sampling.bytes_read"] = sum(s.value[0] for s in loads)

    for op in ("evaluate_bound", "radius_for_success_probability"):
        m[f"bound.{op}.calls"] = calls(f"bound.{op}")
        m[f"bound.{op}.self_s"] = self_s(f"bound.{op}")

    cells = by.get("experiments.cell", [])
    durs = sorted(s.dur for s in cells)
    # Cells run on pool threads without a parent span; a campaign's cells
    # are those inside its run_experiment interval.
    campaigns = [(r, [c for c in cells if r.start <= c.start < c.end <= r.end])
                 for r in by.get("experiments.run_experiment", ())]
    campaigns = [(r, cs) for r, cs in campaigns if cs]
    m["experiments.cells"] = len(cells)
    m["experiments.workers"] = max(
        (len({c.thread for c in cs}) for _, cs in campaigns), default=0)
    m["experiments.cell_s.p50"] = statistics.median(durs) if durs else 0.0
    m["experiments.cell_s.max"] = durs[-1] if durs else 0.0
    m["experiments.cell_wait_s"] = sum(s.dur - s.cpu_s for s in cells)
    m["experiments.cores_used"] = cores_used
    m["experiments.critical_path_share"] = statistics.median(
        max(c.dur for c in cs) / r.dur for r, cs in campaigns
    ) if campaigns else 0.0

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")

    # An objective call is a cost evaluation made by the optimizer itself:
    # the deterministic cost under nelder_mead or its final breakdown under
    # optimize_swarm, or one expected-cost evaluation under nelder_mead.
    nm = {"neldermead.nelder_mead", "neldermead.optimize_swarm"}
    traced = sum(1 for s in tracer.spans
                 if s.name in ("cost.information_cost",
                               "cost.expected_information_cost")
                 and s.parent is not None and s.parent.name in nm)
    m["trace.eval_coverage"] = (traced / reported_objective_calls
                                if reported_objective_calls else 0.0)
    return m


def absent_layers(tracer: Tracer) -> list[str]:
    """Layers with a wrapped name that no longer exists in the program."""
    missing = set(tracer.absent)
    return sorted({name.split(".")[0] for mod, attr, name, _ in WRAPPED
                   if f"{mod}.{attr}" in missing})


UNITS = {
    "geometry.visible_mask.calls": "count",
    "geometry.visible_mask.self_s": "s",
    "geometry.visible_mask.us_per_kpoi": "us",
    "geometry.pois_tested": "count",
    "cost.information_cost.calls": "count",
    "cost.information_cost.us_per_eval": "us",
    "cost.coverage.self_s": "s",
    "cost.kappa_total.self_s": "s",
    "neldermead.runs": "count",
    "neldermead.evaluations": "count",
    "neldermead.iterations": "count",
    "neldermead.converged_ratio": "1",
    "neldermead.evals_per_iteration": "1",
    "neldermead.self_s": "s",
    "neldermead.unpack_swarm.self_s": "s",
    "sampling.sample_pois.self_s": "s",
    "sampling.save_pois.self_s": "s",
    "sampling.load_pois.self_s": "s",
    "sampling.load_pois.rows_per_s": "1/s",
    "sampling.bytes_written": "B",
    "sampling.bytes_read": "B",
    "bound.evaluate_bound.calls": "count",
    "bound.evaluate_bound.self_s": "s",
    "bound.radius_for_success_probability.calls": "count",
    "bound.radius_for_success_probability.self_s": "s",
    "experiments.cells": "count",
    "experiments.workers": "count",
    "experiments.cell_s.p50": "s",
    "experiments.cell_s.max": "s",
    "experiments.cell_wait_s": "s",
    "experiments.cores_used": "1",
    "experiments.critical_path_share": "1",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.eval_coverage": "1",
}
