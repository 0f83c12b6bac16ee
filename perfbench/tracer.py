"""Span tracing around the calls into each qsc layer, from outside qsc.

Wrappers are installed where the caller looks the name up: ``from .x import
y`` binds ``y`` into the importing module at import time, so wrapping
``qsc.sweep.analyze`` would miss ``qsc.cli.analyze``.  The patch sites are

* ``qsc.cli.parse_state_literal``: state build (catalog layer);
* ``qsc.hermite.tabulate``: every basis table.  ``build_basis_table`` (the
  grid table of an evaluator) reaches it through the hermite module global
  and the box projection calls ``hermite.tabulate``, so this one site counts
  each table once;
* ``qsc.functionals.eval_density`` and ``qsc.functionals.report_from_profile``:
  the names ``FockEvaluator.profile`` and ``ProfileEvaluator.report`` call;
* ``ProfileEvaluator.report`` and ``ProfileEvaluator.cfs`` (class
  attributes, so every evaluator sees them): report lookups, and the
  golden-section evaluations that ``_golden_min`` makes through ``ev.cfs``;
* ``qsc.cli.analyze``: the gfs lattice resolution.

Spans carry the op id, their parent span and the thread, and stay in memory
until the run ends.  Pool threads have no open span, so their spans hang
directly off the op.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, layer) of the plain span wrappers
SPAN_SITES = (
    ("qsc.cli", "parse_state_literal", "catalog.build"),
    ("qsc.hermite", "tabulate", "hermite.table"),
    ("qsc.functionals", "eval_density", "state.density"),
    ("qsc.functionals", "report_from_profile", "functionals.report"),
)


def _table_cells(points, n_max):
    # the same count hermite.tabulate checks against MAX_TABLE_CELLS
    return (n_max + 2) * len(points)


def _density_terms(state, theta, grid, table):
    return state.coeffs.shape[0] * grid.count


WORK = {"hermite.table": _table_cells, "state.density": _density_terms}


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Records spans and counters for the op currently marked active."""

    def __init__(self, modules):
        self._modules = modules          # dotted name -> imported module
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.op = None
        # (op, span, parent, layer, thread, start, end, work terms)
        self.spans = []
        self.lookups = []                # op of each ProfileEvaluator.report call
        self.golden = []                 # op of each ProfileEvaluator.cfs call
        self.resolutions = []            # gfs lattice resolution per analyze

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer, fn):
        work = WORK.get(layer)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((self.op, sid, parent, layer,
                                   threading.get_ident(), start, end,
                                   work(*args, **kwargs) if work else 0))
        return wrapper

    def _report(self, fn):
        def report(ev, *args, **kwargs):
            self.lookups.append(self.op)
            return fn(ev, *args, **kwargs)
        return report

    def _cfs(self, fn):
        def cfs(ev, theta):
            self.golden.append(self.op)
            return fn(ev, theta)
        return cfs

    def _analyze(self, fn):
        def analyze(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.resolutions.append(result.resolution)
            return result
        return analyze

    @contextmanager
    def active(self, op):
        """Install every wrapper for the duration of op ``op``."""
        evaluator = self._modules["qsc.functionals"].ProfileEvaluator
        cli = self._modules["qsc.cli"]
        sites = [(self._modules[mod], attr, self._span(layer, getattr(
                  self._modules[mod], attr))) for mod, attr, layer in SPAN_SITES]
        sites += [(evaluator, "report", self._report(evaluator.report)),
                  (evaluator, "cfs", self._cfs(evaluator.cfs)),
                  (cli, "analyze", self._analyze(cli.analyze))]
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in sites]
        self.op = op
        try:
            for owner, attr, wrapper in sites:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            self.op = None

    def summary(self, op_walls: dict) -> dict:
        """Per-op layer metrics over the traced ops.

        ``op_walls`` maps op id to its (start, end).  Layer times are self
        times (a span minus its child spans), summed over all threads, so a
        layer running on two pool threads can exceed the op wall.  The sweep
        self time is op wall minus the union of every span of the op.
        """
        n_ops = len(op_walls)
        children = defaultdict(list)
        by_op = defaultdict(list)
        density_threads = defaultdict(set)
        for op, _, parent, layer, thread, start, end, _ in self.spans:
            children[parent].append((start, end))
            by_op[op].append((start, end))
            if layer == "state.density":
                density_threads[op].add(thread)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        for op, sid, _, layer, _, start, end, terms in self.spans:
            self_s[layer] += (end - start) - _union(
                (max(lo, start), min(hi, end)) for lo, hi in children[sid])
            calls[layer] += 1
            work[layer] += terms
        sweep_self = sum((end - start) - _union(by_op[op])
                         for op, (start, end) in op_walls.items())
        # a lookup computes at most one report, through report_from_profile
        computed = calls["functionals.report"]
        lookups = len(self.lookups)
        resolutions = self.resolutions
        per_op = lambda x: x / n_ops
        return {
            "catalog.build_s": per_op(self_s["catalog.build"]),
            "catalog.build_calls": per_op(calls["catalog.build"]),
            "hermite.table_s": per_op(self_s["hermite.table"]),
            "hermite.table_cells": per_op(work["hermite.table"]),
            "state.density_s": per_op(self_s["state.density"]),
            "state.density_calls": per_op(calls["state.density"]),
            "state.density_threads": per_op(
                sum(len(t) for t in density_threads.values())),
            # computed from sizes, not measured: a complex K x M
            # contraction for psi and psi' is 8 K M flops and reads
            # 16 K M bytes of table values and derivatives
            "state.density_flops": per_op(8 * work["state.density"]),
            "state.density_bytes": per_op(16 * work["state.density"]),
            "functionals.report_s": per_op(self_s["functionals.report"]),
            "functionals.reports": per_op(calls["functionals.report"]),
            "sweep.self_s": per_op(sweep_self),
            "sweep.angles_per_op": per_op(computed),
            "sweep.gfs_resolution": (sum(resolutions) / len(resolutions)
                                     if resolutions else 0.0),
            "sweep.golden_evals_per_op": per_op(len(self.golden)),
            "sweep.cache_hit_ratio": ((lookups - computed) / lookups
                                      if lookups else 0.0),
        }
