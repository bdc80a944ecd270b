"""Span tracing from outside the program, and per-layer metrics from spans.

The tracer wraps public functions and methods of the ``pintsens`` modules
and the linear-algebra entry points they call.  A layer is the defining
module of the wrapped callable (``netlist``, ``mna``, ``transient``,
``adjoint``, ``parareal``, ``propagators``, ``spectral``); the op itself is
the root span, layer ``bench``.  Linear-algebra calls get no span of their
own: their count and time are attributed to the enclosing layer span.

Modules bind names with ``from .x import y``, so a function is replaced at
every binding site in every loaded ``pintsens`` module, and restored on
``remove()``.  Spans carry an op id and a thread id; a span opened on a
worker thread with no open span of its own takes the innermost open span of
the op's main thread as parent, so parareal fine tasks nest under
``parareal_solve``.  Spans stay in memory until ``write_csv``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("bench", "netlist", "mna", "transient", "adjoint", "parareal",
          "propagators", "spectral")

FUNCTIONS = (
    ("pintsens.netlist", "parse_netlist"),
    ("pintsens.mna", "assemble"),
    ("pintsens.transient", "dc_operating_point"),
    ("pintsens.transient", "integrate"),
    ("pintsens.adjoint", "sensitivity_series"),
    ("pintsens.adjoint", "solve_adjoint"),
    ("pintsens.adjoint", "pointwise_sensitivity"),
    ("pintsens.parareal", "parareal_solve"),
    ("pintsens.propagators", "parareal_adjoint_solve"),
    ("pintsens.spectral", "rank_parameters"),
    ("pintsens.spectral", "normalize_relative"),
    ("pintsens.spectral", "welch_psd"),
    ("pintsens.spectral", "ranking_to_json"),
)

METHODS = (
    ("pintsens.mna", "StampedSystem", "eval_nonlinear"),
    ("pintsens.mna", "StampedSystem", "conductance_at"),
    ("pintsens.adjoint", "AdjointCache", "solve"),
    ("pintsens.adjoint", "SensitivitySeries", "write_csv"),
    ("pintsens.spectral", "PowerSpectrum", "write_csv"),
    ("pintsens.propagators", "FineForwardPropagator", "evolve"),
    ("pintsens.propagators", "CoarseForwardPropagator", "evolve"),
    ("pintsens.propagators", "FineAdjointPropagator", "evolve"),
    ("pintsens.propagators", "CoarseAdjointPropagator", "evolve"),
)

# (module, name, backend, factorizations per call, solves per call)
LINALG = (
    ("numpy.linalg", "solve", "dense", 1, 1),
    ("scipy.linalg", "solve", "dense", 1, 1),
    ("scipy.linalg", "lu_factor", "dense", 1, 0),
    ("scipy.linalg", "lu_solve", "dense", 0, 1),
    ("scipy.sparse.linalg", "spsolve", "sparse", 1, 1),
    ("scipy.sparse.linalg", "splu", "sparse", 1, 0),
)

FINE_EVOLVE = ("FineForwardPropagator.evolve", "FineAdjointPropagator.evolve")
COARSE_EVOLVE = ("CoarseForwardPropagator.evolve", "CoarseAdjointPropagator.evolve")


class Span:
    __slots__ = ("id", "parent", "op", "thread", "layer", "name", "start",
                 "end", "factor_calls", "solve_calls", "dense_s", "sparse_s")

    def __init__(self, id_, parent, op, layer, name):
        self.id = id_
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.layer = layer
        self.name = name
        self.factor_calls = 0
        self.solve_calls = 0
        self.dense_s = 0.0
        self.sparse_s = 0.0
        self.start = self.end = 0.0


class _CountingLU:
    """Stands in for a SuperLU factorization so its solves are counted."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, trans="N"):
        tic = time.perf_counter()
        out = self._lu.solve(rhs, trans)
        self._tracer._charge("sparse", 0, 1, time.perf_counter() - tic)
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._op = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _open(self, layer, name):
        parent = self._current()
        span = Span(next(self._ids), parent.id if parent else None,
                    self._op, layer, name)
        self._stack().append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _charge(self, backend, factors, solves, seconds):
        span = self._current()
        if span is None:
            return
        span.factor_calls += factors
        span.solve_calls += solves
        if backend == "sparse":
            span.sparse_s += seconds
        else:
            span.dense_s += seconds

    @contextmanager
    def op(self, op_id):
        """The root span of one op, opened on the main thread."""
        self._op = op_id
        self._main_stack = self._stack()
        span = self._open("bench", "op")
        try:
            yield span
        finally:
            self._close(span)

    # -- patching ----------------------------------------------------------

    def _traced(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _traced_linalg(self, fn, name, backend, factors, solves):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(local, "in_linalg", False):     # nested entry point
                return fn(*args, **kwargs)
            local.in_linalg = True
            tic = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                local.in_linalg = False
            tracer._charge(backend, factors, solves, time.perf_counter() - tic)
            if name == "splu":
                out = _CountingLU(tracer, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, original, replacement, extra=()):
        """Replace `original` at every module-level binding site."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pintsens" or n.startswith("pintsens."))]
        for module in [*modules, *extra]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, name in FUNCTIONS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, name)
            layer = mod_name.rsplit(".", 1)[1]
            self._bind_everywhere(fn, self._traced(fn, layer, name))
        for mod_name, cls_name, name in METHODS:
            module = importlib.import_module(mod_name)
            cls = getattr(module, cls_name)
            layer = mod_name.rsplit(".", 1)[1]
            self._set(cls, name, self._traced(getattr(cls, name), layer,
                                              f"{cls_name}.{name}"))
        for mod_name, name, backend, factors, solves in LINALG:
            module = importlib.import_module(mod_name)
            fn = getattr(module, name)
            self._bind_everywhere(fn, self._traced_linalg(fn, name, backend, factors, solves),
                                  extra=(module,))

    def remove(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        """All spans recorded, one per line, times relative to the first."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("op,id,parent,thread,layer,name,start_s,end_s,"
                    "factor_calls,solve_calls,dense_linalg_s,sparse_linalg_s\n")
            for s in sorted(self.spans, key=lambda s: (s.op, s.start)):
                f.write(f"{s.op},{s.id},{s.parent or ''},{s.thread},{s.layer},"
                        f"{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                        f"{s.factor_calls},{s.solve_calls},"
                        f"{s.dense_s:.9f},{s.sparse_s:.9f}\n")


# -- analysis ----------------------------------------------------------------

def _merge(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


def self_times(spans):
    """Self time per layer.  A span's exclusive intervals are its own
    interval minus the union of its children's.  Where exclusive intervals
    of several threads overlap, wall time is split evenly among them, so the
    self times of all layers sum to the root span's duration."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    index = {layer: i for i, layer in enumerate(LAYERS)}
    times, deltas, layers = [], [], []
    for s in spans:
        cursor = s.start
        for a, b in _merge(children.get(s.id, ())):
            if a > cursor:
                times += (cursor, a)
                deltas += (1, -1)
                layers += (index[s.layer],) * 2
            cursor = max(cursor, b)
        if s.end > cursor:
            times += (cursor, s.end)
            deltas += (1, -1)
            layers += (index[s.layer],) * 2
    if not times:
        return dict.fromkeys(LAYERS, 0.0)
    t = np.asarray(times)
    order = np.argsort(t, kind="stable")
    t = t[order]
    onehot = np.zeros((len(t), len(LAYERS)))
    onehot[np.arange(len(t)), np.asarray(layers)[order]] = np.asarray(deltas)[order]
    active = np.cumsum(onehot, axis=0)[:-1]
    total = active.sum(axis=1)
    dt = np.diff(t)
    share = np.divide(dt, total, out=np.zeros_like(dt), where=total > 0)
    per_layer = (active * share[:, None]).sum(axis=0)
    return {layer: float(v) for layer, v in zip(LAYERS, per_layer)}


def op_layer_metrics(spans, op, workers):
    """Per-layer metrics of one traced op.  `op` is its OpResult."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    factor = defaultdict(int)
    solve = defaultdict(int)
    dense_s = sparse_s = 0.0
    for s in spans:
        dur[s.name] += s.end - s.start
        calls[s.name] += 1
        factor[s.layer] += s.factor_calls
        solve[s.layer] += s.solve_calls
        dense_s += s.dense_s
        sparse_s += s.sparse_s
    own = self_times(spans)
    root = next(s for s in spans if s.parent is None)
    pipeline = root.end - root.start

    fine = [s for s in spans if s.name in FINE_EVOLVE]
    parareal_wall = dur["parareal_solve"]
    fine_busy = sum(b - a for a, b in _merge((s.start, s.end) for s in fine))
    n_eval = calls["StampedSystem.eval_nonlinear"]
    n_sweeps = calls["solve_adjoint"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "netlist.parse_s": dur["parse_netlist"],
        "mna.assemble_s": dur["assemble"],
        "mna.eval_nonlinear_calls": n_eval,
        "mna.eval_nonlinear_us": 1e6 * ratio(dur["StampedSystem.eval_nonlinear"], n_eval),
        "mna.conductance_at_calls": calls["StampedSystem.conductance_at"],
        "mna.self_s": own["mna"],
        "transient.dc_op_s": dur["dc_operating_point"],
        "transient.step_us": 1e6 * ratio(dur["integrate"], op.steps),
        "transient.newton_iters_per_step": ratio(op.newton_iters, op.steps),
        "transient.factor_calls": factor["transient"],
        "transient.self_s": own["transient"],
        "adjoint.sweep_s_per_instant": ratio(dur["solve_adjoint"], n_sweeps),
        "adjoint.factor_calls": factor["adjoint"],
        "adjoint.solve_calls": solve["adjoint"],
        "adjoint.solves_per_factor": ratio(solve["adjoint"], factor["adjoint"]),
        "adjoint.quadrature_s": dur["pointwise_sensitivity"],
        "adjoint.n_adjoint_solves": op.n_adjoint_solves,
        "adjoint.self_s": own["adjoint"],
        "parareal.iterations": sum(op.parareal_iterations),
        "parareal.coarse_s": sum(dur[n] for n in COARSE_EVOLVE),
        "parareal.fine_s": sum(dur[n] for n in FINE_EVOLVE),
        "parareal.serial_frac": ratio(parareal_wall - fine_busy, parareal_wall),
        "parareal.worker_util": ratio(sum(dur[n] for n in FINE_EVOLVE),
                                      parareal_wall * workers),
        "propagators.fine_evolve_calls": sum(calls[n] for n in FINE_EVOLVE),
        "propagators.coarse_evolve_calls": sum(calls[n] for n in COARSE_EVOLVE),
        "propagators.factor_calls": factor["propagators"],
        "propagators.self_s": own["propagators"],
        "spectral.self_s": own["spectral"],
        "linalg.dense_s": dense_s,
        "linalg.sparse_s": sparse_s,
        "trace.spans": len(spans),
        "trace.unattributed_frac": ratio(own["bench"], pipeline),
        # checked by the caller, not reported
        "_pipeline_s": pipeline,
        "_self_sum_s": sum(own.values()),
        "_shares": {k: ratio(v, pipeline) for k, v in own.items()},
    }


# count metrics that must repeat exactly between traced ops
COUNT_METRICS = (
    "mna.eval_nonlinear_calls", "mna.conductance_at_calls",
    "transient.newton_iters_per_step", "transient.factor_calls",
    "adjoint.factor_calls", "adjoint.solve_calls", "adjoint.n_adjoint_solves",
    "parareal.iterations", "propagators.fine_evolve_calls",
    "propagators.coarse_evolve_calls", "propagators.factor_calls",
    "trace.spans",
)
