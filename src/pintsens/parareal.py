"""Parallel-in-time orchestration with pluggable coarse and fine propagators.

The interface update per iteration is

    X[n, k+1] = F(X[n-1, k]) + G(X[n-1, k+1]) - G(X[n-1, k]),

applied left to right, where F is the fine and G the coarse propagator.
Iteration 0 seeds all interfaces with a serial coarse sweep.  Fine
propagations within an iteration are independent and may run on a worker
pool; results are deterministic regardless of scheduling.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .transient import SolverError, TimeGrid


class Propagator:
    """Evolves a state over a subinterval.  Deterministic: the end state
    depends only on (state, t_start, t_end)."""

    def evolve(self, state: np.ndarray, t_start: float, t_end: float):
        """Return (end_state, piece); piece is (times, states, derivs) arrays
        covering the subinterval, or None if not recorded.  The orchestrator
        reads only a fine piece's states, one row per grid point of the
        subinterval, both ends included."""
        raise NotImplementedError


@dataclass(frozen=True)
class PararealConfig:
    n_subintervals: int
    tol: float = 1e-8
    max_iter: Optional[int] = None        # defaults to n_subintervals
    coarse_stride: int = 100

    def __post_init__(self):
        if self.n_subintervals < 1:
            raise ValueError("need at least one subinterval")
        if self.coarse_stride < 1:
            raise ValueError("coarse_stride must be >= 1")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 <= self.tol < math.inf:        # also rejects NaN
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")


@dataclass
class PararealReport:
    n_subintervals: int
    iterations: int = 0
    jump_history: list = field(default_factory=list)
    coarse_time_s: float = 0.0
    fine_times_s: list = field(default_factory=list)   # per-subinterval means
    total_wall_s: float = 0.0
    converged: bool = True
    interface_states: list = field(default_factory=list)   # after final update

    def to_json(self) -> str:
        """Every field but ``interface_states``, in field order."""
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)
                           if f.name != "interface_states"})


def partition(grid: TimeGrid, n: int):
    """Split the grid into n contiguous subintervals with sizes differing by
    at most one fine step; boundaries lie on grid points."""
    steps = grid.n_steps
    if n > steps:
        raise ValueError(f"cannot split {steps} steps into {n} subintervals")
    base, rem = divmod(steps, n)
    subs = []
    k = 0
    times = grid.times
    for i in range(n):
        size = base + (1 if i < rem else 0)
        subs.append((times[k], times[k + size], k, k + size))
        k += size
    return subs


def jump_norm(old_states, new_states) -> float:
    """Max over interfaces of ||new - old||_inf / (1 + ||new||_inf); NaN if
    any interface's jump is NaN."""
    if len(old_states) != len(new_states):
        raise ValueError("interface lists differ in length")
    jumps = []
    for old, new in zip(old_states, new_states):
        old = np.atleast_1d(np.asarray(old, dtype=float))
        new = np.atleast_1d(np.asarray(new, dtype=float))
        jumps.append(np.max(np.abs(new - old)) / (1.0 + np.max(np.abs(new))))
    return float(np.max(jumps, initial=0.0))


def _stitch(pieces, subs, shape) -> np.ndarray:
    """The pieces' states on one grid; each interface point is owned by the
    piece on its left."""
    states = np.empty((subs[-1][3] + 1, *shape))
    states[0] = pieces[0][1][0]
    for (_, p_states, _), (_, _, k0, k1) in zip(pieces, subs):
        states[k0 + 1: k1 + 1] = p_states[1:]
    return states


def parareal_solve(fine: Propagator, coarse: Propagator, x0, grid: TimeGrid,
                   cfg: PararealConfig, workers: int = 1):
    """Run the parareal iteration; returns the stitched fine states of the
    final iteration, shape (n_steps + 1, *x0.shape), and a PararealReport.
    Fine propagations run on one pool of ``workers`` threads for the whole
    solve, or on the calling thread when ``workers`` is 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = cfg.n_subintervals
    max_iter = cfg.max_iter if cfg.max_iter is not None else n
    subs = partition(grid, n)
    report = PararealReport(n_subintervals=n)
    wall_start = time.perf_counter()

    # iteration 0: serial coarse sweep seeds the interface states
    tic = time.perf_counter()
    X = [x0]
    g_prev = []
    for t_start, t_end, _, _ in subs:
        g, _ = coarse.evolve(X[-1], t_start, t_end)
        g_prev.append(g)
        X.append(g)
    report.coarse_time_s += time.perf_counter() - tic

    def fine_task(state, sub):
        tic = time.perf_counter()
        end, piece = fine.evolve(state, sub[0], sub[1])
        return end, piece, time.perf_counter() - tic

    fine_sums = np.zeros(n)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        fine_map = map if pool is None else pool.map
        for _ in range(max_iter):
            fine_ends, pieces, task_times = zip(*fine_map(fine_task, X[:-1], subs))
            fine_sums += task_times

            tic = time.perf_counter()
            X_new = [x0]
            for i, (t_start, t_end, _, _) in enumerate(subs):
                g_new, _ = coarse.evolve(X_new[-1], t_start, t_end)
                X_new.append(fine_ends[i] + g_new - g_prev[i])
                g_prev[i] = g_new
            report.coarse_time_s += time.perf_counter() - tic

            report.iterations += 1
            jump = jump_norm(X[1:], X_new[1:])
            report.jump_history.append(jump)
            if not math.isfinite(jump):
                raise SolverError(f"parareal iteration {report.iterations}: "
                                  f"interface jump is {jump}")
            X = X_new
            if jump <= cfg.tol:
                break

    report.converged = jump <= cfg.tol or max_iter >= n  # exact after n sweeps
    report.interface_states = [x.copy() for x in X]
    report.fine_times_s = list(fine_sums / report.iterations)
    report.total_wall_s = time.perf_counter() - wall_start
    return _stitch(pieces, subs, x0.shape), report
