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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .transient import TimeGrid, Trajectory


class Propagator:
    """Evolves a state over a subinterval.  Deterministic: the end state
    depends only on (state, t_start, t_end)."""

    def evolve(self, state: np.ndarray, t_start: float, t_end: float):
        """Return (end_state, piece); piece is (times, states, derivs) arrays
        covering the subinterval, or None if not recorded."""
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
    """Max over interfaces of ||new - old||_inf / (1 + ||new||_inf)."""
    if len(old_states) != len(new_states):
        raise ValueError("interface lists differ in length")
    worst = 0.0
    for old, new in zip(old_states, new_states):
        old = np.atleast_1d(np.asarray(old, dtype=float))
        new = np.atleast_1d(np.asarray(new, dtype=float))
        j = np.max(np.abs(new - old)) / (1.0 + np.max(np.abs(new)))
        worst = max(worst, j)
    return worst


def _run_fine(fine, states, subs, workers):
    """Fine propagation of all subintervals from given start states.
    Returns (end_states, pieces, per-task times)."""

    def task(i):
        t_start, t_end, _, _ = subs[i]
        tic = time.perf_counter()
        end, piece = fine.evolve(states[i], t_start, t_end)
        return end, piece, time.perf_counter() - tic

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(len(subs))))
    else:
        results = [task(i) for i in range(len(subs))]
    ends = [r[0] for r in results]
    pieces = [r[1] for r in results]
    times = [r[2] for r in results]
    return ends, pieces, times


def _stitch(pieces, grid: TimeGrid, subs, n_dim) -> Trajectory:
    states = np.empty((grid.n_steps + 1, n_dim))
    derivs = np.zeros((grid.n_steps + 1, n_dim))
    for piece, (_, _, k0, k1) in zip(pieces, subs):
        times, p_states, p_derivs = piece
        start = 0 if k0 == 0 else 1     # interface point owned by left piece
        states[k0 + start: k1 + 1] = p_states[start:]
        if p_derivs is not None:
            derivs[k0 + start: k1 + 1] = p_derivs[start:]
    return Trajectory(grid, states, derivs)


def parareal_solve(fine: Propagator, coarse: Propagator, x0, grid: TimeGrid,
                   cfg: PararealConfig, workers: int = 1):
    """Run the parareal iteration; returns the stitched fine Trajectory of
    the final iteration and a PararealReport."""
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

    pieces = None
    converged = False
    fine_sums = np.zeros(n)
    for _ in range(max_iter):
        starts = X[:-1]
        fine_ends, pieces, task_times = _run_fine(fine, starts, subs, workers)
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
        X = X_new
        if jump <= cfg.tol:
            converged = True
            break

    report.converged = converged or max_iter >= n  # exact after n sweeps
    report.interface_states = [x.copy() for x in X]
    report.fine_times_s = list(fine_sums / report.iterations) \
        if report.iterations else []
    report.total_wall_s = time.perf_counter() - wall_start
    traj = _stitch(pieces, grid, subs, x0.shape[0]) if pieces is not None else None
    return traj, report

