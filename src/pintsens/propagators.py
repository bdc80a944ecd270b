"""Fine and coarse circuit propagators for the parallel-in-time solver.

The forward propagator wraps the transient integrator with the timestep
widened by the coarse stride.  The adjoint propagator evolves the (n, 2)
block [mu, lam] of ``adjoint.backward_steps`` backward in time, expressed
on the reversed axis sigma = t_m - t so the orchestrator always sees an
initial value problem running left to right, with the solve's
``AdjointCache``.  Both step a subinterval's whole fine steps in equal
coarse ones, and the fine propagator of each is its stride-1 case.
"""

from __future__ import annotations

import warnings

import numpy as np

from .adjoint import AdjointCache, AdjointSolution, Qoi, backward_steps
from .mna import StampedSystem
from .parareal import PararealReport, parareal_solve
from .transient import TimeGrid, Trajectory, derivatives, integrate


def _coarse_substeps(steps: int, stride: int) -> int:
    n = round(steps / stride)
    if n < 1:
        warnings.warn("coarse stride exceeds subinterval length; "
                      "degenerating to a single coarse step")
    return max(n, 1)


class CoarseForwardPropagator:
    """Transient steps over a subinterval, each about ``stride`` fine steps
    wide: the subinterval's whole fine steps split into equal coarse ones,
    as the adjoint propagator splits them."""

    def __init__(self, sys: StampedSystem, dt: float, stride: int,
                 scheme="implicit_euler"):
        self.sys = sys
        self.dt = dt
        self.stride = stride
        self.scheme = scheme

    def evolve(self, state, t_start, t_end):
        steps = TimeGrid(t_start, t_end, self.dt).n_steps
        n = _coarse_substeps(steps, self.stride)
        grid = TimeGrid(t_start, t_end, self.dt * (steps / n))
        traj = integrate(self.sys, state, grid, scheme=self.scheme)
        return traj.states[-1], (traj.times, traj.states, traj.derivs)


class FineForwardPropagator(CoarseForwardPropagator):
    """The stride-1 case: every fine step, so the step width is dt and the
    piece is the fine solution on the subinterval."""

    # an attribute of its own, so that wrapping one class's evolve (timing
    # fine and coarse apart) leaves the other's alone
    evolve = CoarseForwardPropagator.evolve

    def __init__(self, sys: StampedSystem, dt: float, scheme="implicit_euler"):
        super().__init__(sys, dt, 1, scheme)


class CoarseAdjointPropagator:
    """Backward implicit-Euler steps of the block [mu, lam] on the reversed
    axis, each about ``stride`` fine steps wide: one ``backward_steps``
    call over the subinterval, each step linearized at the fine grid point
    where it ends, as in ``solve_adjoint``."""

    def __init__(self, cache: AdjointCache, m_index: int, e_u: np.ndarray,
                 stride: int):
        self.cache = cache
        self.m_index = m_index
        self.e_u = e_u
        self.stride = stride

    def evolve(self, state, s_start, s_end):
        cache = self.cache
        dt = cache.dt
        index_of = cache.traj.grid.index_of
        k_hi = self.m_index - index_of(s_start)
        steps = index_of(s_end) - index_of(s_start)
        n_sub = _coarse_substeps(steps, self.stride)
        ks = [k_hi - int(round(j * steps / n_sub)) for j in range(n_sub + 1)]
        X = np.array(state, order="F")
        states = np.empty((n_sub + 1, *X.shape))
        for j, _ in enumerate(backward_steps(cache, X, ks, dt * (steps / n_sub),
                                             self.e_u, lam=True)):
            states[j] = X
        times = s_start + dt * (k_hi - np.array(ks))
        return states[-1], (times, states, None)


class FineAdjointPropagator(CoarseAdjointPropagator):
    """The stride-1 case: every fine step, so dt_c == dt and the recorded
    states are the fine solution on the subinterval."""

    # an attribute of its own, so that wrapping one class's evolve (timing
    # fine and coarse apart) leaves the other's alone
    evolve = CoarseAdjointPropagator.evolve

    def __init__(self, cache: AdjointCache, m_index: int, e_u: np.ndarray):
        super().__init__(cache, m_index, e_u, 1)


def parareal_integrate(sys: StampedSystem, x0, grid: TimeGrid, cfg,
                       scheme: str = "implicit_euler", workers: int = 1):
    """Forward transient solve through the parareal orchestrator: the
    stitched states, their ``derivatives`` as ``integrate`` takes them and
    no Newton count (``newton_iters`` 0) in a Trajectory, and the report."""
    fine = FineForwardPropagator(sys, grid.dt, scheme)
    coarse = CoarseForwardPropagator(sys, grid.dt, cfg.coarse_stride, scheme)
    states, report = parareal_solve(fine, coarse, x0, grid, cfg, workers=workers)
    return Trajectory(grid, states, derivatives(states, grid.dt, scheme)), report


def parareal_adjoint_solve(sys: StampedSystem, traj: Trajectory, t_m: float,
                           qoi: Qoi, cfg, workers: int = 1):
    """Backward adjoint solve for one analyzed instant through parareal.

    The block [mu, lam] of ``backward_steps`` is propagated on the reversed
    time axis from the stepper's first point at t_m.  The activation and
    both propagators share one ``AdjointCache``, so each linearization is
    factorized once for all iterations.
    """
    grid = traj.grid
    m = grid.index_of(t_m)
    n = sys.n
    dt = grid.dt
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if m == 0:
        return (AdjointSolution(t_m, 0, grid, *np.zeros((2, 1, n))),
                PararealReport(n_subintervals=cfg.n_subintervals))

    cache = AdjointCache(sys, traj)
    e_u = qoi.vector(sys.dofs)
    # the stepper's first point: lam(t_m) = 0 and mu(t_m) switched on
    X = np.zeros((n, 2), order="F")
    next(backward_steps(cache, X, (m, m - 1), dt, e_u, instants=(m,), lam=True))

    sigma_grid = TimeGrid(grid.t0, grid.t0 + (t_m - grid.t0), dt)
    fine = FineAdjointPropagator(cache, m, e_u)
    coarse = CoarseAdjointPropagator(cache, m, e_u, cfg.coarse_stride)
    states, report = parareal_solve(fine, coarse, X, sigma_grid, cfg,
                                    workers=workers)
    # sigma-ordered rows back onto the forward grid: index k <-> sigma m-k;
    # row m is the activated block itself, so lam[m] == 0 exactly
    states = states[::-1]
    return AdjointSolution(t_m, m, grid, states[..., 1].copy(),
                           states[..., 0].copy()), report
