"""Fine and coarse circuit propagators for the parallel-in-time solver.

Forward propagators wrap the transient integrator at full resolution (fine)
or with the timestep widened by the coarse stride (coarse).  The adjoint
propagator evolves the stacked state [lam; mu] backward in time, expressed
on the reversed axis sigma = t_m - t so the orchestrator always sees an
initial value problem running left to right; the fine one is its stride-1
case, and both take their step matrices from the solve's ``AdjointCache``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .adjoint import AdjointCache, AdjointSolution, Qoi
from .mna import StampedSystem
from .parareal import PararealReport, parareal_solve
from .transient import TimeGrid, Trajectory, integrate


def _coarse_substeps(length: float, dt_fine: float, stride: int) -> int:
    steps = length / dt_fine
    n = int(round(steps / stride))
    if n < 1:
        warnings.warn("coarse stride exceeds subinterval length; "
                      "degenerating to a single coarse step")
        n = 1
    return n


class FineForwardPropagator:
    def __init__(self, sys: StampedSystem, dt: float, scheme="implicit_euler"):
        self.sys = sys
        self.dt = dt
        self.scheme = scheme

    def evolve(self, state, t_start, t_end):
        grid = TimeGrid(t_start, t_end, self.dt)
        traj = integrate(self.sys, state, grid, scheme=self.scheme)
        piece = (traj.times, traj.states, traj.derivs)
        return traj.states[-1], piece


class CoarseForwardPropagator:
    def __init__(self, sys: StampedSystem, dt: float, stride: int,
                 scheme="implicit_euler"):
        self.sys = sys
        self.dt = dt
        self.stride = stride
        self.scheme = scheme

    def evolve(self, state, t_start, t_end):
        n = _coarse_substeps(t_end - t_start, self.dt, self.stride)
        grid = TimeGrid(t_start, t_end, (t_end - t_start) / n)
        traj = integrate(self.sys, state, grid, scheme=self.scheme)
        return traj.states[-1], None


class CoarseAdjointPropagator:
    """Backward implicit-Euler steps for the stacked [lam; mu] state on the
    reversed axis, each about ``stride`` fine steps wide.  A step that ends
    at fine grid point k is linearized there, as in ``solve_adjoint``; the
    step matrices come from the solve's shared ``AdjointCache``."""

    def __init__(self, cache: AdjointCache, m_index: int, e_u: np.ndarray,
                 stride: int):
        self.cache = cache
        self.m_index = m_index
        self.e_u = e_u
        self.stride = stride

    def evolve(self, state, s_start, s_end):
        cache = self.cache
        dt = cache.dt
        t0 = cache.traj.grid.t0
        n = cache.sys.n
        k_hi = self.m_index - int(round((s_start - t0) / dt))
        k_lo = self.m_index - int(round((s_end - t0) / dt))
        steps = k_hi - k_lo
        n_sub = _coarse_substeps(s_end - s_start, dt, self.stride)
        dt_c = dt * (steps / n_sub)
        ks = [k_hi - int(round(j * steps / n_sub)) for j in range(n_sub + 1)]
        lam = np.asarray(state[:n], dtype=float)
        mu = np.asarray(state[n:], dtype=float)
        states = np.empty((n_sub + 1, 2 * n))
        states[0] = state
        JcT = cache.JcT
        for j, k in enumerate(ks[1:], 1):
            rhs = np.column_stack([JcT @ lam / dt_c - self.e_u, JcT @ mu / dt_c])
            sol = cache.factor(k, dt_c).solve(rhs, trans=True)
            lam, mu = sol[:, 0], sol[:, 1]
            states[j] = np.concatenate([lam, mu])
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
    """Forward transient solve through the parareal orchestrator."""
    fine = FineForwardPropagator(sys, grid.dt, scheme)
    coarse = CoarseForwardPropagator(sys, grid.dt, cfg.coarse_stride, scheme)
    return parareal_solve(fine, coarse, x0, grid, cfg, workers=workers)


def parareal_adjoint_solve(sys: StampedSystem, traj: Trajectory, t_m: float,
                           qoi: Qoi, cfg, workers: int = 1):
    """Backward adjoint solve for one analyzed instant through parareal.

    The stacked [lam; mu] state is propagated on the reversed time axis; the
    terminal value of mu comes from one sequential fine step at t_m.  The
    activation step and both propagators share one ``AdjointCache``, so
    each linearization is factorized once for all iterations.
    """
    grid = traj.grid
    m = grid.index_of(t_m)
    n = sys.n
    dt = grid.dt
    if m == 0:
        zeros = np.zeros((1, n))
        adj = AdjointSolution(t_m, 0, grid, zeros.copy(), zeros.copy())
        return adj, PararealReport(n_subintervals=cfg.n_subintervals)

    cache = AdjointCache(sys, traj)
    e_u = qoi.vector(sys.dofs)
    # one fine step fixes lam(t_{m-1}) and with it mu(t_m) = lam(t_{m-1})/dt
    lam_prev = cache.factor(m - 1).solve(-e_u, trans=True)
    x0 = np.concatenate([np.zeros(n), lam_prev / dt])

    sigma_grid = TimeGrid(grid.t0, grid.t0 + (t_m - grid.t0), dt)
    fine = FineAdjointPropagator(cache, m, e_u)
    coarse = CoarseAdjointPropagator(cache, m, e_u, cfg.coarse_stride)
    stitched, report = parareal_solve(fine, coarse, x0, sigma_grid, cfg,
                                      workers=workers)
    # sigma-ordered rows back onto the forward grid: index k <-> sigma m-k
    lam = stitched.states[::-1, :n].copy()
    mu = stitched.states[::-1, n:].copy()
    lam[m] = 0.0
    return AdjointSolution(t_m, m, grid, lam, mu), report
