"""Fine and coarse circuit propagators for the parallel-in-time solver.

Forward propagators wrap the transient integrator at full resolution (fine)
or with the timestep widened by the coarse stride (coarse).  Adjoint
propagators evolve the stacked state [lam; mu] backward in time, expressed
on the reversed axis sigma = t_m - t so the orchestrator always sees an
initial value problem running left to right.
"""

from __future__ import annotations

import warnings

import numpy as np

from .adjoint import AdjointSolution, Qoi, backward_factor
from .mna import StampedSystem
from .transient import StepFactors, TimeGrid, Trajectory, integrate


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


class FineAdjointPropagator:
    """Full-resolution backward steps for the stacked [lam; mu] state on the
    reversed axis; linearization matrices come from the forward trajectory."""

    def __init__(self, sys: StampedSystem, traj: Trajectory, t_m: float, qoi: Qoi):
        self.sys = sys
        self.traj = traj
        self.t_m = t_m
        self.e_u = qoi.vector(sys.dofs)
        self.m_index = traj.grid.index_of(t_m)

    def evolve(self, state, s_start, s_end):
        sys = self.sys
        grid = self.traj.grid
        dt = grid.dt
        n = sys.n
        k_hi = self.m_index - int(round((s_start - grid.t0) / dt))
        k_lo = self.m_index - int(round((s_end - grid.t0) / dt))
        steps = k_hi - k_lo
        lam = np.asarray(state[:n], dtype=float)
        mu = np.asarray(state[n:], dtype=float)
        states = np.empty((steps + 1, 2 * n))
        states[0] = state
        JcT = sys.Jc.T
        grid_times = grid.times
        factors = StepFactors(sys)
        for j, k in enumerate(range(k_hi - 1, k_lo - 1, -1)):
            fac = backward_factor(sys, factors, self.traj.states[k],
                                  grid_times[k], k, dt)
            rhs = np.column_stack([JcT @ lam / dt - self.e_u, JcT @ mu / dt])
            sol = fac.solve(rhs, trans=True)
            lam, mu = sol[:, 0], sol[:, 1]
            states[j + 1] = np.concatenate([lam, mu])
        times = s_start + dt * np.arange(steps + 1)
        return states[-1], (times, states, None)


class CoarseAdjointPropagator:
    """Backward steps widened by the coarse stride; the linearization uses the
    forward trajectory subsampled at the nearest fine grid point."""

    def __init__(self, sys: StampedSystem, traj: Trajectory, t_m: float,
                 qoi: Qoi, stride: int):
        self.sys = sys
        self.traj = traj
        self.t_m = t_m
        self.e_u = qoi.vector(sys.dofs)
        self.stride = stride

    def evolve(self, state, s_start, s_end):
        sys = self.sys
        grid = self.traj.grid
        n = sys.n
        n_sub = _coarse_substeps(s_end - s_start, grid.dt, self.stride)
        dt_c = (s_end - s_start) / n_sub
        lam = np.asarray(state[:n], dtype=float)
        mu = np.asarray(state[n:], dtype=float)
        JcT = sys.Jc.T
        last_index = grid.n_steps
        grid_times = grid.times
        factors = StepFactors(sys)
        for j in range(1, n_sub + 1):
            t = self.t_m - (s_start - grid.t0 + j * dt_c)
            k = min(max(int(round((t - grid.t0) / grid.dt)), 0), last_index)
            fac = backward_factor(sys, factors, self.traj.states[k],
                                  grid_times[k], k, dt_c)
            rhs = np.column_stack([JcT @ lam / dt_c - self.e_u, JcT @ mu / dt_c])
            sol = fac.solve(rhs, trans=True)
            lam, mu = sol[:, 0], sol[:, 1]
        return np.concatenate([lam, mu]), None


def make_circuit_propagators(sys: StampedSystem, direction: str, stride: int,
                             dt: float = None, scheme: str = "implicit_euler",
                             traj: Trajectory = None, t_m: float = None,
                             qoi: Qoi = None):
    """Build the (fine, coarse) propagator pair for a circuit solve.

    direction 'forward' needs dt; direction 'adjoint' needs the forward
    trajectory, the analyzed instant t_m and the QoI.
    """
    if direction == "forward":
        if dt is None:
            raise ValueError("forward propagators need the fine dt")
        return (FineForwardPropagator(sys, dt, scheme),
                CoarseForwardPropagator(sys, dt, stride, scheme))
    if direction == "adjoint":
        if traj is None or t_m is None or qoi is None:
            raise ValueError("adjoint propagators need traj, t_m and qoi")
        return (FineAdjointPropagator(sys, traj, t_m, qoi),
                CoarseAdjointPropagator(sys, traj, t_m, qoi, stride))
    raise ValueError(f"unknown direction {direction!r}")


def parareal_integrate(sys: StampedSystem, x0, grid: TimeGrid, cfg,
                       scheme: str = "implicit_euler", workers: int = 1):
    """Forward transient solve through the parareal orchestrator."""
    from .parareal import parareal_solve
    fine, coarse = make_circuit_propagators(sys, "forward", cfg.coarse_stride,
                                            dt=grid.dt, scheme=scheme)
    return parareal_solve(fine, coarse, x0, grid, cfg, workers=workers)


def parareal_adjoint_solve(sys: StampedSystem, traj: Trajectory, t_m: float,
                           qoi: Qoi, cfg, workers: int = 1):
    """Backward adjoint solve for one analyzed instant through parareal.

    The stacked [lam; mu] state is propagated on the reversed time axis; the
    terminal value of mu comes from one sequential fine step at t_m.
    """
    from .parareal import parareal_solve
    grid = traj.grid
    m = grid.index_of(t_m)
    n = sys.n
    dt = grid.dt
    e_u = qoi.vector(sys.dofs)
    if m == 0:
        zeros = np.zeros((1, n))
        adj = AdjointSolution(t_m, 0, grid, zeros.copy(), zeros.copy())
        from .parareal import PararealReport
        return adj, PararealReport(n_subintervals=cfg.n_subintervals)

    # one fine step fixes lam(t_{m-1}) and with it mu(t_m) = lam(t_{m-1})/dt
    fac = backward_factor(sys, StepFactors(sys), traj.states[m - 1],
                          grid.times[m - 1], m - 1, dt)
    lam_prev = fac.solve(-e_u, trans=True)
    x0 = np.concatenate([np.zeros(n), lam_prev / dt])

    sigma_grid = TimeGrid(grid.t0, grid.t0 + (t_m - grid.t0), dt)
    fine, coarse = make_circuit_propagators(sys, "adjoint", cfg.coarse_stride,
                                            traj=traj, t_m=t_m, qoi=qoi)
    stitched, report = parareal_solve(fine, coarse, x0, sigma_grid, cfg,
                                      workers=workers)
    # sigma-ordered rows back onto the forward grid: index k <-> sigma m-k
    lam = stitched.states[::-1, :n].copy()
    mu = stitched.states[::-1, n:].copy()
    lam[m] = 0.0
    return AdjointSolution(t_m, m, grid, lam, mu), report
