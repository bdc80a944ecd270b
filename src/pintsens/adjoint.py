"""Backward adjoint solves and time-dependent parameter sensitivities.

For a linear quantity of interest U(phi) = e_U . phi the adjoint variable
solves the transposed, time-reversed DAE

    Jc^T dlam/dt - Jg^T lam = e_U,     lam(t_m) = 0,

with Jg linearized along the stored forward trajectory.  The interval
sensitivity weights the parameter derivative stamps with lam; the pointwise
sensitivity at the analyzed instant t_m weights them with mu = d lam / d t_m,
which solves the homogeneous transposed DAE backward from t_m with terminal
data taken from the first implicit backward step of lam.  A finite-difference
route in t_m ships as the reference for mu.

``solve_adjoint`` solves for one instant and keeps lam and mu at every step.
``sensitivity_series`` runs one backward sweep for all analyzed instants: mu
is homogeneous below t_m, so the instants share each step's factorization as
columns of one block right-hand side, and the quadrature is accumulated as
the sweep goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mna import StampedSystem, assemble
from .transient import (SolverError, StepFactors, TimeGrid, Trajectory,
                        integrate, dc_operating_point)


@dataclass(frozen=True)
class Qoi:
    """Linear quantity of interest e_U . phi with an analysis window."""
    weights: object                      # node name, dof name, or {name: weight}
    window: Optional[tuple] = None       # (t_start, t_end)
    instants: tuple = ()

    def vector(self, dofs) -> np.ndarray:
        e = np.zeros(dofs.n_dofs)
        items = self.weights.items() if isinstance(self.weights, dict) \
            else [(self.weights, 1.0)]
        for name, w in items:
            e[_resolve_dof(dofs, name)] += w
        return e


def _resolve_dof(dofs, name: str) -> int:
    if name in dofs.node_index:
        return dofs.node_index[name]
    if name in dofs.branch_index:
        return dofs.branch_index[name]
    if name in dofs.names:
        return dofs.names.index(name)
    if name.startswith("v(") and name.endswith(")"):
        return dofs.node_index[name[2:-1]]
    if name.startswith("i(") and name.endswith(")"):
        return dofs.branch_index[name[2:-1]]
    raise KeyError(f"unknown DoF {name!r}")


@dataclass
class AdjointSolution:
    t_m: float
    m_index: int                 # grid index of t_m
    grid: TimeGrid               # the full forward grid
    lam: np.ndarray              # (m_index+1, n), lam[m_index] == 0
    mu: np.ndarray               # (m_index+1, n), d lam / d t_m


def backward_factor(sys: StampedSystem, factors: StepFactors, phi_k,
                    t_k: float, k: int, dt: float):
    """Factorization of the step matrix Jc/dt + Jg + G(g_k), with g_k the
    device conductances at the forward state (phi_k, t_k).  A backward
    adjoint step is the transposed solve ``.solve(rhs, trans=True)``."""
    g = sys.conductance_at(phi_k, t_k)
    try:
        return factors.get(1.0 / dt, 1.0, g)
    except SolverError as exc:
        raise SolverError(exc.message, k, t_k, dof=exc.dof) from None


def _jc_transposed(sys: StampedSystem):
    return sys.Jc.T.tocsr() if sp.issparse(sys.Jc) else sys.Jc.T.copy()


class AdjointCache:
    """Factorizations of the backward step matrices Jc/dt + Jg(t_k) along
    the forward trajectory, shared by everything that solves backward on
    it: the ``solve_adjoint`` calls given the same cache, and both parareal
    propagators of one solve, on any number of threads.  The cache holds
    one factorization per distinct (step width, linearization)."""

    def __init__(self, sys: StampedSystem, traj: Trajectory):
        self.sys = sys
        self.traj = traj
        self.dt = traj.grid.dt
        self.JcT = _jc_transposed(sys)
        self._times = traj.times
        self._factors = StepFactors(sys)

    def factor(self, k: int, dt: Optional[float] = None):
        """Factorization of Jc/dt + Jg(t_k), by default with the grid step;
        a backward step is its transposed solve."""
        return backward_factor(self.sys, self._factors, self.traj.states[k],
                               self._times[k], k, self.dt if dt is None else dt)

    def solve(self, k: int, rhs: np.ndarray) -> np.ndarray:
        """Solve (Jc/dt + Jg(t_k))^T x = rhs; rhs may be (n,) or (n, m)."""
        return self.factor(k).solve(rhs, trans=True)


def solve_adjoint(sys: StampedSystem, traj: Trajectory, t_m: float, qoi: Qoi,
                  cache: Optional[AdjointCache] = None) -> AdjointSolution:
    """Backward implicit-Euler solve of the adjoint DAE for one instant.

    Step from t_{k+1} to t_k:
        (Jc/dt + Jg(t_k))^T lam_k = Jc^T lam_{k+1}/dt - e_U
    and the homogeneous analogue for mu, with mu(t_m) = lam_{m-1}/dt.
    """
    grid = traj.grid
    m = grid.index_of(t_m)
    if cache is None:
        cache = AdjointCache(sys, traj)
    n = sys.n
    dt = grid.dt
    e_u = qoi.vector(sys.dofs)

    lam = np.zeros((m + 1, n))
    mu = np.zeros((m + 1, n))
    if m == 0:
        return AdjointSolution(t_m, m, grid, lam, mu)

    JcT = cache.JcT
    # first backward step fixes lam_{m-1} and with it the terminal value of mu
    lam[m - 1] = cache.solve(m - 1, JcT @ lam[m] / dt - e_u)
    mu[m] = lam[m - 1] / dt
    mu[m - 1] = cache.solve(m - 1, JcT @ mu[m] / dt)
    for k in range(m - 2, -1, -1):
        rhs = np.column_stack([JcT @ lam[k + 1] / dt - e_u,
                               JcT @ mu[k + 1] / dt])
        sol = cache.solve(k, rhs)
        lam[k] = sol[:, 0]
        mu[k] = sol[:, 1]
    return AdjointSolution(t_m, m, grid, lam, mu)


def mu_finite_difference(sys, traj, t_m, qoi,
                         cache: Optional[AdjointCache] = None) -> np.ndarray:
    """Reference route for mu: (lam(.; t_m+dt) - lam(.; t_m)) / dt on the
    shared grid points [0, t_m]."""
    grid = traj.grid
    m = grid.index_of(t_m)
    if m + 1 > grid.n_steps:
        raise ValueError("t_m + dt falls outside the trajectory")
    if cache is None:
        cache = AdjointCache(sys, traj)
    a0 = solve_adjoint(sys, traj, t_m, qoi, cache)
    a1 = solve_adjoint(sys, traj, grid.times[m + 1], qoi, cache)
    return (a1.lam[: m + 1] - a0.lam) / grid.dt


def _trapezoid_weights(k: int, dt: float) -> np.ndarray:
    w = np.full(k + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _weighted_integral(sys, traj, weight_field: np.ndarray, params) -> np.ndarray:
    m = weight_field.shape[0] - 1
    if m == 0:
        return np.zeros(len(params))
    quad = _trapezoid_weights(m, traj.grid.dt)
    phi = traj.states[: m + 1]
    phidot = traj.derivs[: m + 1]
    out = np.empty(len(params))
    for j, p in enumerate(params):
        stamp = sys.param_stamps[p.id]
        integrand = stamp.apply_series(phidot, phi, weight_field)
        out[j] = quad @ integrand
    return out


def pointwise_sensitivity(sys, traj, adj: AdjointSolution, params=None) -> np.ndarray:
    """dU/dp_i at the analyzed instant: quadrature of
    mu^T (dJc/dp phidot + dJg/dp phi) over [0, t_m]."""
    if params is None:
        params = sys.params
    return _weighted_integral(sys, traj, adj.mu, params)


def interval_sensitivity(sys, traj, adj: AdjointSolution, params=None) -> np.ndarray:
    """Time-integrated sensitivity over [0, t_m]: same quadrature with lam."""
    if params is None:
        params = sys.params
    return _weighted_integral(sys, traj, adj.lam, params)


@dataclass
class SensitivitySeries:
    instants: np.ndarray
    params: tuple
    values: np.ndarray           # (n_instants, n_params), dU/dp_i(t_m)
    n_adjoint_solves: int = 0
    parareal_reports: list = field(default_factory=list)

    def row(self, param_name: str) -> np.ndarray:
        for j, p in enumerate(self.params):
            if p.name.lower() == param_name.lower():
                return self.values[:, j]
        raise KeyError(param_name)

    def write_csv(self, path):
        units = {"R": "Ohm", "L": "H", "C": "F"}
        with open(path, "w") as f:
            f.write("# pointwise sensitivities dU/dp(t_m); "
                    "columns in (unit of U) per element unit\n")
            f.write("# units: " + ",".join(
                f"{p.name}:{units[p.kind]}" for p in self.params) + "\n")
            f.write("t_m," + ",".join(p.name for p in self.params) + "\n")
            for t, row in zip(self.instants, self.values):
                f.write(",".join(f"{x:.17g}" for x in [t, *row]) + "\n")


def _stamp_entries(sys, params):
    """The derivative stamps of ``params`` folded onto their distinct
    entries: rows, columns into the stacked state [phidot; phi] of length
    2n, and the (entries, len(params)) matrix of summed stamp values."""
    n2 = 2 * sys.n
    keys, vals = [np.empty(0, np.intp)], [np.empty(0)]
    owner = [np.empty(0, np.intp)]
    for j, p in enumerate(params):
        st = sys.param_stamps[p.id]
        keys += [st.jc_rows * n2 + st.jc_cols,
                 st.jg_rows * n2 + sys.n + st.jg_cols]
        vals += [st.jc_vals, st.jg_vals]
        owner.append(np.full(st.jc_vals.size + st.jg_vals.size, j))
    entries, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.zeros((entries.size, len(params)))
    np.add.at(values, (inverse, np.concatenate(owner)), np.concatenate(vals))
    return entries // n2, entries % n2, values


def _batched_pointwise(sys, traj, qoi: Qoi, steps, params) -> np.ndarray:
    """Pointwise sensitivities at the ascending, distinct grid indices
    ``steps`` from one backward sweep; row i belongs to steps[i].

    Column i of the (n, M) block holds mu for steps[i].  It switches on at
    step m_i - 1, where lam_{m_i-1} = A^{-T}(-e_U) gives mu_{m_i} =
    lam_{m_i-1}/dt; below that every active column takes the same
    homogeneous step as in ``solve_adjoint``.  The latest instants switch on
    first, so the active columns are the block's last ones.  The trapezoid
    quadrature of ``pointwise_sensitivity`` is summed per stamp entry as
    the sweep goes, so no lam/mu history is kept."""
    dt = traj.grid.dt
    times = traj.times
    e_u = qoi.vector(sys.dofs)
    JcT = _jc_transposed(sys)
    rows, cols, stamp_values = _stamp_entries(sys, params)
    mu = np.zeros((sys.n, len(steps)), order="F")
    acc = np.zeros((rows.size, len(steps)))

    def accumulate(k, first, weights):
        x = np.concatenate((traj.derivs[k], traj.states[k]))[cols]
        acc[:, first:] += mu[rows, first:] * np.multiply.outer(x, weights)

    factors = StepFactors(sys, keep=1)
    first = len(steps)
    for k in range(steps[-1] - 1, -1, -1):
        fac = backward_factor(sys, factors, traj.states[k], times[k], k, dt)
        weights = np.full(len(steps) - first, dt)
        if first and steps[first - 1] == k + 1:
            first -= 1
            mu[:, first] = fac.solve(-e_u, trans=True) / dt
            weights = np.concatenate(([0.5 * dt], weights))
        accumulate(k + 1, first, weights)
        mu[:, first:] = fac.solve(JcT @ mu[:, first:] / dt, trans=True)
    accumulate(0, first, np.full(len(steps) - first, 0.5 * dt))
    return acc.T @ stamp_values


def sensitivity_series(sys, traj, qoi: Qoi, params=None, parallel=None,
                       workers: int = 1) -> SensitivitySeries:
    """Pointwise sensitivities dU/dp(t_m) at every instant of ``qoi``.

    Without ``parallel``, one backward sweep from the latest instant to t0
    serves all instants: on each step one transposed solve with that
    step's factorization advances the block of their mu columns, and the
    quadrature is accumulated on the way.  The result equals
    ``solve_adjoint`` + ``pointwise_sensitivity`` per instant up to
    round-off.  ``parallel`` takes a PararealConfig to
    run one backward solve per instant through the parallel-in-time
    orchestrator instead; the result is independent of that choice up to
    the parareal tolerance.  ``n_adjoint_solves`` counts the adjoint
    problems solved, one per instant either way.  Instants must lie on the
    grid; they are checked before anything is solved.
    """
    if params is None:
        params = sys.params
    if not len(qoi.instants):
        raise ValueError("qoi.instants is empty")
    instants = np.asarray(qoi.instants, dtype=float)
    steps = np.array([traj.grid.index_of(t) for t in instants], dtype=np.intp)
    reports = []
    if parallel is None:
        distinct, inverse = np.unique(steps, return_inverse=True)
        values = _batched_pointwise(sys, traj, qoi, distinct, params)[inverse]
    else:
        # imported per call, not at load time: propagators imports this
        # module, and a replaced propagators.parareal_adjoint_solve (a test
        # double, the benchmark's recorder) must be the one called here
        from .propagators import parareal_adjoint_solve
        values = np.empty((len(instants), len(params)))
        for i, t_m in enumerate(instants):
            adj, report = parareal_adjoint_solve(sys, traj, t_m, qoi, parallel,
                                                 workers=workers)
            reports.append(report)
            values[i] = pointwise_sensitivity(sys, traj, adj, params)
    return SensitivitySeries(instants, tuple(params), values,
                             n_adjoint_solves=len(instants),
                             parareal_reports=reports)


def qoi_values(traj: Trajectory, qoi: Qoi, dofs) -> np.ndarray:
    """U(t_k) = e_U . phi(t_k) along the whole trajectory."""
    return traj.states @ qoi.vector(dofs)


def finite_difference_series(netlist, param, delta: float, qoi: Qoi,
                             instants, scheme="implicit_euler",
                             initial_state=None) -> np.ndarray:
    """Central finite differences of U(t_m) w.r.t. one parameter via two
    full forward solves (the independent validation oracle).

    ``initial_state`` maps an assembled system to its start state; default is
    the DC operating point at t=0.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = netlist.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    p0 = param.nominal
    u_at = []
    for factor in (1.0 + delta, 1.0 - delta):
        nl = netlist.with_element_value(param.element, p0 * factor)
        sys = assemble(nl)
        x0 = dc_operating_point(sys, grid.t0) if initial_state is None \
            else initial_state(sys)
        traj = integrate(sys, x0, grid, scheme=scheme)
        u = qoi_values(traj, qoi, sys.dofs)
        u_at.append(np.array([u[grid.index_of(t)] for t in instants]))
    return (u_at[0] - u_at[1]) / (2.0 * p0 * delta)


def finite_difference_oracle(netlist, param, delta: float, qoi: Qoi,
                             t_m: float, scheme="implicit_euler",
                             initial_state=None) -> float:
    """Scalar central difference dU/dp(t_m); see finite_difference_series."""
    return float(finite_difference_series(netlist, param, delta, qoi, [t_m],
                                          scheme=scheme,
                                          initial_state=initial_state)[0])
