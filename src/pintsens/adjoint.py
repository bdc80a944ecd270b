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

Every backward solve steps a block of adjoint columns with ``backward_steps``:
``solve_adjoint`` the block [mu, lam] of one instant, keeping both at every
step; the parareal adjoint propagators the same block over one subinterval;
``sensitivity_series`` the mu columns of all analyzed instants in one sweep
(mu is homogeneous below t_m).  Every sensitivity is then one quadrature,
``_Quadrature``, fed mu by the sweep as it goes, or the stored mu or lam
history of one instant by ``pointwise_sensitivity``/``interval_sensitivity``.
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
    raise KeyError(f"unknown DoF {name!r}")


@dataclass
class AdjointSolution:
    t_m: float
    m_index: int                 # grid index of t_m
    grid: TimeGrid               # the full forward grid
    lam: np.ndarray              # (m_index+1, n), lam[m_index] == 0
    mu: np.ndarray               # (m_index+1, n), d lam / d t_m


class AdjointCache:
    """Factorizations of the backward step matrices Jc/dt + Jg(t_k) along
    the forward trajectory, for ``backward_steps``: one per distinct (step
    width, linearization), shared by the ``solve_adjoint`` calls given the
    same cache and by both parareal propagators of one solve, on any number
    of threads.  The device conductances of every step come from one
    stacked ``conductance_at`` call when the cache is built.  Keeps the
    ``keep`` most recent factorizations (all when None); the batched
    sweep, which never returns to a step, keeps one."""

    def __init__(self, sys: StampedSystem, traj: Trajectory,
                 keep: Optional[int] = None):
        self.sys = sys
        self.traj = traj
        self.dt = traj.grid.dt
        self.JcT = sys.Jc.T.tocsr() if sp.issparse(sys.Jc) else sys.Jc.T.copy()
        self._times = traj.times
        self._g = sys.conductance_at(traj.states, self._times[:, None])
        self._factors = StepFactors(sys, keep)

    def factor(self, k: int, dt: Optional[float] = None):
        """Factorization of Jc/dt + Jg(t_k), by default with the grid step;
        a backward step is its transposed solve.  A singular one raises
        ``SolverError`` at step k and its time."""
        try:
            return self._factors.get(1.0 / (self.dt if dt is None else dt),
                                     1.0, self._g[k])
        except SolverError as exc:
            raise SolverError(exc.message, k, self._times[k],
                              dof=exc.dof) from None

    def solve(self, k: int, rhs: np.ndarray) -> np.ndarray:
        """Solve (Jc/dt + Jg(t_k))^T x = rhs; rhs may be (n,) or (n, m)."""
        return self.factor(k).solve(rhs, trans=True)


def backward_steps(cache: AdjointCache, X: np.ndarray, ks, dt_c: float,
                   e_u: np.ndarray, instants=(), lam: bool = False):
    """The backward adjoint step of every solve: steps the Fortran-ordered
    (n, c) block X in place through the descending fine grid points ``ks``,
    at step width ``dt_c``, each step linearized at its end point k:
        (Jc/dt_c + Jg(t_k))^T X_k = Jc^T X_{k_prev}/dt_c - e_U,
    the e_U term only on the last column, and only if ``lam`` makes it lam.
    The first len(instants) columns are mu columns, off (zero, not stepped)
    until their ascending grid indices ``instants``, where column i becomes
    mu = A^{-T}(-e_U)/dt with A the fine step matrix below it.  Yields
    (k, first) at every visited point once X[:, first:] holds the state
    there, for the caller to record or to sum into a quadrature."""
    JcT = cache.JcT
    first = len(instants)
    k_top = ks[0]
    for k in ks[1:]:
        fac = cache.factor(k, dt_c)
        if first and instants[first - 1] == k_top:
            first -= 1
            X[:, first] = fac.solve(-e_u, trans=True) / cache.dt
        yield k_top, first
        rhs = JcT @ X[:, first:] / dt_c
        if lam:
            rhs[:, -1] -= e_u
        X[:, first:] = fac.solve(rhs, trans=True)
        k_top = k
    yield k_top, first


def solve_adjoint(sys: StampedSystem, traj: Trajectory, t_m: float, qoi: Qoi,
                  cache: Optional[AdjointCache] = None) -> AdjointSolution:
    """Backward implicit-Euler solve of the adjoint DAE for one instant.

    Step from t_{k+1} to t_k:
        (Jc/dt + Jg(t_k))^T lam_k = Jc^T lam_{k+1}/dt - e_U
    and the homogeneous analogue for mu, with mu(t_m) = lam_{m-1}/dt; both
    are the block [mu, lam] of ``backward_steps``.
    """
    grid = traj.grid
    m = grid.index_of(t_m)
    if cache is None:
        cache = AdjointCache(sys, traj)
    lam, mu = np.empty((2, m + 1, sys.n))
    X = np.zeros((sys.n, 2), order="F")
    for k, _ in backward_steps(cache, X, range(m, -1, -1), grid.dt,
                               qoi.vector(sys.dofs), instants=(m,), lam=True):
        mu[k], lam[k] = X.T
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


QUAD_CHUNK = 64     # grid points per quadrature chunk


class _Quadrature:
    """The trapezoid quadrature of every sensitivity: for each column j of a
    weight field w that switches on at the ascending grid index starts[j],
    the sum over k = starts[j] .. 0 of w_k^T (dJc/dp phidot_k + dJg/dp phi_k)
    with weight dt, or dt/2 at k = 0 and at k = starts[j], as ``total()``
    of shape (len(starts), len(params)).  ``add`` takes the descending
    points in chunks: at ks[i] the columns from first[i] on are on, and
    terms[i] (overwritten) holds w at the stamp ``rows``, zero in the
    others.  It adds them point by point in that order, so equal w give
    equal floats."""

    def __init__(self, sys, traj, params, starts):
        self.traj = traj
        self.rows, self.cols, self.values = _stamp_entries(sys, params)
        self.switch_on = np.append(starts, -1)
        self.acc = np.zeros((self.rows.size, len(starts)))

    def add(self, ks, first, terms):
        dt = self.traj.grid.dt
        x = np.hstack((self.traj.derivs[ks], self.traj.states[ks]))[:, self.cols]
        full = np.ones((len(ks), 1, self.acc.shape[1]), bool)  # dt, not dt/2
        full[ks == 0] = False
        on = self.switch_on[first] == ks
        full[on, 0, first[on]] = False
        np.multiply(terms, (x * dt)[:, :, None], out=terms, where=full)
        np.multiply(terms, (x * (0.5 * dt))[:, :, None], out=terms, where=~full)
        for term in terms:
            self.acc += term

    def total(self) -> np.ndarray:
        return self.acc.T @ self.values


def _weighted_integral(sys, traj, weight_field: np.ndarray, params) -> np.ndarray:
    """``_Quadrature`` of the stored history w = weight_field over [0, t_m],
    as one column that switches on at t_m, fed QUAD_CHUNK grid points at a
    time from t_m down to t0; ``params`` defaults to all of them."""
    if params is None:
        params = sys.params
    m = weight_field.shape[0] - 1
    if m == 0:
        return np.zeros(len(params))
    quad = _Quadrature(sys, traj, params, (m,))
    for top in range(m, -1, -QUAD_CHUNK):
        ks = np.arange(top, max(top - QUAD_CHUNK, -1), -1)
        quad.add(ks, np.zeros(ks.size, np.intp),
                 weight_field[ks[:, None], quad.rows][:, :, None])
    return quad.total()[0]


def pointwise_sensitivity(sys, traj, adj: AdjointSolution, params=None) -> np.ndarray:
    """dU/dp_i at the analyzed instant: quadrature of
    mu^T (dJc/dp phidot + dJg/dp phi) over [0, t_m]."""
    return _weighted_integral(sys, traj, adj.mu, params)


def interval_sensitivity(sys, traj, adj: AdjointSolution, params=None) -> np.ndarray:
    """Time-integrated sensitivity over [0, t_m]: same quadrature with lam."""
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
    table = sys.param_table
    n2 = 2 * sys.n
    keys, inverse = np.unique(table.rows * n2 + table.cols, return_inverse=True)
    values = np.zeros((keys.size, len(sys.params)))
    np.add.at(values, (inverse, table.param), table.vals)
    values = values[:, [p.id for p in params]]
    used = values.any(axis=1)
    return keys[used] // n2, keys[used] % n2, values[used]


def _batched_pointwise(sys, traj, qoi: Qoi, steps, params) -> np.ndarray:
    """Pointwise sensitivities at the ascending, distinct grid indices
    ``steps`` from one ``backward_steps`` sweep over [0, steps[-1]]; row i
    belongs to steps[i].

    Column i of the (n, M) block holds mu for steps[i] and switches on
    there; the latest instants switch on first, so the active columns are
    the block's last ones, and the others are exactly zero.  mu at the stamp
    rows is kept for QUAD_CHUNK sweep points and added to the
    ``_Quadrature`` as one chunk.  So no lam/mu history is kept, and the
    cache keeps only the last factorization."""
    quad = _Quadrature(sys, traj, params, steps)
    cache = AdjointCache(sys, traj, keep=1)
    mu = np.zeros((sys.n, len(steps)), order="F")
    terms = np.empty((QUAD_CHUNK, quad.rows.size, len(steps)))
    points = []                       # (k, first) of the points in terms
    for k, first in backward_steps(cache, mu, range(steps[-1], -1, -1),
                                   traj.grid.dt, qoi.vector(sys.dofs),
                                   instants=steps):
        mu.take(quad.rows, axis=0, out=terms[len(points)])
        points.append((k, first))
        if len(points) == QUAD_CHUNK or k == 0:
            quad.add(*np.array(points).T, terms[: len(points)])
            points.clear()
    return quad.total()


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
    the DC operating point at t=0.  ``delta`` is the relative step and must
    lie in (0, 1), so that both perturbed values stay positive.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
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
