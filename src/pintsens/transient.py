"""Forward transient solution of the circuit DAE on a fixed fine grid.

Implicit one-step schemes (implicit Euler, trapezoidal) with a per-step
Newton iteration in companion form: the devices are loaded as conductances
plus, for diodes, equivalent currents, and the switch conductances of every
grid time come from one table per trajectory.  The trajectory stores both
the state phi and its difference-formula derivative, which the sensitivity
integrals need.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50

SCHEMES = ("implicit_euler", "trapezoidal")


class SolverError(RuntimeError):
    """Newton divergence or a singular step matrix, with the step, the time,
    the residual max-norm and the DoF at fault where they are known."""

    def __init__(self, message, step=None, t=None, residual=None, dof=None):
        super().__init__(message)
        self.message = message
        self.step = step
        self.t = t
        self.residual = residual
        self.dof = dof

    def __str__(self):
        text = self.message
        if self.dof is not None:
            text += f" at DoF {self.dof}"
        if self.residual is not None:
            text += f" (residual max-norm {self.residual:.3e})"
        where = [] if self.step is None else [f"step {self.step}"]
        if self.t is not None:
            where.append(f"t={self.t:.9g}")
        return ", ".join(where) + ": " + text if where else text


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    dt: float

    def __post_init__(self):
        for name, value in (("t0", self.t0), ("t1", self.t1), ("dt", self.dt)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        steps = (self.t1 - self.t0) / self.dt
        if not math.isfinite(steps) or round(steps) < 1 \
                or abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"dt={self.dt!r} does not divide [{self.t0!r}, "
                             f"{self.t1!r}] into whole steps ({steps:.12g})")

    @property
    def n_steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a time that must lie on the grid."""
        steps = (t - self.t0) / self.dt
        k = int(round(steps)) if math.isfinite(steps) else -1   # on no grid
        if not (0 <= k <= self.n_steps) or abs(self.t0 + k * self.dt - t) > 1e-9 * max(self.dt, 1e-30):
            raise ValueError(f"t={t} is not a grid point")
        return k


@dataclass
class Trajectory:
    grid: TimeGrid
    states: np.ndarray          # (n_steps+1, n)
    derivs: np.ndarray          # (n_steps+1, n)
    newton_iters: int = 0       # total Newton iterations over the run

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def write_csv(self, path, dof_names):
        header = "t," + ",".join(dof_names)
        data = np.column_stack([self.times, self.states])
        with open(path, "w") as f:
            f.write(header + "\n")
            for row in data:
                f.write(",".join(f"{x:.17g}" for x in row) + "\n")


class _LU:
    """One LU factorization of a step matrix, which it keeps as ``matrix``;
    solves with it or with its transpose.  The dense backend calls LAPACK's
    dgetrf/dgetrs directly, as ``lu_factor``/``lu_solve(check_finite=False)``
    do without their wrapper cost; dgetrf factors a copy.  Threads may
    share one, but its solves take turns: the f2py ``getrs`` wrapper shifts
    the pivot array to 1-based in place during the call and back
    afterwards, so concurrent solves with one pivot array corrupt each
    other and can crash the interpreter."""

    __slots__ = ("matrix", "_lu", "_dense", "_lock")

    def __init__(self, sys, A):
        self.matrix = A
        self._dense = sys.dense
        self._lock = threading.Lock()
        if sys.dense:
            lu, piv, info = dgetrf(A)
            if info > 0:
                raise SolverError("singular step matrix: zero pivot",
                                  dof=sys.dofs.names[info - 1])
            self._lu = (lu, piv)
        else:
            try:
                self._lu = spla.splu(A)
            except RuntimeError as exc:       # "Factor is exactly singular"
                # the dense factorization names the column, on this path only
                info = dgetrf(A.toarray(), overwrite_a=True)[2]
                raise SolverError(f"singular step matrix: {exc}",
                                  dof=sys.dofs.names[info - 1] if info > 0
                                  else None) from exc

    def solve(self, rhs, trans=False):
        """x with A x = rhs, or A^T x = rhs; rhs may be (n,) or (n, m)."""
        with self._lock:
            if self._dense:
                return dgetrs(*self._lu, rhs, trans=int(trans))[0]
            return self._lu.solve(rhs, "T" if trans else "N")


class StepFactors:
    """Factorizations of the step matrices coef_dt*Jc + coef_g*(Jg + G(g))
    of one system, keyed on (coef_dt, coef_g, g): a factorization is reused
    for as long as the device conductances g stay the same.  Keeps the
    ``keep`` most recent ones (all when None).  Threads may share one: a
    missing factorization is computed once, under a lock."""

    def __init__(self, sys, keep=None):
        self.sys = sys
        self.keep = keep
        self._factors = {}
        self._lock = threading.Lock()

    def get(self, coef_dt: float, coef_g: float, g: np.ndarray) -> _LU:
        key = (coef_dt, coef_g, g.tobytes())
        fac = self._factors.get(key)
        if fac is None:
            with self._lock:
                fac = self._factors.get(key)
                if fac is None:
                    fac = _LU(self.sys, self.sys.step_matrix(coef_dt, coef_g, g))
                    if self.keep is not None and len(self._factors) >= self.keep:
                        del self._factors[next(iter(self._factors))]
                    self._factors[key] = fac
        return fac


def _start_vector(sys, x, name):
    """x as a float array of shape (n,); anything else is rejected."""
    x = np.array(x, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"{name} must have shape ({sys.n},), got {x.shape}")
    return x


def dc_operating_point(sys, t: float = 0.0, x0=None,
                       tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER) -> np.ndarray:
    """Consistent start state: Newton solve of Jg phi + i_nl(phi) = i_s(t)
    with dphi/dt = 0, from x0 (zero when None)."""
    phi = np.zeros(sys.n) if x0 is None else _start_vector(sys, x0, "x0")
    phi, _ = _newton_step(sys, StepFactors(sys, keep=1), phi, sys.source_eval(t),
                          0.0, 1.0, sys._devices._switch(t), t, None, tol,
                          max_iter)
    return phi


def _newton_step(sys, factors, phi, b, coef_dt, coef_g, g_s, t, step, tol,
                 max_iter):
    """Solve  coef_dt*Jc*phi + coef_g*(Jg*phi + i_nl(phi,t)) = b  from phi,
    with g_s the switch conductances at t.

    Companion form: each iteration linearizes the devices at the current
    iterate into conductances g and, for diodes only, equivalent currents
    i_eq, and the next iterate solves  A phi_new = b - coef_g*i_eq  with
    A = coef_dt*Jc + coef_g*(Jg + G(g)); a circuit without diodes
    evaluates no device here.  The first iteration solves for phi_new,
    later ones for the correction from rhs - A phi, so that the converged
    state has had one step of iterative refinement: the switches' off
    conductances scale A badly, and solving for phi_new every time lost up
    to 2.6e-10 of max |phi| on B6 over trapezoidal steps, which never damp
    it.  The equation's own residual is formed only to report a failure,
    at the iterate the failing solve started from.  ``step`` None marks
    the DC operating point."""
    prefix = "DC operating point: " if step is None else ""
    devices = sys._devices
    g, rhs = g_s, b
    for iters in range(1, max_iter + 1):
        if devices.n_diodes:
            g, i_eq = devices.companion(phi, g_s)
            rhs = b - coef_g * i_eq
        try:
            fac = factors.get(coef_dt, coef_g, g)
        except SolverError as exc:
            residual = _residual(sys, phi, b, coef_dt, coef_g, t)
            raise SolverError(prefix + exc.message, step, t,
                              float(np.max(np.abs(residual))), exc.dof) from None
        if iters == 1:
            phi_new = fac.solve(rhs)
        else:
            phi_new = phi + fac.solve(rhs - fac.matrix @ phi)
        change = abs(phi_new - phi).max()     # NaN if any entry is NaN
        if not math.isfinite(change):
            raise SolverError(prefix + "solution is not finite (singular step "
                              "matrix?)", step, t)
        if change <= tol * (1.0 + abs(phi_new).max()):
            return phi_new, iters
        start, phi = phi, phi_new
    residual = _residual(sys, start, b, coef_dt, coef_g, t)
    worst = int(np.argmax(np.abs(residual)))
    raise SolverError(f"{prefix}Newton did not converge in {max_iter} iterations",
                      step, t, float(abs(residual[worst])), sys.dofs.names[worst])


def _residual(sys, phi, b, coef_dt, coef_g, t):
    """coef_dt*Jc*phi + coef_g*(Jg*phi + i_nl(phi,t)) - b, the equation
    ``_newton_step`` solves, at phi."""
    i_nl, _ = sys.eval_nonlinear(phi, t)
    return coef_dt * (sys.Jc @ phi) + coef_g * (sys.Jg @ phi + i_nl) - b


def derivatives(states, dt: float, scheme: str, deriv0=None) -> np.ndarray:
    """A trajectory's stored derivative, from deriv0 (zero when None): the
    scheme's difference formula on its states, (phi_k - phi_{k-1})/dt for
    implicit Euler and 2(phi_k - phi_{k-1})/dt - phidot_{k-1} trapezoidal."""
    derivs = np.empty_like(states)
    derivs[0] = 0.0 if deriv0 is None else deriv0
    np.subtract(states[1:], states[:-1], out=derivs[1:])
    if scheme == "trapezoidal":
        derivs[1:] *= 2.0
        derivs[1:] /= dt
        for k in range(1, len(derivs)):
            derivs[k] -= derivs[k - 1]
    else:
        derivs[1:] /= dt
    return derivs


def integrate(sys, x0, grid: TimeGrid, scheme: str = "implicit_euler",
              tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
              deriv0=None) -> Trajectory:
    """Integrate the DAE from x0 over the grid.

    Implicit Euler:  Jc (x_{k+1}-x_k)/dt + Jg x_{k+1} + i_nl - i_s(t_{k+1}) = 0.
    Trapezoidal averages the algebraic part over both endpoints.  deriv0 seeds
    the stored derivative (``derivatives``) at t0, zero for a DC start.
    The switch conductances of every grid time come from one table, and
    Newton keeps the last step factorization, so steps with unchanged
    device conductances solve without refactorizing.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    n_steps = grid.n_steps
    dt = grid.dt
    states = np.empty((n_steps + 1, sys.n))
    states[0] = _start_vector(sys, x0, "x0")
    deriv0 = None if deriv0 is None else _start_vector(sys, deriv0, "deriv0")
    total_iters = 0
    times = grid.times
    g_switch = sys._devices._switch(times[:, None])
    factors = StepFactors(sys, keep=1)
    coef_g = 0.5 if scheme == "trapezoidal" else 1.0

    for k in range(n_steps):
        phi_k = states[k]
        b = sys.Jc @ phi_k / dt + coef_g * sys.source_eval(times[k + 1])
        if scheme == "trapezoidal":     # the algebraic part at t_k
            i_nl_k, _ = sys.eval_nonlinear(phi_k, times[k])
            b -= 0.5 * (sys.Jg @ phi_k + i_nl_k - sys.source_eval(times[k]))
        states[k + 1], iters = _newton_step(sys, factors, phi_k, b, 1.0 / dt,
                                            coef_g, g_switch[k + 1],
                                            times[k + 1], k + 1, tol, max_iter)
        total_iters += iters

    return Trajectory(grid, states, derivatives(states, dt, scheme, deriv0),
                      newton_iters=total_iters)
