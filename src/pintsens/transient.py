"""Forward transient solution of the circuit DAE on a fixed fine grid.

Implicit one-step schemes (implicit Euler, trapezoidal) with a per-step
Newton iteration.  The trajectory stores both the state phi and its
difference-formula derivative, which the sensitivity integrals need.
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
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        steps = (self.t1 - self.t0) / self.dt
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
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
        k = int(round((t - self.t0) / self.dt))
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
    """One LU factorization of a step matrix; solves with it or with its
    transpose.  The dense backend calls LAPACK's dgetrf/dgetrs directly,
    as ``lu_factor``/``lu_solve(check_finite=False)`` do without their
    wrapper cost.  Threads may share one, but its solves take turns: the
    f2py ``getrs`` wrapper shifts the pivot array to 1-based in place
    during the call and back afterwards, so concurrent solves with one
    pivot array corrupt each other and can crash the interpreter."""

    __slots__ = ("_lu", "_dense", "_lock")

    def __init__(self, sys, A):
        self._dense = sys.dense
        self._lock = threading.Lock()
        if sys.dense:
            lu, piv, info = dgetrf(A, overwrite_a=True)
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


def dc_operating_point(sys, t: float = 0.0, x0=None,
                       tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER) -> np.ndarray:
    """Consistent start state: Newton solve of Jg phi + i_nl(phi) = i_s(t)
    with dphi/dt = 0."""
    phi = np.zeros(sys.n) if x0 is None else np.array(x0, dtype=float)
    phi, _ = _newton_step(sys, StepFactors(sys, keep=1), phi, sys.Jc @ phi,
                          -sys.source_eval(t), 0.0, 1.0, t, None, tol, max_iter)
    return phi


def _newton_step(sys, factors, phi_guess, jc_guess, rhs_const, coef_dt, coef_g,
                 t, step, tol, max_iter):
    """Solve  coef_dt*Jc*phi + coef_g*(Jg*phi + i_nl(phi,t)) + rhs_const = 0
    from phi_guess, given jc_guess = Jc @ phi_guess.  ``step`` None marks
    the DC operating point."""
    prefix = "DC operating point: " if step is None else ""
    phi, jc_phi = phi_guess, jc_guess
    for iters in range(1, max_iter + 1):
        i_nl, jac = sys.eval_nonlinear(phi, t)
        residual = coef_dt * jc_phi + coef_g * (sys.Jg @ phi + i_nl) + rhs_const
        try:
            delta = factors.get(coef_dt, coef_g, jac.g).solve(-residual)
        except SolverError as exc:
            raise SolverError(prefix + exc.message, step, t,
                              float(np.max(np.abs(residual))), exc.dof) from None
        change = abs(delta).max()             # NaN if any entry is NaN
        if not math.isfinite(change):
            raise SolverError(prefix + "solution is not finite (singular step "
                              "matrix?)", step, t)
        phi = phi + delta
        if change <= tol * (1.0 + abs(phi).max()):
            return phi, iters
        jc_phi = sys.Jc @ phi
    worst = int(np.argmax(np.abs(residual)))
    raise SolverError(f"{prefix}Newton did not converge in {max_iter} iterations",
                      step, t, float(abs(residual[worst])), sys.dofs.names[worst])


def integrate(sys, x0, grid: TimeGrid, scheme: str = "implicit_euler",
              tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
              deriv0=None) -> Trajectory:
    """Integrate the DAE from x0 over the grid.

    Implicit Euler:  Jc (x_{k+1}-x_k)/dt + Jg x_{k+1} + i_nl - i_s(t_{k+1}) = 0.
    Trapezoidal averages the algebraic part over both endpoints.  deriv0 seeds
    the stored derivative at the first grid point (zero for a DC start).
    Newton keeps the last step factorization, so steps with unchanged
    device conductances solve without refactorizing.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    n_steps = grid.n_steps
    dt = grid.dt
    states = np.empty((n_steps + 1, sys.n))
    derivs = np.empty((n_steps + 1, sys.n))
    states[0] = np.asarray(x0, dtype=float)
    derivs[0] = np.zeros(sys.n) if deriv0 is None else np.asarray(deriv0, dtype=float)
    total_iters = 0
    times = grid.times
    factors = StepFactors(sys, keep=1)

    for k in range(n_steps):
        t_next = times[k + 1]
        phi_k = states[k]
        jc_phi = sys.Jc @ phi_k
        if scheme == "implicit_euler":
            rhs_const = -jc_phi / dt - sys.source_eval(t_next)
            phi, iters = _newton_step(sys, factors, phi_k, jc_phi, rhs_const,
                                      1.0 / dt, 1.0, t_next, k + 1, tol, max_iter)
        else:  # trapezoidal
            i_nl_k, _ = sys.eval_nonlinear(phi_k, times[k])
            f_k = sys.Jg @ phi_k + i_nl_k - sys.source_eval(times[k])
            rhs_const = (-jc_phi / dt + 0.5 * f_k
                         - 0.5 * sys.source_eval(t_next))
            phi, iters = _newton_step(sys, factors, phi_k, jc_phi, rhs_const,
                                      1.0 / dt, 0.5, t_next, k + 1, tol, max_iter)
            derivs[k + 1] = 2.0 * (phi - phi_k) / dt - derivs[k]
        states[k + 1] = phi
        total_iters += iters
    if scheme == "implicit_euler":      # (phi_{k+1} - phi_k) / dt, as stored
        np.subtract(states[1:], states[:-1], out=derivs[1:])
        derivs[1:] /= dt

    return Trajectory(grid, states, derivs, newton_iters=total_iters)
