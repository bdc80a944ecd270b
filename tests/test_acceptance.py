"""End-to-end acceptance gate.

One test (or tightly-scoped group) per numbered criterion; the conftest
prints a PASS/FAIL line for each in the terminal summary.  Tolerances here
are contractual -- do not loosen them to make a failing build green.
"""

import time

import numpy as np
import pytest

from pintsens import (TimeGrid, Qoi, PararealConfig, Propagator, parse_netlist,
                      assemble, integrate, dc_operating_point, solve_adjoint,
                      pointwise_sensitivity, sensitivity_series,
                      finite_difference_series, qoi_values, builtin_circuit,
                      parareal_solve, parareal_integrate,
                      parareal_adjoint_solve, normalize_relative, welch_psd,
                      speedup, efficiency)


# ---------------------------------------------------------------------------
# criterion 1: adjoint vs finite differences on the rectifier
# ---------------------------------------------------------------------------

def test_criterion_1_rectifier_adjoint_vs_fd():
    tic = time.perf_counter()
    nl = builtin_circuit("half_wave_rectifier")
    sys = assemble(nl)
    d = nl.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)

    # 10 instants spread over the analysis window 0.08..0.1 s
    ks = np.linspace(grid.index_of(d.sens_start), grid.n_steps, 10).astype(int)
    instants = tuple(grid.times[k] for k in ks)
    ser = sensitivity_series(sys, traj, Qoi("out", instants=instants))

    for j, p in enumerate(ser.params):
        fd = finite_difference_series(nl, p, 1e-5, Qoi("out"), instants)
        err = np.abs(ser.values[:, j] - fd) / np.maximum(np.abs(fd), 1e-12)
        assert np.max(err) <= 1e-2, (p.name, err, fd)
    assert time.perf_counter() - tic <= 60.0


# ---------------------------------------------------------------------------
# criterion 2: analytic RC sensitivities
# ---------------------------------------------------------------------------

def test_criterion_2_rc_analytic():
    sys = assemble(parse_netlist("""* unit rc
V1 in 0 DC 1
R1 in out 1
C1 out 0 1
.tran 1e-3 1
.end
"""))
    grid = TimeGrid(0.0, 1.0, 1e-3)
    x0 = np.zeros(sys.n)
    x0[sys.dofs.node_index["in"]] = 1.0
    x0[sys.dofs.branch_index["V1"]] = -1.0
    d0 = np.zeros(sys.n)
    d0[sys.dofs.node_index["out"]] = 1.0
    traj = integrate(sys, x0, grid, deriv0=d0)

    adj = solve_adjoint(sys, traj, 1.0, Qoi("out"))
    s = pointwise_sensitivity(sys, traj, adj)
    names = [p.name for p in sys.params]
    dv_dr = s[names.index("R1")]
    dv_dc = s[names.index("C1")]
    assert dv_dr == pytest.approx(-0.36788, abs=1e-3)
    assert abs(dv_dc - dv_dr) <= 1e-9 * abs(dv_dr)


# ---------------------------------------------------------------------------
# criterion 3: parareal exactness and convergence
# ---------------------------------------------------------------------------

def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))


def test_criterion_3_rectifier_three_iterations():
    nl = builtin_circuit("half_wave_rectifier", dt=2e-6, periods=2.0)
    sys = assemble(nl)
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    x0 = dc_operating_point(sys, 0.0)
    traj = integrate(sys, x0, grid)
    cfg = PararealConfig(n_subintervals=8, tol=1e-7, coarse_stride=100)

    ptraj, frep = parareal_integrate(sys, x0, grid, cfg)
    assert frep.converged and frep.iterations <= 3
    assert frep.iterations <= cfg.n_subintervals
    assert _relative_gap(ptraj.states, traj.states) <= 10 * cfg.tol

    qoi = Qoi("out")
    t_m = grid.times[grid.n_steps // 2]
    ref = solve_adjoint(sys, traj, t_m, qoi)
    padj, arep = parareal_adjoint_solve(sys, traj, t_m, qoi, cfg)
    assert arep.converged and arep.iterations <= 3
    assert _relative_gap(padj.lam, ref.lam) <= 10 * cfg.tol


def test_criterion_3_b6_three_iterations():
    nl = builtin_circuit("b6_bridge_reduced")
    sys = assemble(nl)
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    x0 = dc_operating_point(sys, 0.0)
    traj = integrate(sys, x0, grid)
    cfg = PararealConfig(n_subintervals=8, tol=5e-3, coarse_stride=100)

    ptraj, frep = parareal_integrate(sys, x0, grid, cfg)
    assert frep.converged and frep.iterations <= 3
    assert _relative_gap(ptraj.states, traj.states) <= 10 * cfg.tol

    qoi = Qoi({"uh_d": 1.0, "u": -1.0})
    t_m = 19.1e-6
    ref = solve_adjoint(sys, traj, t_m, qoi)
    padj, arep = parareal_adjoint_solve(sys, traj, t_m, qoi, cfg)
    assert arep.converged and arep.iterations <= 3
    assert _relative_gap(padj.lam, ref.lam) <= 10 * cfg.tol


class _ExactDecay(Propagator):
    def evolve(self, state, t_start, t_end):
        end = state * np.exp(-(t_end - t_start))
        states = np.vstack([state, end])
        return end, (np.array([t_start, t_end]), states, np.zeros_like(states))


class _EulerDecay(Propagator):
    def evolve(self, state, t_start, t_end):
        return state / (1.0 + (t_end - t_start)), None


def test_criterion_3_hand_worked_example():
    grid = TimeGrid(0.0, 1.0, 0.5)
    cfg = PararealConfig(n_subintervals=2, tol=1e-16, max_iter=1)
    _, rep = parareal_solve(_ExactDecay(), _EulerDecay(),
                            np.array([1.0]), grid, cfg)
    assert rep.interface_states[1][0] == pytest.approx(0.6065306597, abs=1e-5)
    assert rep.interface_states[2][0] == pytest.approx(0.3642631018, abs=1e-5)


# ---------------------------------------------------------------------------
# criterion 4: benchmark arithmetic against the reference table
# ---------------------------------------------------------------------------

def test_criterion_4_reference_table_arithmetic():
    s48 = speedup(51.08, 2.16)
    assert s48 == pytest.approx(23.648, abs=1e-3)
    assert efficiency(s48, 48) == pytest.approx(0.4927, abs=1e-4)

    totals = {2: 50.62, 4: 25.34, 8: 12.62, 12: 8.40, 24: 4.18, 48: 2.16}
    for n, t_p in totals.items():
        e = efficiency(speedup(51.08, t_p), n)
        assert e == pytest.approx(0.5, abs=0.02), (n, e)


# ---------------------------------------------------------------------------
# criterion 5: hardware-independent scaling of the fine/coarse split
# ---------------------------------------------------------------------------

def test_criterion_5_fine_time_scaling():
    nl = builtin_circuit("b6_bridge_reduced")
    sys = assemble(nl)
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    x0 = dc_operating_point(sys, 0.0)

    # The N values are measured in interleaved rounds, and each ratio is the
    # median over rounds of the ratio within one round: the host's speed
    # drifts by tens of percent over seconds, so N values timed in separate
    # blocks would see different machines.
    ns = (2, 4, 8)
    fine = {n: [] for n in ns}
    coarse = {n: [] for n in ns}
    for _ in range(5):
        for n in ns:
            cfg = PararealConfig(n_subintervals=n, tol=0.0, max_iter=1,
                                 coarse_stride=100)
            _, rep = parareal_integrate(sys, x0, grid, cfg)
            fine[n].append(float(np.mean(rep.fine_times_s)))
            # coarse_time_s spans the seed sweep plus one update sweep
            coarse[n].append(rep.coarse_time_s / 2.0)
    fine = {n: np.array(v) for n, v in fine.items()}

    assert np.median(fine[4] / fine[2]) == pytest.approx(0.5, rel=0.3)
    assert np.median(fine[8] / fine[4]) == pytest.approx(0.5, rel=0.3)
    for n in ns:
        # the per-subinterval share of the serial coarse sweep, the quantity
        # the reference table lists next to the per-subinterval fine time
        coarse_per_sub = min(coarse[n]) / n
        assert coarse_per_sub <= 0.05 * fine[n].min()


# ---------------------------------------------------------------------------
# criterion 6: qualitative reproduction on the B6 bridge
# ---------------------------------------------------------------------------

def test_criterion_6_b6_sensitivity_tracks_qoi():
    nl = builtin_circuit("b6_bridge_reduced")
    sys = assemble(nl)
    d = nl.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)

    ks = range(grid.index_of(d.sens_start), grid.n_steps + 1, 10)
    qoi = Qoi({"uh_d": 1.0, "u": -1.0}, window=(d.sens_start, d.sens_end),
              instants=tuple(grid.times[k] for k in ks))
    ser = sensitivity_series(sys, traj, qoi)

    u = qoi_values(traj, qoi, sys.dofs)[list(ks)]
    s = ser.row("C_DS_uh")
    rho = np.corrcoef(u, s)[0, 1]
    assert abs(rho) >= 0.5, rho

    fractions, degenerate = normalize_relative(ser, list(ser.params))
    assert not degenerate.any()
    np.testing.assert_allclose(fractions.sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 7: spectral properties
# ---------------------------------------------------------------------------

def test_criterion_7_welch_properties():
    dt = 1e-4
    t = np.arange(8192) * dt
    f0 = 16 / (256 * dt)                    # exactly on a Welch bin
    spec = welch_psd(np.sin(2 * np.pi * f0 * t), dt)
    assert spec.freqs[np.argmax(spec.psd)] == pytest.approx(f0)
    assert np.all(spec.psd >= 0.0)

    rng = np.random.default_rng(123)
    x = rng.standard_normal(65536)
    spec = welch_psd(x, dt)
    df = spec.freqs[1] - spec.freqs[0]
    assert np.sum(spec.psd) * df == pytest.approx(np.var(x), rel=0.05)


# ---------------------------------------------------------------------------
# criterion 8: one adjoint solve per analyzed instant
# ---------------------------------------------------------------------------

def test_criterion_8_solve_count():
    sys = assemble(parse_netlist("""* unit rc
V1 in 0 DC 1
R1 in out 1
C1 out 0 1
.tran 1e-2 1
.end
"""))
    grid = TimeGrid(0.0, 1.0, 1e-2)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    instants = tuple(grid.times[k] for k in (10, 30, 50, 70, 80, 90, 100))
    ser = sensitivity_series(sys, traj, Qoi("out", instants=instants))
    assert ser.n_adjoint_solves == len(instants) == 7
    assert ser.values.shape == (7, len(sys.params))
