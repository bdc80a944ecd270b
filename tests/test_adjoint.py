"""Adjoint solves and sensitivities against analytic and FD oracles.

The workhorse fixture is the unit RC charge circuit (R = C = 1, so tau = 1 s)
whose step response v(t) = 1 - exp(-t) has closed-form sensitivities

    dv/dR(t)  = -(t / R) exp(-t),        at t = 1: -exp(-1) = -0.36788
    dv/dC(t)  =  identical by symmetry (R and C only enter through tau)
    int_0^1 dv/dR dt = -(1 - 2 exp(-1)) = -0.26424
"""

import numpy as np
import pytest

from pintsens import (TimeGrid, Qoi, parse_netlist, assemble, integrate,
                      solve_adjoint, pointwise_sensitivity,
                      interval_sensitivity, sensitivity_series,
                      mu_finite_difference, qoi_values,
                      finite_difference_series, finite_difference_oracle,
                      builtin_circuit, dc_operating_point, SolverError,
                      Trajectory)
from pintsens import mna


RC_TEXT = """* unit rc
V1 in 0 DC 1
R1 in out 1
C1 out 0 1
.tran 1e-3 1
.end
"""


def rc_problem(dt=1e-3):
    nl = parse_netlist(RC_TEXT)
    sys = assemble(nl)
    grid = TimeGrid(0.0, 1.0, dt)
    x0 = np.zeros(sys.n)
    x0[sys.dofs.node_index["in"]] = 1.0
    x0[sys.dofs.branch_index["V1"]] = -1.0
    # consistent initial derivative: v_out ramps at (v_in - v_out)/(RC) = 1
    d0 = np.zeros(sys.n)
    d0[sys.dofs.node_index["out"]] = 1.0
    traj = integrate(sys, x0, grid, deriv0=d0)
    return nl, sys, grid, traj


def discharged_rc_start(sys):
    x0 = np.zeros(sys.n)
    x0[sys.dofs.node_index["in"]] = 1.0
    r = next(p.nominal for p in sys.params if p.kind == "R")
    x0[sys.dofs.branch_index["V1"]] = -1.0 / r
    return x0


class TestRcAnalytic:
    def test_pointwise_dv_dr(self):
        _, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 1.0, Qoi("out"))
        s = pointwise_sensitivity(sys, traj, adj)
        dv_dr = s[[p.name for p in sys.params].index("R1")]
        assert dv_dr == pytest.approx(-np.exp(-1.0), abs=1e-3)

    def test_dv_dc_equals_dv_dr_exactly(self):
        """R and C enter only through tau = RC, so at nominal value 1 the two
        sensitivities agree -- and the discrete scheme preserves this."""
        _, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 1.0, Qoi("out"))
        s = pointwise_sensitivity(sys, traj, adj)
        names = [p.name for p in sys.params]
        dv_dr = s[names.index("R1")]
        dv_dc = s[names.index("C1")]
        assert abs(dv_dc - dv_dr) <= 1e-9 * abs(dv_dr)

    def test_interval_sensitivity(self):
        _, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 1.0, Qoi("out"))
        s = interval_sensitivity(sys, traj, adj)
        dv_dr = s[[p.name for p in sys.params].index("R1")]
        assert dv_dr == pytest.approx(-(1.0 - 2.0 * np.exp(-1.0)), abs=1e-3)

    def test_against_fd_oracle(self):
        nl, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 1.0, Qoi("out"))
        s = pointwise_sensitivity(sys, traj, adj)
        for j, p in enumerate(sys.params):
            fd = finite_difference_oracle(nl, p, 1e-5, Qoi("out"), 1.0,
                                          initial_state=discharged_rc_start)
            assert s[j] == pytest.approx(fd, rel=1e-3, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, -1e-5, 1.0, 2.0, float("nan")])
    def test_fd_step_outside_unit_interval_rejected(self, delta):
        """A relative step of 1 or more would perturb a parameter to zero or
        below; such a step raises before any forward solve."""
        nl = parse_netlist(RC_TEXT)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            finite_difference_series(nl, nl.params[0], delta, Qoi("out"), [1.0])


class TestAdjointStructure:
    def test_terminal_condition_is_zero(self):
        _, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 0.5, Qoi("out"))
        assert np.all(adj.lam[adj.m_index] == 0.0)

    def test_zero_qoi_weight_gives_zero_adjoint(self):
        _, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 1.0, Qoi({"out": 0.0}))
        assert np.max(np.abs(adj.lam)) == 0.0
        assert np.max(np.abs(adj.mu)) == 0.0

    def test_linearity_in_qoi(self):
        _, sys, _, traj = rc_problem()
        a1 = solve_adjoint(sys, traj, 1.0, Qoi({"out": 1.0}))
        a3 = solve_adjoint(sys, traj, 1.0, Qoi({"out": 3.0}))
        np.testing.assert_allclose(a3.lam, 3.0 * a1.lam, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(a3.mu, 3.0 * a1.mu, rtol=1e-12, atol=1e-14)

    def test_t_m_at_grid_start_degenerates_cleanly(self):
        _, sys, _, traj = rc_problem()
        adj = solve_adjoint(sys, traj, 0.0, Qoi("out"))
        assert adj.lam.shape == (1, sys.n)
        assert np.max(np.abs(adj.lam)) == 0.0

    def test_mu_matches_finite_difference_route(self):
        """The implemented mu (homogeneous backward solve seeded from the
        first lambda step) must agree with the dual-route reference
        (lam(.; t_m + dt) - lam(.; t_m)) / dt for this time-invariant system."""
        _, sys, _, traj = rc_problem()
        qoi = Qoi("out")
        adj = solve_adjoint(sys, traj, 0.9, qoi)
        ref = mu_finite_difference(sys, traj, 0.9, qoi)
        scale = np.max(np.abs(ref)) + 1e-30
        assert np.max(np.abs(adj.mu - ref)) / scale < 1e-9


class TestLeibnizConsistency:
    def test_interval_equals_summed_pointwise_to_first_order(self):
        """d/dp int U dt == int dU/dp dt: the interval sensitivity at t_m and
        the quadrature of the pointwise series agree up to O(dt) -- the error
        halves when dt does."""
        errs = []
        for dt in (4e-3, 2e-3):
            _, sys, grid, traj = rc_problem(dt)
            qoi = Qoi("out")
            adj = solve_adjoint(sys, traj, 1.0, qoi)
            interval = interval_sensitivity(sys, traj, adj)
            instants = grid.times[1:]
            series = sensitivity_series(
                sys, traj, Qoi("out", instants=tuple(instants)))
            quad = np.sum(series.values, axis=0) * dt
            errs.append(np.max(np.abs(quad - interval))
                        / np.max(np.abs(interval)))
        assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.35)


class TestSensitivitySeries:
    def test_one_solve_per_instant(self):
        _, sys, grid, traj = rc_problem()
        instants = tuple(grid.times[k] for k in (200, 400, 600, 800, 1000))
        ser = sensitivity_series(sys, traj, Qoi("out", instants=instants))
        assert ser.n_adjoint_solves == len(instants)
        assert ser.values.shape == (5, len(sys.params))

    def test_empty_instants_rejected(self):
        _, sys, _, traj = rc_problem()
        with pytest.raises(ValueError):
            sensitivity_series(sys, traj, Qoi("out"))

    def test_row_lookup(self):
        _, sys, grid, traj = rc_problem()
        ser = sensitivity_series(sys, traj,
                                 Qoi("out", instants=(grid.times[500],)))
        np.testing.assert_array_equal(ser.row("r1"), ser.values[:, 1])
        with pytest.raises(KeyError):
            ser.row("nope")

    def test_csv_output(self, tmp_path):
        _, sys, grid, traj = rc_problem()
        instants = (grid.times[500], grid.times[1000])
        ser = sensitivity_series(sys, traj, Qoi("out", instants=instants))
        path = tmp_path / "sens.csv"
        ser.write_csv(path)
        lines = path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "t_m,C1,R1"
        assert len(data) == 3
        row = [float(x) for x in data[-1].split(",")]
        assert row[0] == instants[-1]
        assert row[2] == ser.values[-1, 1]

    def test_matches_series_of_fd_runs(self):
        nl, sys, grid, traj = rc_problem()
        instants = tuple(grid.times[k] for k in (300, 700, 1000))
        ser = sensitivity_series(sys, traj, Qoi("out", instants=instants))
        p = next(q for q in sys.params if q.name == "R1")
        fd = finite_difference_series(nl, p, 1e-5, Qoi("out"), instants,
                                      initial_state=discharged_rc_start)
        np.testing.assert_allclose(ser.row("R1"), fd, rtol=1e-3, atol=1e-12)


@pytest.fixture(scope="module")
def rect():
    nl = builtin_circuit("half_wave_rectifier")
    sys = assemble(nl)
    d = nl.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    x0 = dc_operating_point(sys, 0.0)
    traj = integrate(sys, x0, grid)
    return nl, sys, grid, traj


class TestRectifier:
    def test_discharge_dominates_conduction(self, rect):
        """|dV_out/dR| is much larger while the diode blocks (RC discharge
        governed by R) than at the crest of a conduction interval."""
        nl, sys, grid, traj = rect
        d = nl.directives
        # conduction crest near 4.25 periods, discharge midway after it
        t_cond = 0.085
        t_disc = 0.094
        qoi = Qoi("out", instants=(t_cond, t_disc))
        ser = sensitivity_series(sys, traj, qoi)
        r_row = ser.row("Rload")
        assert abs(r_row[1]) >= 5.0 * abs(r_row[0])

    def test_adjoint_vs_fd_spot_check(self, rect):
        nl, sys, grid, traj = rect
        t_m = 0.094
        qoi = Qoi("out", instants=(t_m,))
        ser = sensitivity_series(sys, traj, qoi)
        for j, p in enumerate(ser.params):
            fd = finite_difference_oracle(nl, p, 1e-5, Qoi("out"), t_m)
            assert ser.values[0, j] == pytest.approx(fd, rel=1e-2, abs=1e-12)

    def test_qoi_values_tracks_named_node(self, rect):
        nl, sys, grid, traj = rect
        u = qoi_values(traj, Qoi("out"), sys.dofs)
        np.testing.assert_array_equal(
            u, traj.states[:, sys.dofs.node_index["out"]])
        # rectified output stays positive after the first crest
        assert np.min(u[grid.index_of(0.02):]) > 0.0


@pytest.mark.xfail(strict=True, reason="the adjoint treats the DC start state "
                   "as independent of the parameters")
def test_b6_resistor_sensitivity_includes_dc_start():
    """Finite differences re-solve the DC operating point for every
    perturbed R, so they see how the start state moves with R; the adjoint
    quadrature starts at t = 0 and does not (0.761 against 0.349 here)."""
    nl = builtin_circuit("b6_bridge_reduced", t_end=10e-6)
    sys = assemble(nl)
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    p = next(q for q in sys.params if q.name == "R_dc-uh")
    ser = sensitivity_series(sys, traj, Qoi("uh_d", instants=(grid.t1,)),
                             params=[p])
    fd = finite_difference_oracle(nl, p, 1e-5, Qoi("uh_d"), grid.t1)
    assert ser.values[0, 0] == pytest.approx(fd, rel=1e-2)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_backward_step_names_step_time_and_dof():
    sys = assemble(parse_netlist("""* resistor island with no path to ground
V1 in 0 DC 1
R1 in 0 1e3
R2 x y 1e3
R3 x y 2e3
.tran 1e-6 1e-5
.end
"""))
    grid = TimeGrid(0.0, 1e-5, 1e-6)
    states = np.zeros((grid.n_steps + 1, sys.n))
    traj = Trajectory(grid, states, states.copy())
    with pytest.raises(SolverError, match=r"step 9, t=9e-06: singular .* v\(y\)"):
        solve_adjoint(sys, traj, grid.t1, Qoi("in"))


ISLAND = """* resistor island with no path to ground
V1 in 0 DC 1
R1 in 0 1e3
R2 x y 1e3
R3 x y 2e3
.tran 1e-6 1e-5
.end
"""


def test_singular_sparse_backward_step_names_step_time_and_dof(monkeypatch):
    """splu does not name the column; its error path factors the same
    matrix densely, which does."""
    monkeypatch.setattr(mna, "DENSE_LIMIT", 1)
    sys = assemble(parse_netlist(ISLAND))
    assert not sys.dense
    grid = TimeGrid(0.0, 1e-5, 1e-6)
    states = np.zeros((grid.n_steps + 1, sys.n))
    traj = Trajectory(grid, states, states.copy())
    with pytest.raises(SolverError, match=r"step 9, t=9e-06: singular .* v\(y\)"):
        solve_adjoint(sys, traj, grid.t1, Qoi("in"))
