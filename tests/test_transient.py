"""Transient integration: grids, schemes, accuracy orders, invariants."""

import importlib.util
import sys as _sys
from pathlib import Path

import numpy as np
import pytest

from pintsens import (TimeGrid, parse_netlist, assemble, dc_operating_point,
                      integrate, SolverError, builtin_circuit, partition)
from pintsens import mna
from pintsens.cli import main
from pintsens.propagators import _coarse_substeps


RC_TEXT = """* rc charge
V1 in 0 DC 1
R1 in out 1e3
C1 out 0 1e-6
.tran 1e-5 1e-3
.end
"""

TAU = 1e-3


def rc_setup(dt, t_end=TAU):
    sys = assemble(parse_netlist(RC_TEXT))
    grid = TimeGrid(0.0, t_end, dt)
    # start from a discharged capacitor: v(in)=1, v(out)=0, i(V1)=-1/R
    x0 = np.zeros(sys.n)
    x0[sys.dofs.node_index["in"]] = 1.0
    x0[sys.dofs.branch_index["V1"]] = -1e-3
    return sys, grid, x0


class TestTimeGrid:
    def test_counts_and_endpoints(self):
        g = TimeGrid(0.0, 1e-3, 1e-5)
        assert g.n_steps == 100
        assert g.times[0] == 0.0
        assert g.times[-1] == pytest.approx(1e-3)
        assert len(g.times) == 101

    def test_index_of(self):
        g = TimeGrid(0.0, 1e-3, 1e-5)
        assert g.index_of(0.0) == 0
        assert g.index_of(5e-4) == 50
        assert g.index_of(1e-3) == 100
        with pytest.raises(ValueError):
            g.index_of(3.3e-6)      # off-grid

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -1e-3)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 1e-3)

    def test_span_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="whole steps"):
            TimeGrid(0.0, 1.0, 0.4)       # would end at 0.8
        with pytest.raises(ValueError, match="whole steps"):
            TimeGrid(0.0, 1e-3, 3e-3)     # not even one step

    def test_fixture_benchmark_and_propagator_grids_construct(self, monkeypatch):
        """The builtin fixtures, every benchmark workload, and the fine,
        coarse and sigma grids that the propagators cut from them."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(_sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        cases = [(name, {}) for name in ("half_wave_rectifier", "b6_bridge_reduced")]
        cases += [(w.circuit, w.options) for w in workloads.WORKLOADS.values()]
        for name, options in cases:
            d = builtin_circuit(name, **options).directives
            grid = TimeGrid(0.0, d.t_end, d.dt)
            for n in (2, 3, 8):
                for t_start, t_end, _, _ in partition(grid, n):
                    TimeGrid(t_start, t_end, grid.dt)
                    steps = int(round((t_end - t_start) / grid.dt))
                    for stride in (25, 100):
                        sub = _coarse_substeps(t_end - t_start, grid.dt, stride)
                        TimeGrid(t_start, t_end, grid.dt * (steps / sub))
            for t_m in grid.times[1:]:
                TimeGrid(grid.t0, grid.t0 + (t_m - grid.t0), grid.dt)


class TestDcOperatingPoint:
    def test_resistive_divider(self):
        sys = assemble(parse_netlist("""* divider
V1 in 0 DC 10
R1 in mid 1e3
R2 mid 0 1e3
.tran 1e-6 1e-3
.end
"""))
        x = dc_operating_point(sys, 0.0)
        assert x[sys.dofs.node_index["mid"]] == pytest.approx(5.0)
        assert x[sys.dofs.branch_index["V1"]] == pytest.approx(-5e-3)

    def test_diode_forward_drop(self):
        sys = assemble(parse_netlist("""* diode bias
V1 in 0 DC 5
D1 in out 1e-12 1.0 0.02585
R1 out 0 1e3
.tran 1e-6 1e-3
.end
"""))
        x = dc_operating_point(sys, 0.0)
        v_d = x[sys.dofs.node_index["in"]] - x[sys.dofs.node_index["out"]]
        assert 0.5 < v_d < 0.8


class TestRcCharge:
    def test_one_tau_value(self):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid)
        v = traj.states[-1, sys.dofs.node_index["out"]]
        # implicit Euler first-order bias at this dt is ~2e-3
        assert v == pytest.approx(1.0 - np.exp(-1.0), abs=3e-3)

    def test_trapezoidal_agrees(self):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid, scheme="trapezoidal")
        v = traj.states[-1, sys.dofs.node_index["out"]]
        assert v == pytest.approx(1.0 - np.exp(-1.0), abs=1e-5)

    def test_unknown_scheme_rejected(self):
        sys, grid, x0 = rc_setup(1e-5)
        with pytest.raises(ValueError):
            integrate(sys, x0, grid, scheme="rk4")

    @pytest.mark.parametrize("scheme,order", [("implicit_euler", 1),
                                              ("trapezoidal", 2)])
    def test_order_of_accuracy(self, scheme, order):
        exact = 1.0 - np.exp(-1.0)
        errs = []
        for dt in (2e-5, 1e-5, 5e-6):
            sys, grid, x0 = rc_setup(dt)
            traj = integrate(sys, x0, grid, scheme=scheme)
            errs.append(abs(traj.states[-1, sys.dofs.node_index["out"]] - exact))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert r1 == pytest.approx(2.0 ** order, rel=0.2)
        assert r2 == pytest.approx(2.0 ** order, rel=0.2)


class TestInvariants:
    def test_residual_along_trajectory(self):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid)
        Jc = np.asarray(sys.Jc)
        Jg = np.asarray(sys.Jg)
        for k in range(1, grid.n_steps + 1):
            t = grid.times[k]
            i_nl, _ = sys.eval_nonlinear(traj.states[k], t)
            r = (Jc @ traj.derivs[k] + Jg @ traj.states[k] + i_nl
                 - sys.source_eval(t))
            scale = 1.0 + np.max(np.abs(sys.source_eval(t)))
            assert np.max(np.abs(r)) <= 1e-9 * scale

    def test_derivs_match_difference_formula(self):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid)
        fd = np.diff(traj.states, axis=0) / grid.dt
        np.testing.assert_allclose(traj.derivs[1:], fd, atol=1e-12)

    def test_trapezoidal_deriv_formula(self):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid, scheme="trapezoidal")
        dphi = np.diff(traj.states, axis=0) / grid.dt
        expect = 2.0 * dphi - traj.derivs[:-1]
        np.testing.assert_allclose(traj.derivs[1:], expect, atol=1e-10)

    def test_bit_identical_reruns(self):
        sys, grid, x0 = rc_setup(1e-5)
        a = integrate(sys, x0, grid)
        b = integrate(sys, x0, grid)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)

    def test_zero_source_stays_zero(self):
        sys = assemble(parse_netlist("""* dead circuit
V1 in 0 DC 0
R1 in out 1e3
C1 out 0 1e-6
.tran 1e-5 1e-3
.end
"""))
        grid = TimeGrid(0.0, 1e-3, 1e-5)
        traj = integrate(sys, np.zeros(sys.n), grid)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_newton_iteration_counts_recorded(self):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid)
        # cumulative Newton iterations: at least one, at most 50 per step
        assert grid.n_steps <= traj.newton_iters <= 50 * grid.n_steps


class TestStartShape:
    """A start state or derivative of another shape than (n,) is rejected,
    never broadcast."""

    def test_integrate_rejects_wrong_start_state(self):
        sys, grid, x0 = rc_setup(1e-5)
        for bad in (0.0, x0[:2], np.append(x0, 0.0), x0[:, None]):
            with pytest.raises(ValueError, match=r"x0 must have shape \(3,\)"):
                integrate(sys, bad, grid)
        traj = integrate(sys, list(x0), grid)
        assert np.array_equal(traj.states[0], x0)

    def test_integrate_rejects_wrong_start_derivative(self):
        sys = assemble(builtin_circuit("half_wave_rectifier"))
        grid = TimeGrid(0.0, 1e-4, 1e-5)
        x0 = dc_operating_point(sys, 0.0)
        for bad in (1.0, np.ones(sys.n + 1)):
            with pytest.raises(ValueError, match=r"deriv0 must have shape \(3,\)"):
                integrate(sys, x0, grid, scheme="trapezoidal", deriv0=bad)
        deriv0 = np.arange(1.0, sys.n + 1.0)
        traj = integrate(sys, x0, grid, scheme="trapezoidal", deriv0=deriv0)
        assert np.array_equal(traj.derivs[0], deriv0)

    def test_dc_operating_point_rejects_wrong_guess(self):
        sys, _, x0 = rc_setup(1e-5)
        for bad in (5.0, np.zeros(sys.n + 1)):
            with pytest.raises(ValueError, match=r"x0 must have shape \(3,\)"):
                dc_operating_point(sys, x0=bad)
        np.testing.assert_allclose(dc_operating_point(sys, x0=x0),
                                   dc_operating_point(sys), rtol=0, atol=1e-12)


class TestCsv:
    def test_roundtrip_precision(self, tmp_path):
        sys, grid, x0 = rc_setup(1e-5)
        traj = integrate(sys, x0, grid)
        path = tmp_path / "traj.csv"
        traj.write_csv(path, sys.dofs.names)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert set(header[1:]) == set(sys.dofs.names)
        assert len(lines) == grid.n_steps + 2
        row = np.array([float(x) for x in lines[-1].split(",")])
        assert row[0] == grid.times[-1]
        col = header.index(f"v(out)")
        assert row[col] == traj.states[-1, sys.dofs.node_index["out"]]


FLOATING = """* resistor island with no path to ground
V1 in 0 DC 1
R1 in 0 1e3
R2 x y 1e3
R3 x y 2e3
.tran 1e-6 1e-5
.end
"""


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
class TestSolverErrors:
    def test_singular_step_names_step_time_and_dof(self):
        sys = assemble(parse_netlist(FLOATING))
        with pytest.raises(SolverError) as info:
            integrate(sys, np.zeros(sys.n), TimeGrid(0.0, 1e-5, 1e-6))
        err = info.value
        assert err.step == 1
        assert err.t == pytest.approx(1e-6)
        assert err.dof == "v(y)"
        assert err.residual == pytest.approx(1.0)     # the source row
        message = str(err)
        for part in ("step 1", "t=1e-06", "singular", "v(y)"):
            assert part in message, message

    def test_singular_sparse_step_names_step_and_time(self, monkeypatch):
        monkeypatch.setattr(mna, "DENSE_LIMIT", 1)
        sys = assemble(parse_netlist(FLOATING))
        assert not sys.dense
        with pytest.raises(SolverError, match="step 1, t=1e-06: singular"):
            integrate(sys, np.zeros(sys.n), TimeGrid(0.0, 1e-5, 1e-6))

    def test_singular_dc_point_exits_with_solver_failure(self, tmp_path, capsys):
        path = tmp_path / "floating.cir"
        path.write_text(FLOATING)
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "DC operating point" in err and "v(y)" in err

    def test_newton_failure_names_worst_residual_dof(self):
        sys, grid, x0 = rc_setup(1e-5)
        with pytest.raises(SolverError, match="did not converge") as info:
            integrate(sys, x0, grid, max_iter=1)
        err = info.value
        assert (err.step, err.dof) == (1, "v(out)")
        assert err.t == pytest.approx(1e-5)
        assert err.residual == pytest.approx(1e-3)    # current into the capacitor
