"""Parareal orchestration: partitioning, jump norms, exactness, stitching."""

import numpy as np
import pytest

from pintsens import mna
from pintsens.adjoint import AdjointCache
from pintsens.propagators import FineAdjointPropagator
from pintsens import (TimeGrid, Qoi, PararealConfig, Propagator, parse_netlist,
                      assemble, integrate, solve_adjoint, dc_operating_point,
                      partition, jump_norm, parareal_solve, parareal_integrate,
                      parareal_adjoint_solve, builtin_circuit)


class TestPartition:
    def test_even_split(self):
        grid = TimeGrid(0.0, 1.0, 0.1)
        subs = partition(grid, 5)
        assert [k1 - k0 for _, _, k0, k1 in subs] == [2] * 5
        assert subs[0][2] == 0 and subs[-1][3] == 10

    def test_remainder_goes_first(self):
        grid = TimeGrid(0.0, 1.0, 0.1)
        subs = partition(grid, 3)
        assert [k1 - k0 for _, _, k0, k1 in subs] == [4, 3, 3]

    def test_boundaries_are_contiguous_grid_points(self):
        grid = TimeGrid(0.0, 2.0, 0.01)
        subs = partition(grid, 7)
        for (_, t_end, _, k1), (t_start, _, k0, _) in zip(subs, subs[1:]):
            assert t_end == t_start
            assert k1 == k0
            assert t_start == pytest.approx(grid.times[k0])

    def test_more_subintervals_than_steps_rejected(self):
        grid = TimeGrid(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            partition(grid, 3)


class TestJumpNorm:
    def test_simple_values(self):
        assert jump_norm([np.array([0.0])], [np.array([1.0])]) == 0.5
        assert jump_norm([np.zeros(3)], [np.zeros(3)]) == 0.0

    def test_takes_worst_interface(self):
        old = [np.array([1.0]), np.array([0.0])]
        new = [np.array([1.0]), np.array([3.0])]
        assert jump_norm(old, new) == pytest.approx(3.0 / 4.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            jump_norm([np.zeros(2)], [np.zeros(2), np.zeros(2)])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PararealConfig(n_subintervals=0)
        with pytest.raises(ValueError):
            PararealConfig(n_subintervals=2, coarse_stride=0)

    def test_defaults(self):
        cfg = PararealConfig(n_subintervals=4)
        assert cfg.tol == 1e-8
        assert cfg.max_iter is None
        assert cfg.coarse_stride == 100


class ScalarDecayFine(Propagator):
    """Exact flow of x' = -x, recording endpoint-only pieces."""

    def evolve(self, state, t_start, t_end):
        end = state * np.exp(-(t_end - t_start))
        times = np.array([t_start, t_end])
        states = np.vstack([state, end])
        return end, (times, states, np.zeros_like(states))


class ScalarDecayCoarse(Propagator):
    """One implicit Euler step across the whole subinterval."""

    def evolve(self, state, t_start, t_end):
        end = state / (1.0 + (t_end - t_start))
        return end, None


class TestHandWorkedExample:
    """Scalar decay x' = -x, x0 = 1 on [0, 1], two subintervals.

    Interface values worked out by hand from the update
    X[n,k+1] = F(X[n-1,k]) + G(X[n-1,k+1]) - G(X[n-1,k]):
        seed (coarse):  X1 = 2/3,        X2 = 4/9
        iteration 1:    X1 = 0.60653066, X2 = 0.36426310
        iteration 2:    X1 = 0.60653066, X2 = 0.36787944  (exact: N sweeps)
    """

    def run(self, max_iter):
        grid = TimeGrid(0.0, 1.0, 0.5)
        cfg = PararealConfig(n_subintervals=2, tol=1e-16, max_iter=max_iter)
        return parareal_solve(ScalarDecayFine(), ScalarDecayCoarse(),
                              np.array([1.0]), grid, cfg)

    def test_iteration_one(self):
        _, rep = self.run(1)
        x1, x2 = rep.interface_states[1][0], rep.interface_states[2][0]
        assert x1 == pytest.approx(0.6065306597, abs=1e-5)
        assert x2 == pytest.approx(0.3642631018, abs=1e-5)

    def test_iteration_two_is_exact(self):
        _, rep = self.run(2)
        assert rep.interface_states[2][0] == pytest.approx(
            np.exp(-1.0), abs=1e-12)
        assert rep.converged        # finite termination after N sweeps

    def test_jump_history_recorded(self):
        _, rep = self.run(2)
        assert rep.iterations == 2
        assert len(rep.jump_history) == 2
        assert rep.jump_history[1] < rep.jump_history[0]


class TestIdenticalPropagators:
    def test_converges_in_one_iteration(self):
        grid = TimeGrid(0.0, 1.0, 0.25)
        cfg = PararealConfig(n_subintervals=4, tol=1e-12)
        _, rep = parareal_solve(ScalarDecayFine(), ScalarDecayFine(),
                                np.array([1.0]), grid, cfg)
        assert rep.iterations == 1
        assert rep.jump_history[0] == 0.0


RC_TEXT = """* rc for parareal
V1 in 0 SINE 1 500 0
R1 in out 1e3
C1 out 0 1e-6
.tran 1e-6 4e-3
.end
"""


@pytest.fixture(scope="module")
def rc_run():
    sys = assemble(parse_netlist(RC_TEXT))
    grid = TimeGrid(0.0, 4e-3, 1e-6)
    x0 = dc_operating_point(sys, 0.0)
    traj = integrate(sys, x0, grid)
    return sys, grid, x0, traj


class TestCircuitForward:
    def test_matches_sequential_within_tolerance(self, rc_run):
        sys, grid, x0, traj = rc_run
        cfg = PararealConfig(n_subintervals=8, tol=1e-9, coarse_stride=100)
        ptraj, rep = parareal_integrate(sys, x0, grid, cfg)
        assert rep.iterations <= 8
        assert np.max(np.abs(ptraj.states - traj.states)) <= 10 * cfg.tol

    def test_full_sweeps_reach_machine_exactness(self, rc_run):
        sys, grid, x0, traj = rc_run
        cfg = PararealConfig(n_subintervals=4, tol=0.0, max_iter=4,
                             coarse_stride=100)
        ptraj, _ = parareal_integrate(sys, x0, grid, cfg)
        assert np.max(np.abs(ptraj.states - traj.states)) <= 1e-12

    def test_stride_one_coarse_equals_fine(self, rc_run):
        sys, grid, x0, traj = rc_run
        cfg = PararealConfig(n_subintervals=4, tol=1e-13, coarse_stride=1)
        ptraj, rep = parareal_integrate(sys, x0, grid, cfg)
        assert rep.iterations == 1
        np.testing.assert_allclose(ptraj.states, traj.states, atol=1e-12)

    def test_worker_count_does_not_change_bits(self, rc_run):
        sys, grid, x0, _ = rc_run
        cfg = PararealConfig(n_subintervals=6, tol=1e-8, coarse_stride=50)
        t1, r1 = parareal_integrate(sys, x0, grid, cfg, workers=1)
        t4, r4 = parareal_integrate(sys, x0, grid, cfg, workers=4)
        assert np.array_equal(t1.states, t4.states)
        assert r1.jump_history == r4.jump_history

    def test_report_json_contract(self, rc_run):
        import json
        sys, grid, x0, _ = rc_run
        cfg = PararealConfig(n_subintervals=4, tol=1e-8, coarse_stride=100)
        _, rep = parareal_integrate(sys, x0, grid, cfg)
        doc = json.loads(rep.to_json())
        assert list(doc) == ["n_subintervals", "iterations", "jump_history",
                             "coarse_time_s", "fine_times_s", "total_wall_s",
                             "converged"]
        assert doc["n_subintervals"] == 4
        assert len(doc["fine_times_s"]) == 4


def _gap(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))


class TestCircuitAdjoint:
    T_M_INDEX = 3600

    def run(self, rc_run, cfg, workers=1):
        sys, grid, _, traj = rc_run
        return parareal_adjoint_solve(sys, traj, grid.times[self.T_M_INDEX],
                                      Qoi("out"), cfg, workers=workers)

    def sequential(self, rc_run):
        sys, grid, _, traj = rc_run
        return solve_adjoint(sys, traj, grid.times[self.T_M_INDEX], Qoi("out"))

    def test_full_sweeps_reach_machine_exactness(self, rc_run):
        ref = self.sequential(rc_run)
        cfg = PararealConfig(n_subintervals=4, tol=0.0, max_iter=4,
                             coarse_stride=100)
        adj, _ = self.run(rc_run, cfg)
        assert _gap(adj.lam, ref.lam) <= 1e-12
        assert _gap(adj.mu, ref.mu) <= 1e-12

    def test_stride_one_coarse_equals_fine(self, rc_run):
        ref = self.sequential(rc_run)
        cfg = PararealConfig(n_subintervals=4, tol=1e-13, coarse_stride=1)
        adj, rep = self.run(rc_run, cfg)
        assert rep.iterations == 1
        assert _gap(adj.lam, ref.lam) <= 1e-12
        assert _gap(adj.mu, ref.mu) <= 1e-12

    def test_worker_count_does_not_change_bits(self, rc_run):
        cfg = PararealConfig(n_subintervals=6, tol=1e-8, coarse_stride=50)
        a1, r1 = self.run(rc_run, cfg, workers=1)
        a2, r2 = self.run(rc_run, cfg, workers=2)
        assert np.array_equal(a1.lam, a2.lam)
        assert np.array_equal(a1.mu, a2.mu)
        assert r1.jump_history == r2.jump_history

    def test_matches_sequential_adjoint(self, rc_run):
        sys, grid, x0, traj = rc_run
        qoi = Qoi("out")
        t_m = grid.times[3600]
        ref = solve_adjoint(sys, traj, t_m, qoi)
        cfg = PararealConfig(n_subintervals=6, tol=1e-10, coarse_stride=100)
        adj, rep = parareal_adjoint_solve(sys, traj, t_m, qoi, cfg)
        assert rep.iterations <= 6
        scale = 1.0 + np.max(np.abs(ref.lam))
        assert np.max(np.abs(adj.lam - ref.lam)) / scale <= 10 * cfg.tol
        mscale = 1.0 + np.max(np.abs(ref.mu))
        assert np.max(np.abs(adj.mu - ref.mu)) / mscale <= 1e-6

    def test_terminal_condition_preserved(self, rc_run):
        sys, grid, x0, traj = rc_run
        cfg = PararealConfig(n_subintervals=4, tol=1e-9, coarse_stride=100)
        adj, _ = parareal_adjoint_solve(sys, traj, grid.times[2000],
                                        Qoi("out"), cfg)
        assert np.all(adj.lam[adj.m_index] == 0.0)


@pytest.mark.parametrize("circuit, options, qoi", [
    ("half_wave_rectifier", {"periods": 1.0}, "out"),
    ("b6_bridge_reduced", {"m": 0, "dt": 1e-8}, {"uh_d": 1.0, "u": -1.0}),
    ("b6_bridge_reduced", {"m": 2, "dt": 2e-8}, "uh_d"),
], ids=["rectifier", "b6_m0", "b6_m2_sparse"])
def test_fine_adjoint_propagator_reproduces_solve_adjoint(monkeypatch, circuit,
                                                          options, qoi):
    """Parareal reaches the sequential answer only if its fine propagator
    takes exactly the sequential backward step: started from
    ``solve_adjoint``'s [lam; mu] at the upper end of each subinterval, it
    reproduces the rest of that subinterval bit for bit."""
    if options.get("m"):                # 57 DoFs: force the sparse backend
        monkeypatch.setattr(mna, "DENSE_LIMIT", 10)
    nl = builtin_circuit(circuit, **options)
    sys = assemble(nl)
    assert sys.dense == (not options.get("m"))
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    m = grid.n_steps - 3
    qoi = Qoi(qoi)
    ref = solve_adjoint(sys, traj, grid.times[m], qoi)
    stacked = np.hstack([ref.lam, ref.mu])[::-1]     # sigma order: row j <-> k = m - j
    fine = FineAdjointPropagator(AdjointCache(sys, traj), m, qoi.vector(sys.dofs))
    sigma_grid = TimeGrid(grid.t0, grid.times[m], grid.dt)
    for s_start, s_end, j0, j1 in partition(sigma_grid, 4):
        end, (_, states, _) = fine.evolve(stacked[j0], s_start, s_end)
        assert np.array_equal(states, stacked[j0: j1 + 1]), (j0, j1)
        assert np.array_equal(end, stacked[j1])


class TestBothFixturesConverge:
    """Interface jumps reach tolerance in three iterations or fewer with the
    default coarse stride of 100 on both builtin circuits."""

    def test_rectifier(self):
        nl = builtin_circuit("half_wave_rectifier", dt=2e-6, periods=2.0)
        sys = assemble(nl)
        grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
        x0 = dc_operating_point(sys, 0.0)
        cfg = PararealConfig(n_subintervals=8, tol=1e-7, coarse_stride=100)
        _, frep = parareal_integrate(sys, x0, grid, cfg)
        assert frep.converged and frep.iterations <= 3

    def test_b6_bridge(self):
        nl = builtin_circuit("b6_bridge_reduced")
        sys = assemble(nl)
        grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
        x0 = dc_operating_point(sys, 0.0)
        cfg = PararealConfig(n_subintervals=8, tol=5e-3, coarse_stride=100)
        _, frep = parareal_integrate(sys, x0, grid, cfg)
        assert frep.converged and frep.iterations <= 3
