"""The batched backward sweep of ``sensitivity_series`` against the
per-instant path it replaces: one ``solve_adjoint`` + ``pointwise_sensitivity``
per analyzed instant.

The two paths sum the same quadrature terms in a different order.  Where the
terms cancel (on B6 with m=8 a ladder-resistor sensitivity is 7e-12 of the
sum of its terms' magnitudes), round-off in either order is a fixed
fraction of that magnitude, not of the result.  So the paths are compared
per instant and parameter against the quadrature of the absolute terms,
|mu|^T (|dJc/dp| |phidot| + |dJg/dp| |phi|), to 1e-12.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pintsens import (PararealConfig, Qoi, SolverError, TimeGrid, Trajectory,
                      assemble, builtin_circuit, dc_operating_point, integrate,
                      parse_netlist, pointwise_sensitivity, sensitivity_series,
                      solve_adjoint)
from pintsens import adjoint, mna, propagators
from pintsens.mna import ParamStamp

RTOL = 1e-12

RC_TEXT = """* unit rc
V1 in 0 DC 1
R1 in out 1
C1 out 0 1
.tran 1e-2 1
.end
"""


def _absolute(stamp):
    return ParamStamp(stamp.jc_rows, stamp.jc_cols, np.abs(stamp.jc_vals),
                      stamp.jg_rows, stamp.jg_cols, np.abs(stamp.jg_vals))


def per_instant(sys, traj, qoi, params=None):
    """The slow path, and the magnitude of the quadrature terms per instant
    and parameter."""
    params = sys.params if params is None else params
    cache = adjoint.AdjointCache(sys, traj)
    values, scale = [], []
    for t_m in qoi.instants:
        adj = solve_adjoint(sys, traj, t_m, qoi, cache)
        values.append(pointwise_sensitivity(sys, traj, adj, params))
        m = adj.m_index
        quad = adjoint._trapezoid_weights(m, traj.grid.dt) if m else np.zeros(1)
        scale.append([quad @ _absolute(sys.param_stamps[p.id]).apply_series(
            np.abs(traj.derivs[: m + 1]), np.abs(traj.states[: m + 1]),
            np.abs(adj.mu)) for p in params])
    return np.array(values), np.array(scale)


def assert_matches_per_instant(sys, traj, qoi, params=None):
    ser = sensitivity_series(sys, traj, qoi, params=params)
    ref, scale = per_instant(sys, traj, qoi, params)
    assert ser.values.shape == ref.shape
    assert ser.n_adjoint_solves == len(qoi.instants)
    err = np.abs(ser.values - ref)
    worst = np.unravel_index(np.argmax(err - RTOL * scale), err.shape)
    assert np.all(err <= RTOL * scale), (worst, ser.values[worst], ref[worst],
                                         scale[worst])
    return ser


def solved(netlist, scheme="implicit_euler"):
    sys = assemble(netlist)
    d = netlist.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid, scheme=scheme)
    return sys, grid, traj


def tail(grid, count, every):
    return tuple(grid.times[grid.n_steps - every * j] for j in range(count))


@pytest.fixture(scope="module")
def rc():
    return solved(parse_netlist(RC_TEXT))


@pytest.fixture(scope="module")
def b6():
    return solved(builtin_circuit("b6_bridge_reduced", dt=1e-8))


def test_unit_rc(rc):
    sys, grid, traj = rc
    instants = tuple(grid.times[k] for k in (10, 30, 50, 70, 100))
    assert_matches_per_instant(sys, traj, Qoi("out", instants=instants))


def test_rectifier():
    sys, grid, traj = solved(builtin_circuit("half_wave_rectifier", periods=1.0))
    assert_matches_per_instant(sys, traj, Qoi("out", instants=tail(grid, 3, 50)))


def test_b6(b6):
    sys, grid, traj = b6
    qoi = Qoi({"uh_d": 1.0, "u": -1.0}, instants=tail(grid, 10, 5))
    assert_matches_per_instant(sys, traj, qoi)


def test_b6_sparse_backend(monkeypatch):
    monkeypatch.setattr(mna, "DENSE_LIMIT", 10)
    sys, grid, traj = solved(builtin_circuit("b6_bridge_reduced", m=2, dt=2e-8))
    assert not sys.dense
    assert_matches_per_instant(sys, traj, Qoi("uh_d", instants=tail(grid, 4, 10)))


def test_trapezoidal_trajectory():
    sys, grid, traj = solved(builtin_circuit("half_wave_rectifier", periods=1.0),
                             scheme="trapezoidal")
    assert_matches_per_instant(sys, traj, Qoi("out", instants=tail(grid, 3, 70)))


def test_unsorted_duplicated_and_boundary_instants(b6):
    sys, grid, traj = b6
    last, mid = grid.times[-1], grid.times[grid.n_steps // 2]
    instants = (mid, grid.t0, last, mid, grid.times[1], grid.times[-2], last)
    params = sys.params[::3]
    ser = assert_matches_per_instant(sys, traj, Qoi("uh_d", instants=instants),
                                     params=params)
    assert ser.params == tuple(params)
    assert np.all(ser.values[1] == 0.0)                  # t_m = t0
    np.testing.assert_array_equal(ser.values[0], ser.values[3])
    np.testing.assert_array_equal(ser.values[2], ser.values[6])
    np.testing.assert_array_equal(ser.instants, instants)


def per_step_quadrature(sys, traj, qoi, steps, params):
    """The batched sweep with its quadrature summed step by step, the way
    it was before the chunked sum: at every sweep point, the weighted terms
    of the active columns are added to the running sum."""
    dt = traj.grid.dt
    rows, cols, stamp_values = adjoint._stamp_entries(sys, params)
    cache = adjoint.AdjointCache(sys, traj)
    mu = np.zeros((sys.n, len(steps)), order="F")
    acc = np.zeros((rows.size, len(steps)))
    for k, first in adjoint.backward_steps(cache, mu, range(steps[-1], -1, -1),
                                           dt, qoi.vector(sys.dofs),
                                           instants=steps):
        weights = np.full(len(steps) - first, 0.5 * dt if k == 0 else dt)
        if k and steps[first] == k:
            weights[0] = 0.5 * dt
        x = np.concatenate((traj.derivs[k], traj.states[k]))[cols]
        acc[:, first:] += mu[rows, first:] * np.multiply.outer(x, weights)
    return acc.T @ stamp_values


EDGE_STEPS = (0, 1, 63, 64, 65, 127, 128, 129)


@pytest.mark.parametrize("name,options,n_steps", [
    ("half_wave_rectifier", {"periods": 1.0}, None),
    ("b6_bridge_reduced", {}, 400),
    ("b6_bridge_reduced", {"m": 1}, 400),
])
def test_chunked_quadrature_equals_per_step_sums(name, options, n_steps):
    """The quadrature summed in chunks of QUAD_CHUNK sweep points equals
    the per-step sum bit for bit, with instants at both sides of the chunk
    boundaries counted from the top of the sweep, at t0 and the first step,
    at the last grid point, and every 7th step."""
    assert adjoint.QUAD_CHUNK == 64
    nl = builtin_circuit(name, **options)
    sys = assemble(nl)
    d = nl.directives
    grid = TimeGrid(0.0, d.t_end if n_steps is None else n_steps * d.dt, d.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    n = grid.n_steps
    sets = [EDGE_STEPS + (n,) + tuple(range(0, n, 7)), EDGE_STEPS[:5],
            EDGE_STEPS[5:], (0,), (1,), (63,), (64,), (65,), (128,), (129,),
            (n - 64, n), (n,)]
    for ks in sets:
        steps = np.unique(ks)
        qoi = Qoi(d.qoi_node, instants=tuple(grid.times[k] for k in steps))
        ref = per_step_quadrature(sys, traj, qoi, steps, sys.params)
        assert np.any(ref) or steps[-1] == 0
        np.testing.assert_array_equal(
            adjoint._batched_pointwise(sys, traj, qoi, steps, sys.params), ref)
    ks = (129, 64, 0, n, 64, 1, 129, n)                 # unsorted, duplicated
    steps, inverse = np.unique(ks, return_inverse=True)
    ser = sensitivity_series(sys, traj, Qoi(d.qoi_node, instants=tuple(
        grid.times[k] for k in ks)))
    ref = per_step_quadrature(sys, traj, Qoi(d.qoi_node), steps, sys.params)
    np.testing.assert_array_equal(ser.values, ref[inverse])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=8))
def test_batched_sweep_equals_per_instant_solve(rc, steps):
    sys, grid, traj = rc
    qoi = Qoi("out", instants=tuple(grid.times[k] for k in steps))
    assert_matches_per_instant(sys, traj, qoi)


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
    qoi = Qoi("in", instants=(grid.times[4], grid.t1))
    with pytest.raises(SolverError, match=r"step 9, t=9e-06: singular .* v\(y\)"):
        sensitivity_series(sys, traj, qoi)


@pytest.mark.parametrize("parallel", [None, PararealConfig(n_subintervals=2)])
@pytest.mark.parametrize("instants", [(), (1.0, 0.505), (0.5, float("nan"))])
def test_bad_instants_rejected_before_any_solve(rc, monkeypatch, instants,
                                                parallel):
    sys, _, traj = rc

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the instants were checked")

    monkeypatch.setattr(adjoint, "backward_factor", no_solve)
    monkeypatch.setattr(propagators, "parareal_adjoint_solve", no_solve)
    with pytest.raises(ValueError):
        sensitivity_series(sys, traj, Qoi("out", instants=instants),
                           parallel=parallel)


def test_memory_stays_below_twice_the_trajectory():
    """Criterion 6's series (B6, 56 instants over 19 400 steps): the sweep
    keeps no lam/mu history, so what it allocates is far below the
    trajectory itself; a (instants, steps, n) array of mu alone would be
    about 56 times it."""
    nl = builtin_circuit("b6_bridge_reduced")
    sys, grid, traj = solved(nl)
    d = nl.directives
    ks = range(grid.index_of(d.sens_start), grid.n_steps + 1, 10)
    qoi = Qoi({"uh_d": 1.0, "u": -1.0}, instants=tuple(grid.times[k] for k in ks))
    assert len(qoi.instants) == 56
    tracemalloc.start()
    try:
        ser = sensitivity_series(sys, traj, qoi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ser.values.shape == (56, len(sys.params))
    assert peak < 2 * traj.states.nbytes, (peak, traj.states.nbytes)
