"""The batched backward sweep of ``sensitivity_series`` against the
per-instant path it replaces: one ``solve_adjoint`` + ``pointwise_sensitivity``
per analyzed instant.

The two paths sum the same quadrature terms in a different order.  Where the
terms cancel (on B6 with m=8 a ladder-resistor sensitivity is 7e-12 of the
sum of its terms' magnitudes), round-off in either order is a fixed
fraction of that magnitude, not of the result.  So the paths are compared
per instant and parameter against the quadrature of the absolute terms,
|mu|^T (|dJc/dp| |phidot| + |dJg/dp| |phi|), to 1e-12.  The per-instant
quadrature itself is held, to the same bound, against the per-parameter
loop over the stamps that it replaced, kept here as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pintsens import (PararealConfig, Qoi, SolverError, TimeGrid, Trajectory,
                      assemble, builtin_circuit, dc_operating_point, integrate,
                      interval_sensitivity, parse_netlist,
                      pointwise_sensitivity, sensitivity_series, solve_adjoint)
from pintsens import adjoint, mna, propagators

RTOL = 1e-12

RC_TEXT = """* unit rc
V1 in 0 DC 1
R1 in out 1
C1 out 0 1
.tran 1e-2 1
.end
"""


def stamp_loop_quadrature(sys, traj, weight_field, params, absolute=False):
    """The per-parameter quadrature that ``pointwise_sensitivity`` and
    ``interval_sensitivity`` summed before one product over the parameter
    table replaced it: for each parameter, the weighted integrand
    w_k^T (dJc/dp phidot_k + dJg/dp phi_k) from its own entries, its dJc/dp
    part first, then the trapezoid rule.  With ``absolute``, stamp values,
    states and weights enter by magnitude: the quadrature of the absolute
    terms."""
    m = weight_field.shape[0] - 1
    if m == 0:
        return np.zeros(len(params))
    quad = np.full(m + 1, traj.grid.dt)
    quad[[0, -1]] *= 0.5
    t = sys.param_table
    x = np.concatenate((traj.derivs[: m + 1], traj.states[: m + 1]), axis=1)
    w, vals = weight_field, t.vals
    if absolute:
        x, w, vals = np.abs(x), np.abs(w), np.abs(vals)
    out = []
    for p in params:
        integrand = np.zeros(m + 1)
        for part in (t.cols < sys.n, t.cols >= sys.n):    # dJc/dp, dJg/dp
            own = (t.param == p.id) & part
            if own.any():
                integrand += (w[:, t.rows[own]] * x[:, t.cols[own]]) @ vals[own]
        out.append(quad @ integrand)
    return np.array(out)


def per_instant(sys, traj, qoi, params=None):
    """The slow path, and the magnitude of the quadrature terms per instant
    and parameter."""
    params = sys.params if params is None else params
    cache = adjoint.AdjointCache(sys, traj)
    values, scale = [], []
    for t_m in qoi.instants:
        adj = solve_adjoint(sys, traj, t_m, qoi, cache)
        values.append(pointwise_sensitivity(sys, traj, adj, params))
        scale.append(stamp_loop_quadrature(sys, traj, adj.mu, params,
                                           absolute=True))
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


@pytest.mark.parametrize("name,options", [
    ("half_wave_rectifier", {"periods": 1.0}),
    ("b6_bridge_reduced", {"dt": 1e-8}),
    ("b6_bridge_reduced", {"m": 8, "dt": 2e-8}),
])
def test_per_instant_quadrature_equals_stamp_loop(name, options):
    """``pointwise_sensitivity`` and ``interval_sensitivity``, one product
    over the folded parameter table, against the per-parameter loop they
    replace, for all parameters and for a shuffled subset with a
    duplicate; B6 with m=8 runs on the sparse backend."""
    nl = builtin_circuit(name, **options)
    sys, grid, traj = solved(nl)
    assert sys.dense == (options.get("m", 0) == 0)
    adj = solve_adjoint(sys, traj, grid.times[-1], Qoi(nl.directives.qoi_node))
    order = np.random.default_rng(5).permutation(len(sys.params))
    subset = [sys.params[i] for i in order[: max(2, len(order) // 3)]]
    subset.append(subset[0])
    for params in (sys.params, tuple(subset)):
        for quadrature, field in ((pointwise_sensitivity, adj.mu),
                                  (interval_sensitivity, adj.lam)):
            got = quadrature(sys, traj, adj, params)
            ref = stamp_loop_quadrature(sys, traj, field, params)
            scale = stamp_loop_quadrature(sys, traj, field, params,
                                          absolute=True)
            assert got.shape == (len(params),) and np.all(scale > 0)
            err = np.abs(got - ref)
            assert np.all(err <= RTOL * scale), (quadrature.__name__,
                                                 np.max(err / scale))
    assert got[-1] == got[0]


def per_point_quadrature(sys, traj, weight_field, params):
    """The per-instant quadrature written point by point: from k = m down
    to 0, w_k at the stamp rows times [phidot_k; phi_k] at the stamp
    columns times dt, or dt/2 at k = 0 and at k = m, added in that order,
    then one product with the folded stamp values."""
    m = weight_field.shape[0] - 1
    dt = traj.grid.dt
    rows, cols, stamp_values = adjoint._stamp_entries(sys, params)
    acc = np.zeros((rows.size, 1))
    for k in range(m, -1, -1):
        x = np.concatenate((traj.derivs[k], traj.states[k]))[cols]
        acc[:, 0] += weight_field[k, rows] * (x * (0.5 * dt if k in (0, m)
                                                   else dt))
    return (acc.T @ stamp_values)[0]


@pytest.mark.parametrize("name,options,n_steps", [
    ("half_wave_rectifier", {"periods": 1.0}, None),
    ("b6_bridge_reduced", {}, 400),
    ("b6_bridge_reduced", {"m": 8}, 200),
])
def test_per_instant_quadrature_equals_per_point_sum(name, options, n_steps):
    """``pointwise_sensitivity`` and ``interval_sensitivity`` sum their
    terms in QUAD_CHUNK slices from t_m down to t0, and equal the per-point
    sum bit for bit, at instants on both sides of the chunk boundaries and
    at the last grid point; B6 with m=8 runs on the sparse backend."""
    nl = builtin_circuit(name, **options)
    sys = assemble(nl)
    assert sys.dense == ("m" not in options)
    d = nl.directives
    grid = TimeGrid(0.0, d.t_end if n_steps is None else n_steps * d.dt, d.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    cache = adjoint.AdjointCache(sys, traj)
    for m in (1, 63, 64, 65, 128, 129, grid.n_steps):
        adj = solve_adjoint(sys, traj, grid.times[m], Qoi(d.qoi_node), cache)
        for quadrature, field in ((pointwise_sensitivity, adj.mu),
                                  (interval_sensitivity, adj.lam)):
            ref = per_point_quadrature(sys, traj, field, sys.params)
            np.testing.assert_array_equal(quadrature(sys, traj, adj), ref,
                                          err_msg=f"{quadrature.__name__} m={m}")
    assert np.any(ref)


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
