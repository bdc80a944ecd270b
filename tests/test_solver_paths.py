"""Fast paths against the slow paths they replace.

The compiled device tables are checked against a per-device loop kept here
as the reference, the device incidence array against the ground-extended
index path it replaced, the companion-form Newton loop against the
correction form it replaced, the stacked conductance table against
per-state calls,
the dense LAPACK factor/solve against ``scipy.linalg.lu_factor``/``lu_solve``,
the dense LU backend against the sparse one, and the factorization count
against the number of distinct linearizations.
"""

import threading
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.linalg

from pintsens import (PararealConfig, Qoi, TimeGrid, assemble,
                      builtin_circuit, dc_operating_point, integrate,
                      parareal_adjoint_solve, parse_netlist, partition,
                      sensitivity_series)
from pintsens import mna, transient
from pintsens.mna import StampedSystem, diode_current
from pintsens.transient import StepFactors, _LU


def _row(sys, node):
    return None if node == "0" else sys.dofs.node_index[node]


def terminal_voltage(sys, e, phi):
    a, b = _row(sys, e.nodes[0]), _row(sys, e.nodes[1])
    return (phi[a] if a is not None else 0.0) - (phi[b] if b is not None else 0.0)


def reference_eval(netlist, sys, phi, t):
    """i_nl and d i_nl/d phi device by device, in netlist order."""
    i_nl = np.zeros(sys.n)
    jac = np.zeros((sys.n, sys.n))
    for e in netlist.elements:
        if e.kind not in ("D", "S"):
            continue
        a, b = _row(sys, e.nodes[0]), _row(sys, e.nodes[1])
        v = terminal_voltage(sys, e, phi)
        if e.kind == "D":
            cur, g = diode_current(v, e.value)
        else:
            g = e.value.conductance(t)
            cur = g * v
        for r, sign in ((a, 1.0), (b, -1.0)):
            if r is None:
                continue
            i_nl[r] += sign * cur
            for c, sign_c in ((a, 1.0), (b, -1.0)):
                if c is not None:
                    jac[r, c] += sign * sign_c * g
    return i_nl, jac


def assert_rel(got, ref, rtol):
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= rtol * scale, (got, ref)


def switch_edge_times(netlist, rng, count):
    """Times inside every rising and falling PWM ramp, and random ones."""
    times = list(rng.uniform(0.0, 2 * netlist.directives.t_end, count))
    for e in netlist.elements:
        if e.kind == "S":
            m = e.value
            for frac in (0.0, 0.3, 0.99):
                times.append(m.offset + m.period + frac * m.ramp)
                times.append(m.offset + m.duty * m.period + frac * m.ramp)
    return times


# switches listed before the diodes, both sharing nodes and ground, and a
# switch without a ramp
MIXED = """* switched diode clamp
V1 in 0 SINE 5 1e5 0
S1 in a 0.1 1e6 1e-5 0.5 1e-7 2e-6
S2 a 0 0.1 1e6 1e-5 0.3 0 0
D1 a out 1e-12 1.0 0.02585
D2 0 out 1e-14 1.5 0.02585
R1 out 0 100
C1 out 0 1e-6
.tran 1e-7 2e-5
.end
"""


@pytest.mark.parametrize("name,options", [
    ("half_wave_rectifier", {}),
    ("b6_bridge_reduced", {}),
    ("b6_bridge_reduced", {"m": 8}),       # sparse pattern
    ("mixed", {}),
])
def test_compiled_devices_match_per_device_loop(name, options):
    nl = parse_netlist(MIXED) if name == "mixed" else builtin_circuit(name, **options)
    sys = assemble(nl)
    rng = np.random.default_rng(11)
    times = switch_edge_times(nl, rng, 20)
    coef_dt, coef_g = 1.0 / nl.directives.dt, 0.5
    Jc, Jg = (np.asarray(m.todense()) if hasattr(m, "todense") else m
              for m in (sys.Jc, sys.Jg))
    clamped = 0
    for t in times:
        # node voltages up to 3 V put the diode past the exponent clamp
        phi = rng.uniform(-3.0, 3.0, sys.n)
        clamped += any(terminal_voltage(sys, e, phi) / (e.value.n * e.value.v_t)
                       > mna.DIODE_EXP_CLAMP for e in nl.elements if e.kind == "D")
        i_ref, jac_ref = reference_eval(nl, sys, phi, t)
        i_nl, g = sys.eval_nonlinear(phi, t)
        assert_rel(i_nl, i_ref, 1e-14)
        jac = sys._scatter.matrix(sys._scatter.devices(g))
        jac = jac.toarray() if hasattr(jac, "toarray") else jac
        assert_rel(jac, jac_ref, 1e-14)
        np.testing.assert_array_equal(sys.conductance_at(phi, t), g)
        step = sys.step_matrix(coef_dt, coef_g, g)
        step = np.asarray(step.todense()) if hasattr(step, "todense") else step
        assert_rel(step, coef_dt * Jc + coef_g * (Jg + jac_ref), 1e-14)
    if name in ("half_wave_rectifier", "mixed"):     # both diode branches
        assert 0 < clamped < len(times)


RC_ONLY = """* no devices
V1 in 0 DC 1
R1 in out 1e3
C1 out 0 1e-6
.tran 1e-6 1e-5
.end
"""


@pytest.mark.parametrize("name,options", [
    ("half_wave_rectifier", {}),           # diodes only
    ("b6_bridge_reduced", {}),             # switches only
    ("b6_bridge_reduced", {"m": 8}),
    ("mixed", {}),
    ("rc", {}),                            # no devices: a (K, 0) table
])
def test_stacked_conductances_equal_per_state_calls(name, options):
    """conductance_at and the device currents on (K, n) states and (K, 1)
    times equal K calls on one state each, bit for bit: past the diode
    exponent clamp, inside the switch ramps, and on a forward trajectory."""
    texts = {"mixed": MIXED, "rc": RC_ONLY}
    nl = parse_netlist(texts[name]) if name in texts \
        else builtin_circuit(name, **options)
    sys = assemble(nl)
    rng = np.random.default_rng(5)
    times = np.array(switch_edge_times(nl, rng, 30))
    # node voltages up to 3 V put the diodes past the exponent clamp
    phis = rng.uniform(-3.0, 3.0, (times.size, sys.n))
    d = nl.directives
    grid = TimeGrid(0.0, min(d.t_end, 200 * d.dt), d.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    for states, ts in ((phis, times), (traj.states, traj.times)):
        table = sys.conductance_at(states, ts[:, None])
        rows = [sys.conductance_at(phi, t) for phi, t in zip(states, ts)]
        assert table.shape == (len(ts), rows[0].size)
        np.testing.assert_array_equal(table, np.array(rows).reshape(table.shape))
        cur = sys._devices.currents(states, ts[:, None])[0]
        rows = [sys._devices.currents(phi, t)[0] for phi, t in zip(states, ts)]
        np.testing.assert_array_equal(cur, np.array(rows).reshape(cur.shape))
    clamped = [terminal_voltage(sys, e, phi) / (e.value.n * e.value.v_t)
               > mna.DIODE_EXP_CLAMP for phi in phis for e in nl.elements
               if e.kind == "D"]
    ramping = [0.0 < (t - e.value.offset) % e.value.period - on < e.value.ramp
               for t in times for e in nl.elements if e.kind == "S"
               for on in (0.0, e.value.duty * e.value.period)]
    for covered in (clamped, ramping):
        assert not covered or 0 < sum(covered) < len(covered)


def ground_extended_rows(nl, sys):
    """Terminal rows (a, b) of the diodes, then the switches, in netlist
    order, with ground as row n."""
    devices = [e for kind in "DS" for e in nl.elements if e.kind == kind]
    return np.array([[sys.n if r is None else r
                      for r in (_row(sys, e.nodes[0]), _row(sys, e.nodes[1]))]
                     for e in devices], dtype=np.intp).reshape(-1, 2)


def ground_extended_voltages(ab, phi):
    """The device path the incidence array replaces: states extended by a
    ground zero, terminal a minus terminal b."""
    ext = np.concatenate((phi, np.zeros(phi.shape[:-1] + (1,))), axis=-1)
    return ext[..., ab[:, 0]] - ext[..., ab[:, 1]]


def bincount_row_currents(ab, cur, n):
    """Device currents into row a and out of row b, summed with bincount in
    device order; the ground row is dropped."""
    signed = (cur[:, None] * np.array([1.0, -1.0])).ravel()
    return np.bincount(ab.ravel(), signed, minlength=n + 1)[:n]


@pytest.mark.parametrize("name,options", [
    ("half_wave_rectifier", {}),
    ("b6_bridge_reduced", {}),
    ("b6_bridge_reduced", {"m": 8}),
    ("mixed", {}),                         # three devices meet at node a
    ("rc", {}),                            # no devices: an (n, 0) array
])
def test_incidence_array_equals_ground_extended_device_path(name, options):
    """phi @ inc gives the ground-extended terminal differences bit for
    bit, for one state and stacked states.  The row currents inc @ cur equal
    the bincount sums bit for bit where at most two devices meet per node,
    as in every builtin fixture, and to 1e-14 elsewhere."""
    texts = {"mixed": MIXED, "rc": RC_ONLY}
    nl = parse_netlist(texts[name]) if name in texts \
        else builtin_circuit(name, **options)
    sys = assemble(nl)
    ab = ground_extended_rows(nl, sys)
    inc = sys._devices.inc
    assert inc.shape == (sys.n, len(ab))
    meet = np.count_nonzero(inc, axis=1).max(initial=0)
    assert (meet <= 2) == (name != "mixed")
    rng = np.random.default_rng(17)
    times = switch_edge_times(nl, rng, 40)
    phis = rng.uniform(-3.0, 3.0, (len(times), sys.n))
    np.testing.assert_array_equal(phis @ inc, ground_extended_voltages(ab, phis))
    for phi, t in zip(phis, times):
        np.testing.assert_array_equal(phi @ inc, ground_extended_voltages(ab, phi))
        cur, _ = sys._devices.currents(phi, t)
        i_nl, _ = sys.eval_nonlinear(phi, t)
        ref = bincount_row_currents(ab, cur, sys.n)
        if meet <= 2:
            np.testing.assert_array_equal(i_nl, ref)
        else:
            assert_rel(i_nl, ref, 1e-14)


def correction_newton(sys, factors, phi, rhs_const, coef_dt, coef_g, t,
                      tol=transient.NEWTON_TOL,
                      max_iter=transient.NEWTON_MAX_ITER):
    """The correction form that the companion loop replaced: every
    iteration assembles the full residual
    coef_dt*Jc*phi + coef_g*(Jg*phi + i_nl(phi,t)) + rhs_const and solves
    the step matrix for the update."""
    for iters in range(1, max_iter + 1):
        i_nl, g = sys.eval_nonlinear(phi, t)
        residual = coef_dt * (sys.Jc @ phi) + coef_g * (sys.Jg @ phi + i_nl) \
            + rhs_const
        delta = factors.get(coef_dt, coef_g, g).solve(-residual)
        change = abs(delta).max()
        phi = phi + delta
        if change <= tol * (1.0 + abs(phi).max()):
            return phi, iters
    raise AssertionError(f"reference Newton did not converge at t={t}")


def correction_integrate(sys, x0, grid, scheme, ulp_noise=False):
    """States and Newton total of integrate, stepped by correction_newton;
    with ulp_noise, every entry of every step's right-hand side is moved
    by one ulp in a seeded direction."""
    dt, times = grid.dt, grid.times
    factors = StepFactors(sys, keep=1)
    states, total = [np.asarray(x0, dtype=float)], 0
    rng = np.random.default_rng(0)
    for k in range(grid.n_steps):
        phi_k = states[-1]
        jc_phi = sys.Jc @ phi_k
        if scheme == "implicit_euler":
            rhs_const = -jc_phi / dt - sys.source_eval(times[k + 1])
            coef_g = 1.0
        else:
            i_nl_k, _ = sys.eval_nonlinear(phi_k, times[k])
            f_k = sys.Jg @ phi_k + i_nl_k - sys.source_eval(times[k])
            rhs_const = -jc_phi / dt + 0.5 * f_k \
                - 0.5 * sys.source_eval(times[k + 1])
            coef_g = 0.5
        if ulp_noise:
            rhs_const = rhs_const * (1.0 + np.ldexp(rng.choice((-1.0, 1.0),
                                                            sys.n), -52))
        phi, iters = correction_newton(sys, factors, phi_k, rhs_const,
                                       1.0 / dt, coef_g, times[k + 1])
        states.append(phi)
        total += iters
    return np.array(states), total


@pytest.mark.parametrize("name,options", [
    ("half_wave_rectifier", {"periods": 1.0}),
    ("half_wave_rectifier", {"periods": 2.0, "dt": 1.6e-5}),
    ("b6_bridge_reduced", {"m": 0, "dt": 1e-8}),
    ("b6_bridge_reduced", {"m": 1}),               # 19 400 steps
    ("b6_bridge_reduced", {"m": 8, "dt": 2e-8}),   # sparse
    ("mixed", {}),
    ("rc", {}),
])
def test_companion_newton_matches_correction_form(name, options):
    """The companion-form Newton loop of integrate and dc_operating_point
    against the correction form it replaced, with implicit Euler and
    trapezoidal steps: equal Newton totals, and DC points and states within
    1e-11 of max |phi|.  A larger gap passes only where the correction form
    itself moves further when one ulp of rounding is added to every step:
    MIXED's trapezoidal steps with both switches off hold node a by 2 uS
    against 10 S capacitor rows, and trapezoidal steps never damp what
    rounding puts there (4.9e-9 there; the companion loop is 2.7e-10 off).
    Over the 19 400 trapezoidal steps of B6 m=1 a loop that solved for the
    new state at every iteration, without the refining correction, drifted
    to 2.6e-10, against 8.8e-13 for one ulp per step."""
    texts = {"mixed": MIXED, "rc": RC_ONLY}
    nl = parse_netlist(texts[name]) if name in texts \
        else builtin_circuit(name, **options)
    sys = assemble(nl)
    assert sys.dense == (name != "b6_bridge_reduced" or options["m"] < 8)
    x0 = dc_operating_point(sys, 0.0)
    ref_x0, _ = correction_newton(sys, StepFactors(sys), np.zeros(sys.n),
                                  -sys.source_eval(0.0), 0.0, 1.0, 0.0)
    assert_rel(x0, ref_x0, 1e-11)
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    for scheme in transient.SCHEMES:
        traj = integrate(sys, x0, grid, scheme=scheme)
        ref_states, ref_iters = correction_integrate(sys, x0, grid, scheme)
        assert traj.newton_iters == ref_iters
        scale = np.max(np.abs(ref_states))
        gap = np.max(np.abs(traj.states - ref_states)) / scale
        if gap > 1e-11:
            noisy, _ = correction_integrate(sys, x0, grid, scheme,
                                            ulp_noise=True)
            spread = np.max(np.abs(noisy - ref_states)) / scale
            assert gap <= spread, (scheme, gap, spread)


def test_switch_conductances_are_evaluated_once_per_time(monkeypatch):
    """A scalar time's switch conductances are SwitchModel.conductance,
    inside the ramps too, and eval_nonlinear stamps the same ones.  A
    forward solve of the bridge takes the conductances of every grid time
    from one stacked call, and the DC point from one call at its time,
    although Newton takes two iterations per step."""
    calls = []
    original = mna._Devices._switch

    def counting(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(mna._Devices, "_switch", counting)
    nl = builtin_circuit("b6_bridge_reduced")
    sys = assemble(nl)
    switches = [e.value for e in nl.elements if e.kind == "S"]
    phi = np.zeros(sys.n)
    for t in switch_edge_times(nl, np.random.default_rng(3), 10):
        g = sys.conductance_at(phi, t)
        assert_rel(g, np.array([m.conductance(t) for m in switches]), 1e-14)
        np.testing.assert_array_equal(sys.eval_nonlinear(phi, t)[1], g)
    calls.clear()
    grid = TimeGrid(0.0, 50 * nl.directives.dt, nl.directives.dt)
    traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
    assert traj.newton_iters == 2 * grid.n_steps
    assert calls == [(), (grid.n_steps + 1, 1)]    # the DC point, all steps


@pytest.mark.parametrize("name", ["half_wave_rectifier", "b6_bridge_reduced"])
def test_dense_lapack_factor_and_solve_equal_scipy(name):
    """The dense _LU calls dgetrf/dgetrs itself; factors, pivots and every
    solve equal scipy's lu_factor/lu_solve bit for bit, for one and for
    several right-hand sides in either memory order, with the matrix and
    with its transpose, and the solves leave the factors unchanged."""
    sys, grid, x0 = _forward(name, {})
    assert sys.n in (3, 21)
    A = sys.step_matrix(1.0 / grid.dt, 1.0, sys.conductance_at(x0, 0.0))
    fac = _LU(sys, A.copy())
    lu_ref, piv_ref = scipy.linalg.lu_factor(A.copy(), check_finite=False)
    lu, piv = fac._lu
    np.testing.assert_array_equal(lu, lu_ref)
    np.testing.assert_array_equal(piv, piv_ref)
    lu_before, piv_before = lu.copy(), piv.copy()
    rng = np.random.default_rng(3)
    vector = rng.standard_normal(sys.n)
    block = rng.standard_normal((sys.n, 4))
    for rhs in (vector, block, np.asfortranarray(block)):
        for trans in (False, True):
            ref = scipy.linalg.lu_solve((lu_ref, piv_ref), rhs,
                                        trans=int(trans), check_finite=False)
            got = fac.solve(rhs, trans=trans)
            assert got.shape == rhs.shape
            np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(lu, lu_before)
    np.testing.assert_array_equal(piv, piv_before)


def test_adjoint_solves_evaluate_devices_once_per_cache(monkeypatch):
    """The batched sweep and a parareal adjoint solve each take all device
    conductances from one stacked conductance_at call, whatever the number
    of steps and iterations."""
    calls = []
    original = StampedSystem.conductance_at

    def counting(self, phi, t):
        calls.append(np.shape(phi))
        return original(self, phi, t)

    monkeypatch.setattr(StampedSystem, "conductance_at", counting)
    sys, grid, x0 = _forward("half_wave_rectifier",
                             {"periods": 2.0, "dt": 1.6e-5})
    traj = integrate(sys, x0, grid)
    instants = tuple(grid.times[grid.n_steps // 2 :: 100])
    sensitivity_series(sys, traj, Qoi("out", instants=instants))
    cfg = PararealConfig(n_subintervals=8, tol=1e-7, coarse_stride=25)
    _, rep = parareal_adjoint_solve(sys, traj, instants[0], Qoi("out"), cfg)
    assert rep.iterations == 3
    assert calls == [traj.states.shape] * 2


def test_dense_and_sparse_backends_agree(monkeypatch):
    nl = builtin_circuit("b6_bridge_reduced", m=2, dt=1e-8)
    d = nl.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    instants = tuple(grid.times[-1 - 10 * j] for j in range(3))
    results = {}
    for limit in (10**6, 1):
        monkeypatch.setattr(mna, "DENSE_LIMIT", limit)
        sys = assemble(nl)
        traj = integrate(sys, dc_operating_point(sys, 0.0), grid)
        ser = sensitivity_series(sys, traj, Qoi(d.qoi_node, instants=instants))
        results[sys.dense] = (traj.states, ser.values)
    assert set(results) == {True, False}
    for dense, sparse in zip(results[True], results[False]):
        assert_rel(sparse, dense, 1e-10)


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """Every dense factorization: the dgetrf binding of the transient module."""
    calls = []
    original = transient.dgetrf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(transient, "dgetrf", counting)
    return calls


@pytest.fixture
def conductance_vectors(monkeypatch):
    """The device-conductance vector of every step-matrix lookup, as bytes:
    Newton makes one per iteration."""
    seen = []
    original = StepFactors.get

    def recording(self, coef_dt, coef_g, g):
        seen.append(g.tobytes())
        return original(self, coef_dt, coef_g, g)

    monkeypatch.setattr(StepFactors, "get", recording)
    return seen


def _forward(name, options):
    nl = builtin_circuit(name, **options)
    sys = assemble(nl)
    grid = TimeGrid(0.0, nl.directives.t_end, nl.directives.dt)
    return sys, grid, dc_operating_point(sys, 0.0)


def test_switch_only_forward_factors_once_per_linearization(
        lu_factor_calls, conductance_vectors):
    sys, grid, x0 = _forward("b6_bridge_reduced", {"dt": 1e-8})
    lu_factor_calls.clear()
    conductance_vectors.clear()
    traj = integrate(sys, x0, grid)
    assert traj.newton_iters == 2 * grid.n_steps
    assert 1 <= len(lu_factor_calls) <= len(set(conductance_vectors))
    assert len(lu_factor_calls) * 10 <= grid.n_steps


def test_diode_forward_factors_whenever_conductance_changes(
        lu_factor_calls, conductance_vectors):
    """The control: the diode conductance moves with the state, so Newton
    refactorizes on every iteration whose conductance differs from the
    previous one.  It repeats bit for bit only where the last update left
    the diode voltage unchanged to the last bit, or where it underflows in
    deep reverse bias."""
    sys, grid, x0 = _forward("half_wave_rectifier", {"periods": 1.0})
    lu_factor_calls.clear()
    conductance_vectors.clear()
    traj = integrate(sys, x0, grid)
    changes = 1 + sum(a != b for a, b in zip(conductance_vectors,
                                             conductance_vectors[1:]))
    assert len(conductance_vectors) == traj.newton_iters
    assert len(lu_factor_calls) == changes
    assert changes >= 0.7 * traj.newton_iters


def test_parareal_adjoint_factors_each_linearization_once(lu_factor_calls):
    """The activation step and both propagators of one parareal adjoint
    solve share its AdjointCache, so later iterations refactorize nothing:
    at most one factorization per fine step, one per coarse substep of an
    iteration, and the activation step.  Two workers factorize exactly as
    often as one."""
    sys, grid, x0 = _forward("half_wave_rectifier",
                             {"periods": 2.0, "dt": 1.6e-5})
    traj = integrate(sys, x0, grid)
    m = grid.n_steps // 2
    cfg = PararealConfig(n_subintervals=8, tol=1e-7, coarse_stride=25)
    counts = []
    for workers in (1, 2):
        lu_factor_calls.clear()
        _, rep = parareal_adjoint_solve(sys, traj, grid.times[m], Qoi("out"),
                                        cfg, workers=workers)
        assert rep.iterations == 3
        counts.append(len(lu_factor_calls))
    sigma = TimeGrid(0.0, grid.times[m], grid.dt)
    coarse = sum(max(1, round((k1 - k0) / cfg.coarse_stride))
                 for *_, k0, k1 in partition(sigma, cfg.n_subintervals))
    assert counts[0] == counts[1]
    assert counts[0] <= m + coarse + 1


def test_step_factors_are_safe_to_share_between_threads(lu_factor_calls):
    """Eight threads look up and solve with the same three linearizations
    in one StepFactors, with a short switch interval: each is factorized
    once, every thread gets that one factorization, and every solve equals
    the single-threaded one.  Five rounds, each on a fresh StepFactors,
    because a race shows only on an unlucky thread switch."""
    sys, _, x0 = _forward("half_wave_rectifier", {"periods": 1.0})
    gs = [scale * sys.conductance_at(x0, 0.0) for scale in (1.0, 2.0, 3.0)]
    rhs = np.arange(1.0, 1.0 + 2 * sys.n).reshape(sys.n, 2)
    expected = {g.tobytes(): StepFactors(sys).get(1e6, 1.0, g)
                .solve(rhs, trans=True).tobytes() for g in gs}

    def round_():
        factors = StepFactors(sys)
        barrier = threading.Barrier(8)
        seen = []

        def work():
            barrier.wait(timeout=10)
            for g in gs * 200:
                fac = factors.get(1e6, 1.0, g)
                seen.append((g.tobytes(), id(fac),
                             fac.solve(rhs, trans=True).tobytes()))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        return seen

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for _ in range(5):
            lu_factor_calls.clear()
            seen = round_()
            assert len(seen) == 8 * 600
            assert len(lu_factor_calls) == 3
            assert len({(key, ident) for key, ident, _ in seen}) == 3
            assert all(x == expected[key] for key, _, x in seen)
    finally:
        setswitchinterval(interval)
