"""Fast paths against the slow paths they replace.

The compiled device tables are checked against a per-device loop kept here
as the reference, the dense LU backend against the sparse one, and the
factorization count against the number of distinct linearizations.
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
from pintsens import mna
from pintsens.mna import StampedSystem, diode_current
from pintsens.transient import StepFactors


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
        i_nl, jac = sys.eval_nonlinear(phi, t)
        assert_rel(i_nl, i_ref, 1e-14)
        assert_rel(jac.todense(), jac_ref, 1e-14)
        np.testing.assert_array_equal(sys.conductance_at(phi, t), jac.g)
        step = sys.step_matrix(coef_dt, coef_g, jac.g)
        step = np.asarray(step.todense()) if hasattr(step, "todense") else step
        assert_rel(step, coef_dt * Jc + coef_g * (Jg + jac_ref), 1e-14)
    if name in ("half_wave_rectifier", "mixed"):     # both diode branches
        assert 0 < clamped < len(times)


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
    calls = []
    original = scipy.linalg.lu_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
    return calls


@pytest.fixture
def conductance_vectors(monkeypatch):
    """The device-conductance vector of every eval_nonlinear call, as bytes."""
    seen = []
    original = StampedSystem.eval_nonlinear

    def recording(self, phi, t):
        i_nl, jac = original(self, phi, t)
        seen.append(jac.g.tobytes())
        return i_nl, jac

    monkeypatch.setattr(StampedSystem, "eval_nonlinear", recording)
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
