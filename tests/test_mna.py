"""MNA assembly: DoF layout, stamp patterns, the parameter derivative table."""

import numpy as np
import pytest

from pintsens import parse_netlist, assign_dofs, assemble, builtin_circuit
from pintsens.mna import diode_current
from pintsens.netlist import DiodeModel


def dense(a):
    return np.asarray(a.todense()) if hasattr(a, "todense") else np.asarray(a)


def system(text):
    return assemble(parse_netlist(text))


VDIV = """* resistive divider
V1 in 0 DC 10
R1 in mid 1e3
R2 mid 0 1e3
.tran 1e-6 1e-3
.end
"""

RLC = """* series rlc
V1 in 0 DC 1
R1 in a 50
L1 a b 1e-3
C1 b 0 1e-6
.tran 1e-6 1e-3
.end
"""


class TestDofLayout:
    def test_divider_dofs(self):
        dofs = assign_dofs(parse_netlist(VDIV))
        # two node voltages (ground eliminated) plus the source branch current
        assert dofs.n_dofs == 3
        assert set(dofs.node_index) == {"in", "mid"}
        assert set(dofs.branch_index) == {"V1"}
        assert dofs.names[dofs.node_index["mid"]] == "v(mid)"
        assert dofs.names[dofs.branch_index["V1"]] == "i(V1)"

    def test_rlc_dofs(self):
        dofs = assign_dofs(parse_netlist(RLC))
        # V and L each contribute a branch current
        assert dofs.n_dofs == 3 + 2
        assert set(dofs.branch_index) == {"V1", "L1"}


class TestLinearStamps:
    def test_divider_jg_by_hand(self):
        sys = system(VDIV)
        i_in = sys.dofs.node_index["in"]
        i_mid = sys.dofs.node_index["mid"]
        i_br = sys.dofs.branch_index["V1"]
        g = 1e-3
        Jg = dense(sys.Jg)
        expect = np.zeros((3, 3))
        expect[i_in, i_in] += g
        expect[i_in, i_mid] -= g
        expect[i_mid, i_in] -= g
        expect[i_mid, i_mid] += 2 * g
        expect[i_in, i_br] = 1.0
        expect[i_br, i_in] = 1.0
        np.testing.assert_allclose(Jg, expect, atol=1e-15)
        assert dense(sys.Jc).any() == False

    def test_capacitor_stamps_jc(self):
        sys = system(RLC)
        Jc = dense(sys.Jc)
        ib = sys.dofs.node_index["b"]
        assert Jc[ib, ib] == pytest.approx(1e-6)
        iL = sys.dofs.branch_index["L1"]
        assert Jc[iL, iL] == pytest.approx(-1e-3)

    def test_source_vector(self):
        sys = system(VDIV)
        i_s = sys.source_eval(0.0)
        i_br = sys.dofs.branch_index["V1"]
        expect = np.zeros(3)
        expect[i_br] = 10.0
        np.testing.assert_allclose(i_s, expect)

    def test_kcl_node_rows_sum_to_zero_with_ground(self):
        # Resistor/capacitor stamps lose their ground column here, so check
        # on a ground-free sub-pattern: row sums of conductances among the
        # internal nodes equal minus the (eliminated) ground couplings.
        sys = system(VDIV)
        Jg = dense(sys.Jg)
        i_in = sys.dofs.node_index["in"]
        i_mid = sys.dofs.node_index["mid"]
        # 'in' touches no grounded resistor: its conductance row sums to zero
        assert Jg[i_in, [i_in, i_mid]].sum() == pytest.approx(0.0)
        # 'mid' has R2 to ground: residue equals 1/R2
        assert Jg[i_mid, [i_in, i_mid]].sum() == pytest.approx(1e-3)


def apply_param(sys, p, phidot, phi):
    """d(Jc phidot + Jg phi)/dp from the entries of p in the parameter
    table."""
    t = sys.param_table
    own = t.param == p.id
    out = np.zeros(sys.n)
    np.add.at(out, t.rows[own],
              t.vals[own] * np.concatenate((phidot, phi))[t.cols[own]])
    return out


def fd_residual_derivative(nl, p, phidot, phi):
    """Central difference of the assembled Jc phidot + Jg phi in p, taken
    on the matrices, so that the entries p does not touch cancel exactly
    instead of leaving their round-off in the difference.  The step is
    1e-4 p: the central difference of 1/R is off by (h/R)^2 relative,
    which at 1e-3 p would equal the 1e-6 tolerance."""
    h = p.nominal * 1e-4
    plus, minus = (assemble(nl.with_element_value(p.element, value))
                   for value in (p.nominal + h, p.nominal - h))
    return ((dense(plus.Jc) - dense(minus.Jc)) @ phidot
            + (dense(plus.Jg) - dense(minus.Jg)) @ phi) / (2 * h)


class TestParamStamps:
    def test_one_stamp_per_parameter(self):
        sys = system(RLC)
        t = sys.param_table
        assert len(sys.params) == 3
        np.testing.assert_array_equal(np.unique(t.param), [0, 1, 2])
        assert t.rows.shape == t.cols.shape == t.vals.shape == t.param.shape
        assert t.rows.max() < sys.n and t.cols.max() < 2 * sys.n

    @pytest.mark.parametrize("name", ["R1", "L1", "C1"])
    def test_stamps_match_finite_differences(self, name):
        """(d/dp)(Jc phidot + Jg phi) from the table vs assembled matrices."""
        nl = parse_netlist(RLC)
        sys = assemble(nl)
        p = next(q for q in sys.params if q.name == name)
        rng = np.random.default_rng(7)
        phi = rng.standard_normal(sys.n)
        phidot = rng.standard_normal(sys.n)
        np.testing.assert_allclose(apply_param(sys, p, phidot, phi),
                                   fd_residual_derivative(nl, p, phidot, phi),
                                   rtol=1e-6, atol=1e-12)

    def test_b6_ladder_table_matches_finite_differences(self):
        """Every R, L and C of the B6 bridge with one ladder section."""
        nl = builtin_circuit("b6_bridge_reduced", m=1)
        sys = assemble(nl)
        assert {p.kind for p in sys.params} == {"R", "L", "C"}
        rng = np.random.default_rng(11)
        phi = rng.standard_normal(sys.n)
        phidot = rng.standard_normal(sys.n)
        for p in sys.params:
            np.testing.assert_allclose(
                apply_param(sys, p, phidot, phi),
                fd_residual_derivative(nl, p, phidot, phi),
                rtol=1e-6, atol=1e-12, err_msg=p.name)


class TestDiode:
    model = DiodeModel(i_s=1e-12, n=1.0, v_t=0.02585)

    def test_current_at_zero_bias(self):
        i, g = diode_current(0.0, self.model)
        assert i == 0.0
        assert g == pytest.approx(1e-12 / 0.02585)

    def test_jacobian_matches_central_difference(self):
        for v in (-0.5, 0.0, 0.3, 0.6, 0.7):
            _, g = diode_current(v, self.model)
            h = 1e-7
            ip, _ = diode_current(v + h, self.model)
            im, _ = diode_current(v - h, self.model)
            assert g == pytest.approx((ip - im) / (2 * h), rel=1e-6)

    def test_clamp_keeps_large_bias_finite(self):
        i, g = diode_current(100.0, self.model)
        assert np.isfinite(i) and np.isfinite(g)
        # linear continuation beyond the clamp: constant slope
        i2, g2 = diode_current(101.0, self.model)
        assert g2 == pytest.approx(g)
        assert (i2 - i) == pytest.approx(g * 1.0, rel=1e-9)

    def test_eval_nonlinear_shapes(self):
        sys = system("""* diode loop
V1 in 0 DC 1
D1 in out 1e-12 1.0 0.02585
R1 out 0 100
.tran 1e-6 1e-3
.end
""")
        phi = np.full(sys.n, 0.2)
        i_nl, g = sys.eval_nonlinear(phi, 0.0)
        assert i_nl.shape == (sys.n,)
        assert g.shape == (1,)
        assert dense(sys._scatter.matrix(sys._scatter.devices(g))).shape \
            == (sys.n, sys.n)
        # anti-symmetric node pair: current out of 'in' enters 'out'
        a = sys.dofs.node_index["in"]
        b = sys.dofs.node_index["out"]
        assert i_nl[a] == pytest.approx(-i_nl[b])


class TestSwitchConductance:
    def test_pwm_levels_and_ramp(self):
        text = """* one switch
V1 in 0 DC 1
S1 in 0 0.1 1e6 1e-5 0.5 1e-8 0.0
.tran 1e-9 1e-5
.end
"""
        sys = system(text)
        sw = next(e for e in parse_netlist(text).elements if e.name == "S1")
        g_on, g_off = 1 / 0.1, 1 / 1e6
        assert sw.value.conductance(2e-6) == pytest.approx(g_on)
        assert sw.value.conductance(7e-6) == pytest.approx(g_off)
        mid = sw.value.conductance(5e-6 + 0.5e-8)
        assert g_off < mid < g_on
        # periodicity
        assert sw.value.conductance(2e-6 + 3e-5) == pytest.approx(g_on)
