"""Netlist parsing, value suffixes, builtin fixtures, round-trips."""

import pytest
from hypothesis import given, strategies as st

from pintsens.netlist import (DiodeModel, Element, Netlist, NetlistError,
                              parse_value, parse_netlist, serialize_netlist,
                              builtin_circuit, BUILTIN_CIRCUITS)


RC_TEXT = """* rc lowpass
V1 in 0 DC 1
R1 in out 1e3
C1 out 0 1e-6
.tran 1e-5 5e-3
.end
"""


class TestParseValue:
    def test_plain_and_exponent(self):
        assert parse_value("42") == 42.0
        assert parse_value("1.5e-3") == 1.5e-3
        assert parse_value("-2.5") == -2.5

    @pytest.mark.parametrize("text,expected", [
        ("1k", 1e3), ("2.2u", 2.2e-6), ("10n", 1e-8), ("3meg", 3e6),
        ("1m", 1e-3), ("5p", 5e-12), ("1g", 1e9), ("7f", 7e-15),
        ("100K", 1e5), ("1MEG", 1e6),
    ])
    def test_suffixes(self, text, expected):
        assert parse_value(text) == pytest.approx(expected, rel=1e-12)

    def test_garbage_raises(self):
        for bad in ("", "abc", "--1", "e3", "1e400", "1e303meg"):
            with pytest.raises(ValueError):
                parse_value(bad)


class TestParsing:
    def test_rc_roundtrip(self):
        nl = parse_netlist(RC_TEXT)
        assert [e.name for e in nl.elements] == ["V1", "R1", "C1"]
        assert nl.directives.dt == 1e-5
        assert nl.directives.t_end == 5e-3
        again = parse_netlist(serialize_netlist(nl))
        assert again == nl

    def test_comments_and_blank_lines_ignored(self):
        text = RC_TEXT.replace(".tran", "\n* a comment\n.tran")
        assert parse_netlist(text) == parse_netlist(RC_TEXT)

    def test_case_insensitive_duplicate_name_rejected(self):
        text = RC_TEXT.replace("C1 out 0 1e-6", "r1 out 0 1e-6")
        with pytest.raises(NetlistError):
            parse_netlist(text)

    def test_unknown_element_kind(self):
        with pytest.raises(NetlistError) as exc:
            parse_netlist(RC_TEXT.replace("R1", "Q1"))
        assert exc.value.line is not None

    def test_dangling_node_rejected(self):
        text = RC_TEXT.replace("C1 out 0 1e-6", "C1 out2 0 1e-6")
        with pytest.raises(NetlistError, match="(?i)node"):
            parse_netlist(text)

    def test_missing_ground_rejected(self):
        text = "\n".join(["V1 a b DC 1", "R1 a b 1", ".tran 1e-6 1e-3", ".end"])
        with pytest.raises(NetlistError, match="(?i)ground|0"):
            parse_netlist(text)

    def test_missing_tran_leaves_directives_unset(self):
        text = RC_TEXT.replace(".tran 1e-5 5e-3\n", "")
        d = parse_netlist(text).directives
        assert d.dt is None and d.t_end is None

    def test_bad_tran_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist(RC_TEXT.replace(".tran 1e-5 5e-3", ".tran 1e-5"))
        with pytest.raises(NetlistError):
            parse_netlist(RC_TEXT.replace(".tran 1e-5 5e-3", ".tran -1 5e-3"))

    def test_nonpositive_switch_period_rejected(self):
        for period in ("0", "-1e-5"):
            text = RC_TEXT.replace("R1 in out 1e3",
                                   f"S1 in out 0.1 1e6 {period} 0.5")
            with pytest.raises(NetlistError, match="period"):
                parse_netlist(text)

    @pytest.mark.parametrize("line", ["V1 in 0 PWM 0 0.5",
                                      "V1 in 0 PWM -1e-5 0.5"])
    def test_nonpositive_pwm_period_rejected(self, line):
        with pytest.raises(NetlistError, match="period") as exc:
            parse_netlist(RC_TEXT.replace("V1 in 0 DC 1", line))
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", [
        "R1 in out 1e3 5",
        "V1 in 0 DC 1 2",
        "V1 in 0 SINE 1 50 0 7",
        "V1 in 0 PWM 1e-5 0.5 0 0 1 0 0 9",
        "D1 in out 1e-12 1 0.02585 4",
        "S1 in out 0.1 1e6 1e-5 0.5 1e-8 0 3",
    ])
    def test_values_beyond_the_grammar_rejected(self, line):
        kind = line[0]
        old = "V1 in 0 DC 1" if kind == "V" else "R1 in out 1e3"
        with pytest.raises(NetlistError, match="followed by") as exc:
            parse_netlist(RC_TEXT.replace(old, line))
        assert exc.value.line == (2 if kind == "V" else 3)

    @pytest.mark.parametrize("line", ["V1 in 0 R 5", "V1 in 0 D 1e-5 0.5",
                                      "V1 in 0 S 0.1 1e6 1e-5 0.5"])
    def test_element_kind_is_not_a_waveform(self, line):
        with pytest.raises(NetlistError, match="unknown waveform") as exc:
            parse_netlist(RC_TEXT.replace("V1 in 0 DC 1", line))
        assert exc.value.line == 2

    def test_bare_diode_takes_the_default_model(self):
        nl = parse_netlist(RC_TEXT.replace("R1 in out 1e3", "D1 in out"))
        assert nl.element("D1").value == DiodeModel()

    def test_sens_directive(self):
        text = RC_TEXT.replace(".end", ".sens 1e-3 2e-3 out\n.end")
        d = parse_netlist(text).directives
        assert (d.sens_start, d.sens_end, d.qoi_node) == (1e-3, 2e-3, "out")

    def test_error_reports_line_number(self):
        with pytest.raises(NetlistError) as exc:
            parse_netlist(RC_TEXT.replace("R1 in out 1e3", "R1 in out"))
        assert exc.value.line == 3
        with pytest.raises(NetlistError, match="line 3: .*not finite"):
            parse_netlist(RC_TEXT.replace("R1 in out 1e3", "R1 in out 1e400"))

    def test_pwm_source_waveform(self):
        nl = parse_netlist(RC_TEXT.replace("V1 in 0 DC 1",
                                           "V1 in 0 PWM 10u 0.5 1u 2u 5 0 0"))
        wave = nl.element("V1").value
        for t, v in [(0.0, 0.0), (0.5e-6, 2.5), (3e-6, 5.0), (6e-6, 2.5),
                     (8e-6, 0.0), (10.5e-6, 2.5)]:
            assert wave(t) == pytest.approx(v, abs=1e-12), t

    def test_params_directive(self):
        text = RC_TEXT.replace(".end", ".params R1\n.end")
        nl = parse_netlist(text)
        assert [p.name for p in nl.params] == ["R1"]
        assert parse_netlist(serialize_netlist(nl)) == nl
        for name in ("nosuch", "V1"):
            with pytest.raises(NetlistError, match=".params"):
                parse_netlist(text.replace(".params R1", f".params {name}"))

    def test_parameter_enumeration_is_sorted_and_stable(self):
        nl = parse_netlist(RC_TEXT)
        names = [p.name for p in nl.params]
        assert names == sorted(names, key=str.lower) == ["C1", "R1"]
        assert [p.id for p in nl.params] == [0, 1]

    def test_with_element_value_renumbers_consistently(self):
        nl = parse_netlist(RC_TEXT)
        bumped = nl.with_element_value("R1", 2e3)
        assert bumped.params[1].nominal == 2e3
        assert [p.id for p in bumped.params] == [p.id for p in nl.params]
        assert nl.params[1].nominal == 1e3    # original untouched

    def test_element_lookup_ignores_case_and_rejects_unknown_names(self):
        nl = builtin_circuit("b6_bridge_reduced", m=1)
        for e in nl.elements:
            for name in (e.name, e.name.upper(), e.name.lower()):
                assert nl.element(name) is e
        bumped = nl.with_element_value("c_ds_UH", 2e-9)
        assert bumped.element("C_DS_uh").value == 2e-9
        assert nl.element("c_ds_uh").value != 2e-9
        for name in ("R9", "", "L_uh-vh"):
            with pytest.raises(KeyError) as exc:
                nl.element(name)
            assert exc.value.args == (name,)
        # the parser rejects duplicate names; a netlist built directly
        # resolves one to its first element
        first, second = (Element(name, "R", ("a", "0"), value)
                         for name, value in (("R1", 1.0), ("r1", 2.0)))
        assert Netlist("dup", ("a", "0"), (first, second), ()).element("R1") is first


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_CIRCUITS) == {"half_wave_rectifier",
                                         "b6_bridge_reduced"}
        with pytest.raises(ValueError):
            builtin_circuit("nope")

    def test_rectifier_contents(self):
        nl = builtin_circuit("half_wave_rectifier")
        kinds = sorted(e.kind for e in nl.elements)
        assert kinds == ["C", "D", "R", "V"]
        assert nl.directives.qoi_node == "out"
        # the diode carries no differentiable parameter
        assert sorted(p.name for p in nl.params) == ["Cload", "Rload"]

    def test_b6_grows_with_ladder_order(self):
        counts = []
        for m in (0, 1, 2):
            nl = builtin_circuit("b6_bridge_reduced", m=m)
            names = [e.name for e in nl.elements]
            assert "L_uh-vh3" in names
            counts.append((len(nl.elements), len(nl.nodes), len(nl.params)))
        assert counts[0] < counts[1] < counts[2]
        # each ladder stage adds one R, L, C per switch position
        assert counts[1][0] - counts[0][0] == 18

    def test_b6_rejects_bad_order(self):
        with pytest.raises(ValueError):
            builtin_circuit("b6_bridge_reduced", m=-1)
        with pytest.raises(ValueError):
            builtin_circuit("b6_bridge_reduced", m=1.5)

    def test_builtin_roundtrip(self):
        for name in BUILTIN_CIRCUITS:
            nl = builtin_circuit(name)
            assert parse_netlist(serialize_netlist(nl)) == nl


@given(st.floats(min_value=1e-12, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
def test_parse_value_roundtrips_repr(x):
    assert parse_value(repr(x)) == x


@given(st.sampled_from(["f", "p", "n", "u", "m", "k", "meg", "g"]),
       st.floats(min_value=0.1, max_value=999.0, allow_nan=False))
def test_suffix_matches_exponent_form(suffix, mantissa):
    scale = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
             "k": 1e3, "meg": 1e6, "g": 1e9}[suffix]
    assert parse_value(f"{mantissa!r}{suffix}") == pytest.approx(
        mantissa * scale, rel=1e-12)
