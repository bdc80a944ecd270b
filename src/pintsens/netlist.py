"""SPICE-like netlist parsing, validation and builtin example circuits.

The grammar is line oriented (see GRAMMAR.md at the repository root):
``*`` starts a comment, the first letter of an element name selects the
element kind, and ``.tran`` / ``.sens`` / ``.params`` directives configure
the analyses.  All values are SI units and accept the usual engineering
suffixes (k, meg, u, n, ...).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

GROUND = "0"

ELEMENT_KINDS = ("R", "L", "C", "V", "I", "D", "S")
DIFFERENTIABLE_KINDS = ("R", "L", "C")

_SUFFIXES = {
    "t": 1e12, "g": 1e9, "meg": 1e6, "k": 1e3,
    "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15,
}

_NUMBER_RE = re.compile(r"^([+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)([a-zA-Z]*)$")


class NetlistError(ValueError):
    """Raised for syntax or validation problems, carrying a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_value(token: str, line: Optional[int] = None) -> float:
    """Parse a number with an optional engineering suffix ('2.2k' -> 2200.0)."""
    m = _NUMBER_RE.match(token)
    if not m:
        raise NetlistError(f"cannot parse value {token!r}", line)
    mantissa, suffix = m.groups()
    scale = 1.0
    if suffix:
        s = suffix.lower()
        if s.startswith("meg"):
            scale = _SUFFIXES["meg"]
        elif s[0] in _SUFFIXES:
            scale = _SUFFIXES[s[0]]
        # any remaining letters are a unit annotation (e.g. "5V") and ignored
    return float(mantissa) * scale


def format_value(x: float) -> str:
    return repr(float(x))


# --------------------------------------------------------------------------
# waveforms and device models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DcWave:
    level: float

    def __call__(self, t):
        return self.level

    def tokens(self):
        return ["DC", format_value(self.level)]


@dataclass(frozen=True)
class SineWave:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, t):
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)

    def tokens(self):
        return ["SINE", format_value(self.amplitude), format_value(self.frequency),
                format_value(self.phase)]


@dataclass(frozen=True)
class PwmWave:
    """Trapezoidal pulse train: high for ``duty`` of each period, linear edges."""
    period: float
    duty: float
    rise: float = 0.0
    fall: float = 0.0
    high: float = 1.0
    low: float = 0.0
    offset: float = 0.0

    def __call__(self, t):
        tau = (t - self.offset) % self.period
        t_on = self.duty * self.period
        if tau < self.rise:
            frac = tau / self.rise if self.rise > 0 else 1.0
            return self.low + (self.high - self.low) * frac
        if tau < t_on:
            return self.high
        if tau < t_on + self.fall:
            frac = (tau - t_on) / self.fall if self.fall > 0 else 1.0
            return self.high + (self.low - self.high) * frac
        return self.low

    def tokens(self):
        return ["PWM"] + [format_value(v) for v in
                          (self.period, self.duty, self.rise, self.fall,
                           self.high, self.low, self.offset)]


@dataclass(frozen=True)
class DiodeModel:
    i_s: float = 1e-12       # saturation current, A
    n: float = 1.0           # emission coefficient
    v_t: float = 0.02585     # thermal voltage, V

    def tokens(self):
        return [format_value(self.i_s), format_value(self.n), format_value(self.v_t)]


@dataclass(frozen=True)
class SwitchModel:
    """PWM-scheduled conductance with a linear ramp between off and on."""
    r_on: float
    r_off: float
    period: float
    duty: float
    ramp: float = 10e-9
    offset: float = 0.0

    def conductance(self, t: float) -> float:
        g_on = 1.0 / self.r_on
        g_off = 1.0 / self.r_off
        tau = (t - self.offset) % self.period
        t_on = self.duty * self.period
        r = self.ramp
        if r > 0.0:
            if tau < r:                       # turning on
                return g_off + (g_on - g_off) * (tau / r)
            if t_on <= tau < t_on + r:        # turning off
                return g_on + (g_off - g_on) * ((tau - t_on) / r)
        if tau < t_on:
            return g_on
        return g_off

    def tokens(self):
        return [format_value(v) for v in
                (self.r_on, self.r_off, self.period, self.duty, self.ramp, self.offset)]


Waveform = DcWave | SineWave | PwmWave


# --------------------------------------------------------------------------
# netlist data model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Element:
    name: str
    kind: str                   # one of ELEMENT_KINDS
    nodes: tuple[str, str]
    value: object               # float (R/L/C), DiodeModel, SwitchModel or Waveform


@dataclass(frozen=True)
class Parameter:
    id: int
    name: str                   # parameter name == element name
    element: str
    kind: str                   # R, L or C
    nominal: float


@dataclass(frozen=True)
class Directives:
    dt: Optional[float] = None
    t_end: Optional[float] = None
    sens_start: Optional[float] = None
    sens_end: Optional[float] = None
    qoi_node: Optional[str] = None


@dataclass(frozen=True)
class Netlist:
    title: str
    nodes: tuple[str, ...]      # ground "0" included, order of first appearance
    elements: tuple[Element, ...]
    params: tuple[Parameter, ...]
    directives: Directives = Directives()
    param_filter: Optional[tuple[str, ...]] = None

    @cached_property
    def _by_name(self) -> dict:
        """Lowercase name -> element, the first one of each name."""
        by_name = {}
        for e in self.elements:
            by_name.setdefault(e.name.lower(), e)
        return by_name

    def element(self, name: str) -> Element:
        """The element of that name, in any case."""
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise KeyError(name) from None

    def with_element_value(self, name: str, value: float) -> "Netlist":
        """Copy with one R/L/C element's value replaced (nominals re-derived)."""
        elements = []
        found = False
        for e in self.elements:
            if e.name.lower() == name.lower():
                if e.kind not in DIFFERENTIABLE_KINDS:
                    raise ValueError(f"{name} is not an R/L/C element")
                e = replace(e, value=float(value))
                found = True
            elements.append(e)
        if not found:
            raise KeyError(name)
        params = _enumerate_params(elements, self.param_filter)
        return replace(self, elements=tuple(elements), params=params)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

# the values GRAMMAR.md allows after an element's nodes, or after the
# waveform name of a source, optional ones in brackets
_FORMS = {"R": "value", "L": "value", "C": "value", "D": "[i_s [n [v_t]]]",
          "S": "r_on r_off period duty [ramp [offset]]", "DC": "[level]",
          "SINE": "amplitude frequency [phase]",
          "PWM": "period duty [rise [fall [high [low [offset]]]]]"}
_WAVEFORMS = ("DC", "SINE", "PWM")
_COUNTS = {form: (usage.count(" ") + 1 - usage.count("["), usage.count(" ") + 1)
           for form, usage in _FORMS.items()}           # fewest, most


def _parse_element(tokens, line):
    name = tokens[0]
    kind = name[0].upper()
    if kind not in ELEMENT_KINDS:
        raise NetlistError(f"unknown element kind {name[0]!r} in {name!r}", line)
    if len(tokens) < 3:
        raise NetlistError(f"element {name!r} needs two nodes", line)
    a, b = tokens[1], tokens[2]
    if a == b:
        raise NetlistError(f"element {name!r} connects a node to itself", line)
    rest, form = tokens[3:], kind
    if kind in ("V", "I"):
        if not rest:
            raise NetlistError(f"source {name!r} needs a waveform", line)
        form = rest[0].upper()
        if form not in _WAVEFORMS:
            raise NetlistError(f"unknown waveform {rest[0]!r} for {name!r}", line)
        rest = rest[1:]
    fewest, most = _COUNTS[form]
    if not fewest <= len(rest) <= most:
        head = " ".join(tokens[: len(tokens) - len(rest)])
        raise NetlistError(f"{head!r} must be followed by {_FORMS[form]}, got "
                           f"{len(rest)} values", line)
    args = [parse_value(tok, line) for tok in rest]

    if kind in DIFFERENTIABLE_KINDS:
        val = args[0]
        if val <= 0.0:
            raise NetlistError(f"nonpositive value {val} for {name!r}", line)
        return Element(name, kind, (a, b), val)

    if kind in ("V", "I"):
        if form == "DC":
            value = DcWave(*args or [0.0])
        elif form == "SINE":
            if args[1] <= 0:
                raise NetlistError(f"nonpositive frequency for {name!r}", line)
            value = SineWave(*args)
        else:                                   # PWM
            if args[0] <= 0:
                raise NetlistError(f"nonpositive PWM period for {name!r}", line)
            if not (0.0 <= args[1] <= 1.0):
                raise NetlistError(f"duty outside [0, 1] for {name!r}", line)
            if any(v < 0 for v in args[2:4]):
                raise NetlistError(f"negative rise/fall for {name!r}", line)
            value = PwmWave(*args)
        return Element(name, kind, (a, b), value)

    if kind == "D":
        model = DiodeModel(*args)
        if model.i_s <= 0 or model.n <= 0 or model.v_t <= 0:
            raise NetlistError(f"nonpositive diode model value for {name!r}", line)
        return Element(name, kind, (a, b), model)

    if kind == "S":
        model = SwitchModel(*args)
        if model.r_on <= 0 or model.r_off <= 0:
            raise NetlistError(f"nonpositive switch resistance for {name!r}", line)
        if model.r_off <= model.r_on:
            raise NetlistError(f"R_off must exceed R_on for {name!r}", line)
        if model.period <= 0:
            raise NetlistError(f"nonpositive switch period for {name!r}", line)
        if not (0.0 <= model.duty <= 1.0):
            raise NetlistError(f"duty outside [0, 1] for {name!r}", line)
        return Element(name, kind, (a, b), model)

    raise NetlistError(f"unhandled element kind {kind!r}", line)  # pragma: no cover


def _enumerate_params(elements, param_filter) -> tuple[Parameter, ...]:
    # deterministic: sorted by element name so ids are stable across runs
    allowed = None if param_filter is None else {n.lower() for n in param_filter}
    chosen = [e for e in elements
              if e.kind in DIFFERENTIABLE_KINDS
              and (allowed is None or e.name.lower() in allowed)]
    chosen.sort(key=lambda e: e.name.lower())
    return tuple(Parameter(i, e.name, e.name, e.kind, float(e.value))
                 for i, e in enumerate(chosen))


def parse_netlist(text: str) -> Netlist:
    """Parse netlist source into a validated :class:`Netlist`."""
    title = ""
    elements: list[Element] = []
    directives = Directives()
    param_filter = None
    seen_names: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("*"):
            if lineno == 1:
                title = stripped.lstrip("*").strip()
            continue
        tokens = stripped.split()
        head = tokens[0]
        if head.startswith("."):
            d = head.lower()
            if d == ".tran":
                if len(tokens) != 3:
                    raise NetlistError(".tran needs <dt> <t_end>", lineno)
                dt = parse_value(tokens[1], lineno)
                t_end = parse_value(tokens[2], lineno)
                if dt <= 0 or t_end <= 0:
                    raise NetlistError(".tran values must be positive", lineno)
                directives = replace(directives, dt=dt, t_end=t_end)
            elif d == ".sens":
                if len(tokens) != 4:
                    raise NetlistError(".sens needs <t_start> <t_end> <qoi-node>", lineno)
                directives = replace(directives,
                                     sens_start=parse_value(tokens[1], lineno),
                                     sens_end=parse_value(tokens[2], lineno),
                                     qoi_node=tokens[3])
            elif d == ".params":
                if len(tokens) < 2:
                    raise NetlistError(".params needs at least one element name", lineno)
                param_filter = tuple(tokens[1:])
            elif d == ".end":
                break
            else:
                raise NetlistError(f"unknown directive {head!r}", lineno)
            continue

        elem = _parse_element(tokens, lineno)
        key = elem.name.lower()
        if key in seen_names:
            raise NetlistError(
                f"duplicate element name {elem.name!r} (first on line {seen_names[key]})",
                lineno)
        seen_names[key] = lineno
        elements.append(elem)

    if not elements:
        raise NetlistError("netlist contains no elements")

    nodes: list[str] = []
    for e in elements:
        for n in e.nodes:
            if n not in nodes:
                nodes.append(n)

    _validate(elements, nodes, param_filter)
    params = _enumerate_params(elements, param_filter)
    return Netlist(title, tuple(nodes), tuple(elements), params,
                   directives, param_filter)


def _validate(elements, nodes, param_filter):
    if GROUND not in nodes:
        raise NetlistError("no ground node '0' present")
    touches: dict[str, int] = {n: 0 for n in nodes}
    for e in elements:
        for n in e.nodes:
            touches[n] += 1
    for n, count in touches.items():
        if n != GROUND and count == 1:
            raise NetlistError(f"dangling node {n!r} (touched by a single element)")
    if param_filter is not None:
        by_name = {e.name.lower(): e for e in elements}
        for name in param_filter:
            e = by_name.get(name.lower())
            if e is None:
                raise NetlistError(f".params references unknown element {name!r}")
            if e.kind not in DIFFERENTIABLE_KINDS:
                raise NetlistError(
                    f".params element {name!r} is not an R/L/C element")


def serialize_netlist(nl: Netlist) -> str:
    """Render a Netlist back to text; reparsing yields an equal structure."""
    lines = [f"* {nl.title}" if nl.title else "*"]
    for e in nl.elements:
        if e.kind in DIFFERENTIABLE_KINDS:
            tail = [format_value(e.value)]
        else:
            tail = e.value.tokens()
        lines.append(" ".join([e.name, *e.nodes, *tail]))
    d = nl.directives
    if d.dt is not None:
        lines.append(f".tran {format_value(d.dt)} {format_value(d.t_end)}")
    if d.qoi_node is not None:
        lines.append(f".sens {format_value(d.sens_start)} "
                     f"{format_value(d.sens_end)} {d.qoi_node}")
    if nl.param_filter is not None:
        lines.append(".params " + " ".join(nl.param_filter))
    lines.append(".end")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# builtin fixtures
# --------------------------------------------------------------------------
#
# Only the topologies of these circuits are canonical; every numeric
# value below is an artifact default chosen to reproduce the qualitative
# behavior (rectifier charge spikes + RC discharge; bridge switching ring).

def _half_wave_rectifier_text(amplitude=10.0, frequency=50.0, r=100.0, c=1e-3,
                              i_s=1e-12, n=1.0, v_t=0.02585,
                              dt=1e-5, periods=5.0):
    t_end = periods / frequency
    return "\n".join([
        "* half-wave rectifier",
        f"Vin in 0 SINE {amplitude} {frequency} 0",
        f"D1 in out {i_s} {n} {v_t}",
        f"Rload out 0 {r}",
        f"Cload out 0 {c}",
        f".tran {dt} {t_end}",
        # analysis window: the final RC discharge stretch between conduction
        # intervals (the regime the sensitivity analysis is about)
        f".sens {0.87 * t_end} {t_end} out",
        ".end",
    ]) + "\n"


def _b6_bridge_text(m=0, dt=1e-9, t_end=19.4e-6):
    """Six-switch bridge with per-switch drain-source capacitance,
    damped interconnect inductances and optional RLC parasitic ladders."""
    vdc = 12.5
    period = 20e-6
    r_on, r_off, ramp = 0.05, 1e6, 10e-9
    c_ds = 5e-8
    l_int, r_int = 1e-6, 4.0
    r_load, l_load = 0.5, 1e-4
    lines = ["* B6 bridge-motor supply (reduced synthetic parasitics)",
             f"Vdc vdc 0 DC {vdc}",
             # interconnect inductances along the high-side rail; each carries
             # a series ESR so the switching ring is damped rather than lossless
             f"L_dc-uh vdc uh_m {l_int}",
             f"R_dc-uh uh_m uh_d {r_int}",
             f"L_uh-vh3 uh_d vh_m {l_int}",
             f"R_uh-vh3 vh_m vh_d {r_int}",
             f"L_vh-wh3 vh_d wh_m {l_int}",
             f"R_vh-wh3 wh_m wh_d {r_int}"]
    # switch schedules: V-phase commutates at 18.8 us, inside the first cycle,
    # so the analyzed window 18.85-19.4 us sees the switching ring
    # both U-phase switches are open in the analyzed window so the switch
    # capacitances form the divider that sets the ringing amplitude there
    sched = {
        "uh": (0.60, 0.0),    "ul": (0.325, 12.0e-6),
        "vh": (0.30, 18.8e-6), "vl": (0.70, 4.8e-6),
        "wh": (0.50, 5.0e-6),  "wl": (0.50, 15.0e-6),
    }
    rails = {"u": "uh_d", "v": "vh_d", "w": "wh_d"}
    for ph in ("u", "v", "w"):
        hi, lo = ph + "h", ph + "l"
        d_hi, o_hi = sched[hi]
        d_lo, o_lo = sched[lo]
        lines += [
            f"S_{hi} {rails[ph]} {ph} {r_on} {r_off} {period} {d_hi} {ramp} {o_hi}",
            f"S_{lo} {ph} 0 {r_on} {r_off} {period} {d_lo} {ramp} {o_lo}",
            f"C_DS_{hi} {rails[ph]} {ph} {c_ds}",
            f"C_DS_{lo} {ph} 0 {c_ds}",
            f"R_load_{ph} {ph} star_{ph} {r_load}",
            f"L_load_{ph} star_{ph} star {l_load}",
        ]
    lines.append("R_star star 0 1e3")
    # parasitic ladders, m RLC stages across each switch position
    positions = {
        "uh": ("uh_d", "u"), "ul": ("u", "0"),
        "vh": ("vh_d", "v"), "vl": ("v", "0"),
        "wh": ("wh_d", "w"), "wl": ("w", "0"),
    }
    for pos, (a, b) in positions.items():
        prev = a
        for j in range(1, m + 1):
            na, nb = f"z{pos}{j}a", f"z{pos}{j}b"
            lines += [
                f"R_z{pos}{j} {prev} {na} 0.2",
                f"L_z{pos}{j} {na} {nb} 2e-8",
                f"C_z{pos}{j} {nb} {b} 1e-9",
            ]
            prev = nb
    lines += [f".tran {dt} {t_end}",
              f".sens 18.85e-6 19.4e-6 uh_d",
              ".end"]
    return "\n".join(lines) + "\n"


BUILTIN_CIRCUITS = ("half_wave_rectifier", "b6_bridge_reduced")


def builtin_circuit(name: str, **options) -> Netlist:
    """Return one of the builtin example circuits as a parsed Netlist.

    ``half_wave_rectifier`` accepts amplitude/frequency/r/c/diode options;
    ``b6_bridge_reduced`` accepts ``m`` (RLC ladder stages per parasitic
    position, default 0) plus ``dt`` and ``t_end``.
    """
    if name == "half_wave_rectifier":
        text = _half_wave_rectifier_text(**options)
    elif name == "b6_bridge_reduced":
        m = options.pop("m", 0)
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"ladder order m must be a nonnegative int, got {m!r}")
        text = _b6_bridge_text(m=m, **options)
    else:
        raise ValueError(f"unknown builtin circuit {name!r}; "
                         f"choose from {BUILTIN_CIRCUITS}")
    return parse_netlist(text)
