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
from collections import Counter
from dataclasses import MISSING, astuple, dataclass, fields, replace
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
    value = float(mantissa) * scale
    if not math.isfinite(value):          # an overflowing "1e400", "1e303meg"
        raise NetlistError(f"value {token!r} is not finite", line)
    return value


def format_value(x: float) -> str:
    return repr(float(x))


def _element_value(value) -> float:
    """An R/L/C value: positive and finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"value {value} is not finite")
    if value <= 0.0:
        raise ValueError(f"nonpositive value {value}")
    return value


# --------------------------------------------------------------------------
# waveforms and device models
# --------------------------------------------------------------------------
# Each model is its netlist form: the fields, in order, are its values, one
# with a default is optional, and __post_init__ holds the range checks.

@dataclass(frozen=True)
class DcWave:
    level: float = 0.0

    def __call__(self, t):
        return self.level


@dataclass(frozen=True)
class SineWave:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError("nonpositive frequency")

    def __call__(self, t):
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)


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

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("nonpositive PWM period")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty outside [0, 1]")
        if not (self.rise >= 0 and self.fall >= 0):
            raise ValueError("negative rise/fall")

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


@dataclass(frozen=True)
class DiodeModel:
    i_s: float = 1e-12       # saturation current, A
    n: float = 1.0           # emission coefficient
    v_t: float = 0.02585     # thermal voltage, V

    def __post_init__(self):
        if not (self.i_s > 0 and self.n > 0 and self.v_t > 0):
            raise ValueError("nonpositive diode model value")


@dataclass(frozen=True)
class SwitchModel:
    """PWM-scheduled conductance with a linear ramp between off and on."""
    r_on: float
    r_off: float
    period: float
    duty: float
    ramp: float = 10e-9
    offset: float = 0.0

    def __post_init__(self):
        if not (self.r_on > 0 and self.r_off > 0):
            raise ValueError("nonpositive switch resistance")
        if self.r_off <= self.r_on:
            raise ValueError("R_off must exceed R_on")
        if not self.period > 0:
            raise ValueError("nonpositive switch period")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty outside [0, 1]")

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
        """Copy with one R/L/C element's value replaced (nominals re-derived).

        The value must be positive and finite, as on a netlist line."""
        old = self.element(name)
        if old.kind not in DIFFERENTIABLE_KINDS:
            raise ValueError(f"{name} is not an R/L/C element")
        try:
            new = replace(old, value=_element_value(value))
        except ValueError as exc:
            raise ValueError(f"{exc} for {name!r}") from None
        elements = tuple(new if e is old else e for e in self.elements)
        return replace(self, elements=elements,
                       params=_enumerate_params(elements, self.param_filter))


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_MODELS = {"DC": DcWave, "SINE": SineWave, "PWM": PwmWave,
           "D": DiodeModel, "S": SwitchModel}
_FORM_OF = {model: form for form, model in _MODELS.items()}


def _form(model):
    """(usage, fewest, most) of a model's values, optional ones in brackets."""
    names = [f.name for f in fields(model)]
    fewest = sum(f.default is MISSING for f in fields(model))
    optional = names[fewest:]
    if optional:
        names[fewest:] = ["[" + " [".join(optional) + "]" * len(optional)]
    return " ".join(names), fewest, fewest + len(optional)


# (usage, fewest, most) of the values GRAMMAR.md allows after an element's
# nodes, or after the waveform name of a source
_FORMS = {**dict.fromkeys(DIFFERENTIABLE_KINDS, ("value", 1, 1)),
          **{form: _form(model) for form, model in _MODELS.items()}}


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
        if form in ELEMENT_KINDS or form not in _MODELS:
            raise NetlistError(f"unknown waveform {rest[0]!r} for {name!r}", line)
        rest = rest[1:]
    usage, fewest, most = _FORMS[form]
    if not fewest <= len(rest) <= most:
        head = " ".join(tokens[: len(tokens) - len(rest)])
        raise NetlistError(f"{head!r} must be followed by {usage}, got "
                           f"{len(rest)} values", line)
    args = [parse_value(tok, line) for tok in rest]
    try:
        value = (_element_value(*args) if kind in DIFFERENTIABLE_KINDS
                 else _MODELS[form](*args))
    except ValueError as exc:
        raise NetlistError(f"{exc} for {name!r}", line) from None
    return Element(name, kind, (a, b), value)


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

    # node -> how many elements touch it, in order of first appearance
    touches = Counter(n for e in elements for n in e.nodes)
    nl = Netlist(title, tuple(touches), tuple(elements),
                 _enumerate_params(elements, param_filter), directives,
                 param_filter)
    _validate(nl, touches)
    return nl


def _validate(nl, touches):
    if GROUND not in touches:
        raise NetlistError("no ground node '0' present")
    for n, count in touches.items():
        if n != GROUND and count == 1:
            raise NetlistError(f"dangling node {n!r} (touched by a single element)")
    for name in nl.param_filter or ():
        try:
            e = nl.element(name)
        except KeyError:
            raise NetlistError(f".params references unknown element {name!r}") from None
        if e.kind not in DIFFERENTIABLE_KINDS:
            raise NetlistError(f".params element {name!r} is not an R/L/C element")


def serialize_netlist(nl: Netlist) -> str:
    """Render a Netlist back to text; reparsing yields an equal structure."""
    lines = [f"* {nl.title}" if nl.title else "*"]
    for e in nl.elements:
        words = [e.name, *e.nodes]
        if e.kind in DIFFERENTIABLE_KINDS:
            values = (e.value,)
        else:
            values = astuple(e.value)
            if e.kind in ("V", "I"):
                words.append(_FORM_OF[type(e.value)])
        lines.append(" ".join(words + [format_value(v) for v in values]))
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
