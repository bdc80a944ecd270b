"""Modified nodal analysis: DoF mapping, matrix stamping and device evaluation.

Builds the DAE residual  Jc * dphi/dt + Jg * phi + i_nl(phi, t) - i_s(t) = 0
from a parsed netlist.  Jc and Jg hold the constant linear stamps; diodes and
PWM switches contribute through ``eval_nonlinear``.  Device j stamps one
conductance g[j] on the pattern of its two nodes, so every step matrix is
coef_dt*Jc + coef_g*(Jg + G(g)) and depends on the state only through the
device-conductance vector g.  ``stamp_linear`` compiles the device tables
and the scatter positions of that matrix once, and the derivative stamps
dJc/dp and dJg/dp of all parameters into one flat table, ``ParamTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .netlist import Netlist, DiodeModel

DENSE_LIMIT = 100          # below this many DoFs matrices are plain ndarrays
DIODE_EXP_CLAMP = 40.0     # linear extrapolation of the exponential beyond


@dataclass(frozen=True)
class DofMap:
    node_index: dict        # node name -> row (ground eliminated)
    branch_index: dict      # element name -> extra current-variable row
    names: tuple            # row index -> printable DoF name

    @property
    def n_dofs(self) -> int:
        return len(self.names)


def assign_dofs(netlist: Netlist) -> DofMap:
    """Non-ground nodes first (netlist order), then one branch-current row
    per voltage source and per inductor (element order)."""
    node_index = {}
    names = []
    for n in netlist.nodes:
        if n == "0":
            continue
        node_index[n] = len(names)
        names.append(f"v({n})")
    branch_index = {}
    for e in netlist.elements:
        if e.kind in ("V", "L"):
            branch_index[e.name] = len(names)
            names.append(f"i({e.name})")
    return DofMap(node_index, branch_index, tuple(names))


class ParamTable(NamedTuple):
    """The derivative stamps of every parameter as one flat table: entry i
    adds vals[i] * x[cols[i]] to row rows[i] of d(Jc phidot + Jg phi)/dp
    for p = param[i], with x = [phidot; phi] the stacked state of length 2n."""
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    param: np.ndarray            # parameter id


class _Triplets:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, i, j, v):
        if i is None or j is None:   # ground row/col eliminated
            return
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(float(v))

    def add_pattern(self, a, b, v):
        """Two-terminal conductance/capacitance pattern between rows a, b."""
        self.add(a, a, v)
        self.add(b, b, v)
        self.add(a, b, -v)
        self.add(b, a, -v)

    def arrays(self):
        return (np.asarray(self.rows, dtype=np.intp),
                np.asarray(self.cols, dtype=np.intp),
                np.asarray(self.vals, dtype=float))

    def csr(self, n):
        rows, cols, vals = self.arrays()
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _row(dofs: DofMap, node: str):
    return None if node == "0" else dofs.node_index[node]


def _accumulate(index, weights, length):
    """Sum `weights` into `length` bins, in input order."""
    return np.bincount(index, weights, minlength=length).astype(float, copy=False)


@dataclass(frozen=True)
class _Devices:
    """Diodes, then switches, each in netlist order, compiled into flat
    arrays of their model values.  ``inc`` is the (n, m) incidence of the
    devices: device j has +1 at its terminal a and -1 at b, and ground has
    no row, so phi @ inc are the terminal voltages and inc @ cur the row
    currents.  ``currents`` evaluates every device for one state or for
    stacked states; Newton's ``companion`` evaluates only the diodes, since
    the switch conductances of a step are known before it."""
    inc: np.ndarray
    n_diodes: int
    i_s: np.ndarray              # diodes: saturation current, n * v_t
    nvt: np.ndarray
    g_on: np.ndarray             # switches: SwitchModel.conductance, per field
    g_off: np.ndarray
    period: np.ndarray
    offset: np.ndarray
    t_on: np.ndarray
    ramp: np.ndarray
    inc_d: np.ndarray            # the diode columns of inc, contiguous

    @classmethod
    def compile(cls, terminals, diodes, switches, n):
        inc = np.zeros((n, len(terminals)))
        for j, (a, b) in enumerate(terminals):
            if a is not None:
                inc[a, j] = 1.0
            if b is not None:
                inc[b, j] = -1.0
        i_s, nvt = np.array([(m.i_s, m.n * m.v_t) for m in diodes],
                            dtype=float).reshape(-1, 2).T
        r_on, r_off, period, duty, ramp, offset = np.array(
            [(m.r_on, m.r_off, m.period, m.duty, m.ramp, m.offset)
             for m in switches], dtype=float).reshape(-1, 6).T
        return cls(
            inc=inc, n_diodes=len(diodes), i_s=i_s, nvt=nvt,
            g_on=1.0 / r_on, g_off=1.0 / r_off, period=period, offset=offset,
            t_on=duty * period, ramp=ramp,
            inc_d=np.ascontiguousarray(inc[:, : len(diodes)]))

    # Every method below also takes stacked states phi (K, n) with times t
    # (K, 1) and gives one row per state, as one state and time give one.

    def _diode(self, v):
        """Currents and conductances as diode_current, elementwise."""
        x = v / self.nvt
        if x.max(initial=-np.inf) <= DIODE_EXP_CLAMP:     # none clamped
            return self.i_s * np.expm1(x), self.i_s * np.exp(x) / self.nvt
        xc = np.minimum(x, DIODE_EXP_CLAMP)
        e = np.exp(xc)
        cur = self.i_s * np.where(x > DIODE_EXP_CLAMP,
                                  e * (1.0 + (x - DIODE_EXP_CLAMP)) - 1.0,
                                  np.expm1(xc))
        return cur, self.i_s * e / self.nvt

    def _switch(self, t):
        """Conductances as SwitchModel.conductance, elementwise."""
        if not self.g_on.size:
            return np.empty(np.shape(t)[:-1] + (0,))
        g_on, g_off, t_on, ramp = self.g_on, self.g_off, self.t_on, self.ramp
        tau = np.remainder(t - self.offset, self.period)
        g = np.where(tau < t_on, g_on, g_off)
        # tau >= 0, so no tau lies inside a ramp of length 0, and what a
        # zero ramp divides is never selected
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where((t_on <= tau) & (tau < t_on + ramp),
                         g_on + (g_off - g_on) * ((tau - t_on) / ramp), g)
            return np.where(tau < ramp, g_off + (g_on - g_off) * (tau / ramp), g)

    def currents(self, phi, t):
        """Device currents (into a, out of b) and conductances at (phi, t)."""
        v = phi @ self.inc
        nd = self.n_diodes
        cur_d, g_d = self._diode(v[..., :nd])
        g_s = self._switch(t)
        return (np.concatenate((cur_d, g_s * v[..., nd:]), axis=-1),
                np.concatenate((g_d, g_s), axis=-1))

    def companion(self, phi, g_s):
        """The devices linearized at one state phi, with switch
        conductances g_s: their conductances g, and the equivalent row
        currents inc_d @ (cur_d - g_d * v_d) of the diodes, so that
        i_nl(x) = G(g) x + i_eq to first order about phi.  Switches are
        linear in v and carry no equivalent current."""
        v = phi @ self.inc_d
        cur, g_d = self._diode(v)
        g = np.concatenate((g_d, g_s)) if g_s.size else g_d
        return g, self.inc_d @ (cur - g_d * v)


@dataclass(frozen=True)
class _Scatter:
    """Positions of every stamp in the data array of a step matrix: the
    row-major (n, n) array when dense, else the CSC pattern that is the
    union of Jc, Jg and the device stamps."""
    n: int
    dense: bool
    indices: Optional[np.ndarray]    # CSC pattern, sparse only
    indptr: Optional[np.ndarray]
    jc: np.ndarray                   # Jc and Jg on the data array
    jg: np.ndarray
    dev_pos: np.ndarray              # device stamp entries: position,
    dev_index: np.ndarray            # device, and +1 on the diagonal
    dev_sign: np.ndarray             # or -1 off it

    @classmethod
    def compile(cls, n, dense, jc: _Triplets, jg: _Triplets, terminals):
        dev = _Triplets()
        for j, (a, b) in enumerate(terminals):
            dev.add_pattern(a, b, j + 1)    # entry +-(j+1): device j, sign
        dev_r, dev_c, dev_v = dev.arrays()
        jc_r, jc_c, jc_v = jc.arrays()
        jg_r, jg_c, jg_v = jg.arrays()
        if dense:
            indices = indptr = None
            length = n * n

            def pos(r, c):
                return r * n + c
        else:
            keys = np.unique(np.concatenate((jc_c * n + jc_r, jg_c * n + jg_r,
                                             dev_c * n + dev_r)))
            indices = (keys % n).astype(np.int32)
            indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
            length = keys.size

            def pos(r, c):
                return np.searchsorted(keys, c * n + r)
        return cls(n=n, dense=dense, indices=indices, indptr=indptr,
                   jc=_accumulate(pos(jc_r, jc_c), jc_v, length),
                   jg=_accumulate(pos(jg_r, jg_c), jg_v, length),
                   dev_pos=pos(dev_r, dev_c),
                   dev_index=np.abs(dev_v).astype(np.intp) - 1,
                   dev_sign=np.sign(dev_v))

    def devices(self, g):
        return np.bincount(self.dev_pos, g[self.dev_index] * self.dev_sign,
                           minlength=self.jc.size)

    def matrix(self, data):
        if self.dense:
            return data.reshape(self.n, self.n)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))


@dataclass
class StampedSystem:
    """Assembled, immutable system matrices and callbacks for one netlist."""
    n: int
    Jc: object                   # ndarray or csr_matrix
    Jg: object
    dense: bool
    dofs: DofMap
    _sources: list               # (kind, a, b, branch_row, waveform)
    _devices: _Devices
    _scatter: _Scatter
    param_table: ParamTable
    params: tuple

    def source_eval(self, t: float) -> np.ndarray:
        """Independent source vector i_s(t)."""
        i_s = np.zeros(self.n)
        for kind, a, b, br, wf in self._sources:
            val = wf(t)
            if kind == "V":
                i_s[br] += val
            else:  # current source pushes val from node a into node b
                if a is not None:
                    i_s[a] -= val
                if b is not None:
                    i_s[b] += val
        return i_s

    def eval_nonlinear(self, phi: np.ndarray, t: float):
        """Nonlinear/time-varying current i_nl(phi, t) and its Jacobian
        d i_nl / d phi as the device conductances g (``step_matrix`` has
        G(g)).  Nothing here depends on dphi/dt."""
        cur, g = self._devices.currents(phi, t)
        return self._devices.inc @ cur, g

    def conductance_at(self, phi: np.ndarray, t) -> np.ndarray:
        """Device conductances g at (phi, t): the linearized system matrix
        there is Jg + G(g), see ``step_matrix``.  Stacked states phi (K, n)
        with times t (K, 1) give the (K, m) table of their rows."""
        return self._devices.currents(phi, t)[1]

    def step_matrix(self, coef_dt: float, coef_g: float, g: np.ndarray):
        """coef_dt*Jc + coef_g*(Jg + G(g)), scattered into an ndarray when
        dense, else into a CSC matrix on the precomputed pattern."""
        s = self._scatter
        return s.matrix(coef_dt * s.jc + coef_g * (s.jg + s.devices(g)))


def diode_current(v: float, model: DiodeModel):
    """Shockley current and conductance, exponent clamped at DIODE_EXP_CLAMP
    with linear extrapolation beyond (keeps Newton bounded)."""
    nvt = model.n * model.v_t
    x = v / nvt
    if x > DIODE_EXP_CLAMP:
        e = math.exp(DIODE_EXP_CLAMP)
        i = model.i_s * (e * (1.0 + (x - DIODE_EXP_CLAMP)) - 1.0)
        g = model.i_s * e / nvt
    else:
        i = model.i_s * math.expm1(x)
        g = model.i_s * math.exp(x) / nvt
    return i, g


def stamp_linear(netlist: Netlist, dofs: DofMap) -> StampedSystem:
    """Assemble the constant stamps and compile the device tables."""
    n = dofs.n_dofs
    dense = n < DENSE_LIMIT
    jc = _Triplets()
    jg = _Triplets()
    sources, diodes, switches = [], [], []

    for e in netlist.elements:
        a = _row(dofs, e.nodes[0])
        b = _row(dofs, e.nodes[1])
        if e.kind == "R":
            jg.add_pattern(a, b, 1.0 / e.value)
        elif e.kind == "C":
            jc.add_pattern(a, b, e.value)
        elif e.kind == "L":
            br = dofs.branch_index[e.name]
            jg.add(a, br, 1.0)
            jg.add(b, br, -1.0)
            jg.add(br, a, 1.0)
            jg.add(br, b, -1.0)
            jc.add(br, br, -e.value)
        elif e.kind == "V":
            br = dofs.branch_index[e.name]
            jg.add(a, br, 1.0)
            jg.add(b, br, -1.0)
            jg.add(br, a, 1.0)
            jg.add(br, b, -1.0)
            sources.append(("V", a, b, br, e.value))
        elif e.kind == "I":
            sources.append(("I", a, b, None, e.value))
        elif e.kind == "D":
            diodes.append((a, b, e.value))
        elif e.kind == "S":
            switches.append((a, b, e.value))

    terminals = [(a, b) for a, b, _ in diodes + switches]
    devices = _Devices.compile(terminals, [m for _, _, m in diodes],
                               [m for _, _, m in switches], n)
    scatter = _Scatter.compile(n, dense, jc, jg, terminals)
    if dense:       # the scatter data are the row-major matrices
        Jc, Jg = scatter.jc.reshape(n, n), scatter.jg.reshape(n, n)
    else:
        Jc, Jg = jc.csr(n), jg.csr(n)
    return StampedSystem(n=n, Jc=Jc, Jg=Jg, dense=dense, dofs=dofs,
                         _sources=sources, _devices=devices, _scatter=scatter,
                         param_table=_param_table(netlist, dofs),
                         params=netlist.params)


def _param_table(netlist: Netlist, dofs: DofMap) -> ParamTable:
    """dJc/dp and dJg/dp of every parameter, in parameter order."""
    stamps = _Triplets()
    param = []
    for p in netlist.params:
        e = netlist.element(p.element)
        count = len(stamps.vals)
        if p.kind == "L":       # the branch stamp is -L
            br = dofs.branch_index[e.name]
            stamps.add(br, br, -1.0)
        else:                   # d(1/R)/dR or d(C)/dC on the two-node pattern
            stamps.add_pattern(_row(dofs, e.nodes[0]), _row(dofs, e.nodes[1]),
                               -1.0 / p.nominal ** 2 if p.kind == "R" else 1.0)
        param += [p.id] * (len(stamps.vals) - count)
    rows, cols, vals = stamps.arrays()
    param = np.asarray(param, dtype=np.intp)
    # resistors stamp Jg, so their columns index phi, the second half of x
    on_phi = np.array([p.kind == "R" for p in netlist.params], dtype=bool)
    cols += dofs.n_dofs * on_phi[param]
    return ParamTable(rows, cols, vals, param)


def assemble(netlist: Netlist) -> StampedSystem:
    """Convenience: assign_dofs + stamp_linear."""
    return stamp_linear(netlist, assign_dofs(netlist))
