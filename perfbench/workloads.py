"""Workload definitions, seeded input generation and the timed pipeline op.

One op is one fresh run of the ``pintsens sens`` / ``pintsens spectrum``
pipeline, from netlist text to the result files written.  It makes the same
public calls, in the same order, as ``cli._run_sens_pipeline`` and
``cli._cmd_spectrum``.  Every call is looked up on the ``pintsens`` package at
call time, so the tracer's patched bindings are the ones that run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

import pintsens as P

# Relative half-width of the seeded R/L/C perturbation.  Small enough that
# every workload keeps its behaviour class (Newton iterations per step,
# parareal iterations), which the per-op check enforces.
PERTURBATION = 0.01
FD_DELTA = 1e-5                # central-difference step, as in criterion 1
FD_TOL = 1e-2                  # max-norm relative adjoint-vs-FD error, criterion 1
MAX_PARAREAL_ITERATIONS = 3    # criterion 3
TOP = 5                        # spectrum: parameters ranked and transformed
SEGMENT = 256                  # spectrum: Welch segment cap, the CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    circuit: str
    options: dict
    command: str                       # "sens" or "spectrum"
    instant_steps: tuple               # grid indices counted back from the end
    newton_per_step: tuple             # accepted (low, high) Newton iterations per step
    parareal: Optional[dict] = None    # PararealConfig keywords
    workers: int = 1


def _tail(count, every):
    """`count` grid indices `every` steps apart, the last one at the final
    grid point, as offsets from it."""
    return tuple(-every * j for j in range(count - 1, -1, -1))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="rectifier_sens",
        circuit="half_wave_rectifier",
        options={"periods": 1.0},
        command="sens",
        instant_steps=_tail(3, 50),
        newton_per_step=(1.5, 3.0),
    ),
    Workload(
        name="b6_spectrum",
        circuit="b6_bridge_reduced",
        options={"m": 0, "dt": 1e-8},
        command="spectrum",
        # inside the 18.85-19.4 us ringing window (56 points on the 10 ns grid)
        instant_steps=_tail(10, 5),
        newton_per_step=(2.0, 2.0),
    ),
    Workload(
        name="rectifier_parareal",
        circuit="half_wave_rectifier",
        # the criterion-3 regime: 3 parareal iterations with a coarse step
        # of 400 us, as at dt = 4 us and stride 100, on a 4x coarser grid
        options={"periods": 2.0, "dt": 1.6e-5},
        command="sens",
        instant_steps=None,               # one instant at mid-horizon
        newton_per_step=(1.5, 3.0),
        parareal={"n_subintervals": 8, "tol": 1e-7, "coarse_stride": 25},
        workers=2,
    ),
    Workload(
        name="b6m8_sens",
        circuit="b6_bridge_reduced",
        options={"m": 8, "dt": 2e-8},
        command="sens",
        instant_steps=_tail(4, 10),
        newton_per_step=(2.0, 2.0),
    ),
)}


def netlist_text(w: Workload, seed: int) -> str:
    """Builtin fixture with every R/L/C value scaled by a seeded factor in
    [1 - PERTURBATION, 1 + PERTURBATION], serialized back to netlist text."""
    nl = P.builtin_circuit(w.circuit, **w.options)
    rng = np.random.default_rng(seed)
    for e in nl.elements:
        if e.kind in ("R", "L", "C"):
            factor = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
            nl = nl.with_element_value(e.name, e.value * factor)
    return P.serialize_netlist(nl)


def _instants(w: Workload, grid) -> tuple:
    times = grid.times
    if w.instant_steps is None:
        return (times[grid.n_steps // 2],)
    return tuple(times[grid.n_steps + k] for k in w.instant_steps)


def _qoi(netlist, instants):
    return P.Qoi({netlist.directives.qoi_node: 1.0}, instants=instants)


def setup(text: str):
    """The set-up stages of one op: parse, assemble, DC operating point."""
    netlist = P.parse_netlist(text)
    sys_ = P.assemble(netlist)
    d = netlist.directives
    grid = P.TimeGrid(0.0, d.t_end, d.dt)
    x0 = P.dc_operating_point(sys_, grid.t0)
    return netlist, sys_, grid, x0


@dataclass
class OpResult:
    pipeline_s: float
    setup_s: float
    integrate_s: float
    sensitivity_s: float
    steps: int
    newton_iters: int
    instants: int
    n_adjoint_solves: int
    parareal_iterations: tuple = ()
    parareal_converged: bool = True
    sequential_s: float = 0.0
    files: tuple = ()                  # result file names in the op's out_dir
    # objects for the once-per-run checks; dropped after the reference op
    netlist: object = None
    series: object = None
    context: tuple = ()


def run_op(w: Workload, text: str, out_dir: Path) -> OpResult:
    """One fresh pipeline run with every stage timed.  The caller reads the
    result files back after the clock has stopped."""
    t0 = time.perf_counter()
    netlist, sys_, grid, x0 = setup(text)
    t1 = time.perf_counter()
    instants = _instants(w, grid)
    qoi = _qoi(netlist, instants)
    traj = P.integrate(sys_, x0, grid)
    t2 = time.perf_counter()
    parallel = P.PararealConfig(**w.parareal) if w.parareal else None
    series = P.sensitivity_series(sys_, traj, qoi, parallel=parallel,
                                  workers=w.workers)
    t3 = time.perf_counter()
    sequential_s = 0.0
    adj = None
    if parallel is not None:
        # the sequential solve of the same instant, for parareal_speedup
        adj = P.solve_adjoint(sys_, traj, instants[0], qoi)
        P.pointwise_sensitivity(sys_, traj, adj)
        sequential_s = time.perf_counter() - t3
    out_dir.mkdir(parents=True, exist_ok=True)
    if w.command == "sens":
        names = ["sensitivities.csv"]
        series.write_csv(out_dir / names[0])
    else:
        k = min(TOP, len(series.params))
        ranking = P.rank_parameters(series, k)
        selected = [p for p, _ in ranking]
        fractions, _ = P.normalize_relative(series, selected)
        dt_m = float(series.instants[1] - series.instants[0]) \
            if len(series.instants) > 1 else 1.0
        ps = P.welch_psd(fractions, dt_m,
                         segment_len=min(SEGMENT, fractions.shape[1]))
        names = ["psd.csv", "ranking.json"]
        ps.write_csv(out_dir / names[0], [p.name for p in selected])
        (out_dir / names[1]).write_text(P.ranking_to_json(ranking) + "\n")
    t4 = time.perf_counter()

    reports = series.parareal_reports
    return OpResult(
        pipeline_s=t4 - t0, setup_s=t1 - t0, integrate_s=t2 - t1,
        sensitivity_s=t3 - t2, steps=grid.n_steps,
        newton_iters=traj.newton_iters, instants=len(instants),
        n_adjoint_solves=series.n_adjoint_solves,
        parareal_iterations=tuple(r.iterations for r in reports),
        parareal_converged=all(r.converged for r in reports),
        sequential_s=sequential_s,
        files=tuple(names),
        netlist=netlist, series=series, context=(sys_, traj, qoi, adj),
    )


def read_files(out_dir: Path, op: OpResult) -> dict:
    return {n: (out_dir / n).read_bytes() for n in op.files}


def op_problems(w: Workload, op: OpResult, files: dict, reference: dict) -> list:
    """Per-op correctness gate; an empty list means the op passed.  `files`
    are the op's result bytes, `reference` those of the first op."""
    problems = []
    if files != reference:
        problems.append("result files differ from the first op of this seed")
    if op.n_adjoint_solves != op.instants:
        problems.append(f"{op.n_adjoint_solves} adjoint solves for "
                        f"{op.instants} instants")
    lo, hi = w.newton_per_step
    per_step = op.newton_iters / op.steps
    if not lo <= per_step <= hi:
        problems.append(f"{per_step:.4f} Newton iterations per step, "
                        f"outside [{lo}, {hi}]")
    if w.parareal:
        if not op.parareal_converged:
            problems.append("parareal did not converge")
        if any(k > MAX_PARAREAL_ITERATIONS for k in op.parareal_iterations):
            problems.append(f"parareal iterations {op.parareal_iterations} "
                            f"exceed {MAX_PARAREAL_ITERATIONS}")
    return problems


@contextmanager
def capture_parareal(store: list):
    """Keep the (AdjointSolution, PararealReport) of every parareal adjoint
    solve made inside the block.  sensitivity_series imports
    parareal_adjoint_solve from pintsens.propagators at call time."""
    module = importlib.import_module("pintsens.propagators")
    original = module.parareal_adjoint_solve

    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        store.append(out)
        return out

    module.parareal_adjoint_solve = keep
    try:
        yield store
    finally:
        module.parareal_adjoint_solve = original


def run_problems(w: Workload, reference: OpResult, parareal_solves: list):
    """Once-per-run, untimed oracle checks on the reference op.  Returns
    (problems, measured errors)."""
    problems, measured = [], {}
    series = reference.series
    sys_, traj, qoi, sequential = reference.context
    # largest parameter by nominal-weighted magnitude, as the ranking weighs it
    weighted = np.abs(series.values) * np.array([abs(p.nominal) for p in series.params])
    j = int(np.argmax(weighted.max(axis=0)))
    param = series.params[j]
    # U(t) up to the last instant does not depend on later steps
    d = reference.netlist.directives
    t_last = float(series.instants[-1])
    netlist = replace(reference.netlist, directives=replace(d, t_end=t_last))
    fd = P.finite_difference_series(netlist, param, FD_DELTA,
                                     P.Qoi(qoi.weights), series.instants)
    err = np.max(np.abs(series.values[:, j] - fd)) / np.max(np.abs(fd))
    measured["fd_param"] = param.name
    measured["fd_rel_err"] = float(err)
    if not err <= FD_TOL:
        problems.append(f"{param.name}: adjoint vs finite differences "
                        f"{err:.3e} > {FD_TOL}")
    if w.parareal:
        tol = w.parareal["tol"]
        if len(parareal_solves) != 1:
            problems.append(f"{len(parareal_solves)} parareal solves captured, "
                            f"expected 1")
        for padj, _ in parareal_solves:
            gap = np.max(np.abs(padj.lam - sequential.lam)) \
                / (1.0 + np.max(np.abs(sequential.lam)))
            measured["parareal_lambda_gap"] = float(gap)
            if not gap <= 10 * tol:
                problems.append(f"parareal lambda gap {gap:.3e} > {10 * tol}")
    return problems, measured


def sizes(w: Workload, reference: OpResult) -> dict:
    sys_ = reference.context[0]
    return {
        "dofs": sys_.n,
        "steps": reference.steps,
        "instants": reference.instants,
        "parareal_N": w.parareal["n_subintervals"] if w.parareal else 0,
        "workers": w.workers,
        "params": len(sys_.params),
    }
