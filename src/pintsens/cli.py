"""Command-line front end and wall-clock benchmark harness.

Subcommands: ``simulate`` (transient CSV), ``sens`` (sensitivity series CSV),
``spectrum`` (Welch PSD CSV + parameter ranking JSON) and ``bench``
(per-subinterval timing table with speedup and parallel efficiency).
Exit codes: 0 success, 1 input error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys as _sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .adjoint import Qoi, sensitivity_series, solve_adjoint
from .mna import assemble
from .netlist import NetlistError, builtin_circuit, parse_netlist
from .parareal import PararealConfig
from .propagators import parareal_adjoint_solve
from .spectral import normalize_relative, rank_parameters, ranking_to_json, welch_psd
from .transient import SolverError, TimeGrid, dc_operating_point, integrate


def speedup(t_sequential: float, t_parallel: float) -> float:
    """S = T_s / T_p."""
    if t_parallel <= 0.0:
        raise ValueError("parallel wall-clock time must be positive")
    return t_sequential / t_parallel


def efficiency(s: float, n: int) -> float:
    """E = S / N."""
    if n < 1:
        raise ValueError("subinterval count must be at least 1")
    return s / n


@dataclass
class BenchRecord:
    n_subintervals: int
    fine_time_s: float          # mean per-subinterval fine propagation time
    coarse_time_s: float
    total_wall_s: float
    sequential_wall_s: float
    speedup: float
    efficiency: float
    iterations: int


def run_bench(netlist, t_m, qoi, n_list, workers=1, repetitions=1,
              stride=100, tol=1e-8, scheme="implicit_euler"):
    """Time one sequential adjoint solve, then parareal solves per N.

    Min-of-repetitions is the headline number; a warm-up run is discarded.
    Returns (records, reports).
    """
    sys_ = assemble(netlist)
    d = netlist.directives
    grid = TimeGrid(0.0, d.t_end, d.dt)
    x0 = dc_operating_point(sys_, grid.t0)
    traj = integrate(sys_, x0, grid, scheme=scheme)

    solve_adjoint(sys_, traj, t_m, qoi)                  # warm-up, discarded
    seq_times = []
    for _ in range(repetitions):
        tic = time.perf_counter()
        solve_adjoint(sys_, traj, t_m, qoi)              # fresh cache each run
        seq_times.append(time.perf_counter() - tic)
    t_seq = min(seq_times)

    records, reports = [], []
    for n in n_list:
        cfg = PararealConfig(n_subintervals=n, tol=tol, coarse_stride=stride)
        best = None
        for _ in range(repetitions):
            _, report = parareal_adjoint_solve(sys_, traj, t_m, qoi, cfg,
                                               workers=workers)
            if best is None or report.total_wall_s < best.total_wall_s:
                best = report
        s = speedup(t_seq, best.total_wall_s)
        records.append(BenchRecord(
            n_subintervals=n,
            fine_time_s=float(np.mean(best.fine_times_s)),
            coarse_time_s=best.coarse_time_s,
            total_wall_s=best.total_wall_s,
            sequential_wall_s=t_seq,
            speedup=s,
            efficiency=efficiency(s, n),
            iterations=best.iterations,
        ))
        reports.append(best)
    return records, reports


def write_bench_table(records, out_dir: Path):
    rows = [asdict(r) for r in records]
    (out_dir / "bench.json").write_text(json.dumps(rows, indent=2) + "\n")
    cols = list(rows[0].keys()) if rows else []
    with open(out_dir / "bench.csv", "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(f"{row[c]:.17g}" if isinstance(row[c], float)
                             else str(row[c]) for c in cols) + "\n")


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------

_QOI_TERM = re.compile(r"([+-]?)\s*([vi]\(\w+\)|\w+)")


def parse_qoi_expr(expr: str) -> dict:
    """Parse 'v(out)' or 'v(a)-v(b)' into a weight dict."""
    weights = {}
    pos = 0
    for m in _QOI_TERM.finditer(expr.replace(" ", "")):
        if m.start() != pos:
            raise ValueError(f"cannot parse QoI expression {expr!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        weights[m.group(2)] = weights.get(m.group(2), 0.0) + sign
        pos = m.end()
    if not weights or pos != len(expr.replace(" ", "")):
        raise ValueError(f"cannot parse QoI expression {expr!r}")
    return weights


def load_netlist(spec: str):
    if spec.startswith("builtin:"):
        return builtin_circuit(spec.split(":", 1)[1])
    path = Path(spec)
    if not path.is_file():
        raise FileNotFoundError(f"netlist file not found: {spec}")
    return parse_netlist(path.read_text())


def _grid_from(netlist, args) -> TimeGrid:
    dt = args.dt if args.dt is not None else netlist.directives.dt
    t_end = args.tend if args.tend is not None else netlist.directives.t_end
    if dt is None or t_end is None:
        raise ValueError("no .tran directive and no --dt/--tend given")
    return TimeGrid(0.0, t_end, dt)


def _qoi_weights(netlist, args) -> dict:
    if args.qoi:
        return parse_qoi_expr(args.qoi)
    if netlist.directives.qoi_node:
        return {netlist.directives.qoi_node: 1.0}
    raise ValueError("no QoI: pass --qoi or add a .sens directive")


def _qoi_from(netlist, args, grid) -> Qoi:
    weights = _qoi_weights(netlist, args)
    if args.window:
        a, b = args.window
    elif netlist.directives.sens_start is not None:
        a, b = netlist.directives.sens_start, netlist.directives.sens_end
    else:
        a, b = grid.t0, grid.t1
    times = grid.times
    mask = (times >= a - 1e-15) & (times <= b + 1e-15)
    instants = tuple(times[mask][:: args.every])
    return Qoi(weights, window=(a, b), instants=instants)


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _positive_ints(text: str) -> list:
    """A comma list of positive integers, e.g. ``2,4,8``."""
    return [_positive_int(item) for item in text.split(",")]


def _window(text: str) -> tuple:
    """``t_start:t_end``, two finite numbers with t_start <= t_end."""
    try:
        a, b = (float(x) for x in text.split(":"))
    except ValueError:
        a = b = math.nan
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise argparse.ArgumentTypeError(
            f"must be t_start:t_end with finite t_start <= t_end, got {text!r}")
    return a, b


def _finite_number(what: str, accept=lambda value: True):
    """An argparse type: a finite float for which ``accept`` holds."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_tolerance = _finite_number("a finite number >= 0", lambda value: value >= 0.0)
_positive_time = _finite_number("a finite number > 0", lambda value: value > 0.0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pintsens")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("netlist", help="netlist path or builtin:<name>")
        sp.add_argument("--dt", type=_positive_time, default=None)
        sp.add_argument("--tend", type=_positive_time, default=None)
        sp.add_argument("--scheme", choices=("implicit_euler", "trapezoidal"),
                        default="implicit_euler")
        sp.add_argument("--out", type=Path, default=Path("."))

    def parareal_options(sp):
        sp.add_argument("--workers", type=_positive_int, default=1)
        sp.add_argument("--tol", type=_tolerance, default=1e-8)
        sp.add_argument("--stride", type=_positive_int, default=100)

    sp = sub.add_parser("simulate", help="forward transient solve to CSV")
    common(sp)

    for name in ("sens", "spectrum"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--qoi", default=None, help="e.g. v(out) or v(a)-v(b)")
        sp.add_argument("--window", type=_window, default=None,
                        help="t_start:t_end")
        sp.add_argument("--every", type=_positive_int, default=1,
                        help="analyze every k-th grid point in the window")
        sp.add_argument("--N", type=_positive_int, default=None,
                        help="parareal subintervals")
        parareal_options(sp)
        if name == "spectrum":
            sp.add_argument("--segment", type=_positive_int, default=256)
            sp.add_argument("--top", type=_positive_int, default=10)

    sp = sub.add_parser("bench", help="tabular parareal timing benchmark")
    common(sp)
    sp.add_argument("--qoi", default=None)
    sp.add_argument("--tm", type=_finite_number("a finite number"), required=True)
    sp.add_argument("--N", type=_positive_ints, required=True,
                    help="comma list, e.g. 2,4,8")
    parareal_options(sp)
    sp.add_argument("--repetitions", type=_positive_int, default=1)
    return p


def _cmd_simulate(args) -> int:
    netlist = load_netlist(args.netlist)
    sys_ = assemble(netlist)
    grid = _grid_from(netlist, args)
    x0 = dc_operating_point(sys_, grid.t0)
    traj = integrate(sys_, x0, grid, scheme=args.scheme)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / "trajectory.csv"
    traj.write_csv(out, sys_.dofs.names)
    print(f"wrote {out} ({grid.n_steps + 1} rows)")
    return 0


def _run_sens_pipeline(args):
    netlist = load_netlist(args.netlist)
    sys_ = assemble(netlist)
    grid = _grid_from(netlist, args)
    qoi = _qoi_from(netlist, args, grid)
    x0 = dc_operating_point(sys_, grid.t0)
    traj = integrate(sys_, x0, grid, scheme=args.scheme)
    parallel = None
    if args.N:
        parallel = PararealConfig(n_subintervals=args.N, tol=args.tol,
                                  coarse_stride=args.stride)
    return sensitivity_series(sys_, traj, qoi, parallel=parallel,
                              workers=args.workers)


def _cmd_sens(args) -> int:
    series = _run_sens_pipeline(args)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / "sensitivities.csv"
    series.write_csv(out)
    print(f"wrote {out} ({len(series.instants)} instants, "
          f"{len(series.params)} parameters)")
    print(f"adjoint solves: {series.n_adjoint_solves}")
    return 0


def _cmd_spectrum(args) -> int:
    series = _run_sens_pipeline(args)
    args.out.mkdir(parents=True, exist_ok=True)
    k = min(args.top, len(series.params))
    ranking = rank_parameters(series, k)
    selected = [p for p, _ in ranking]
    fractions, _ = normalize_relative(series, selected)
    dt_m = float(series.instants[1] - series.instants[0]) \
        if len(series.instants) > 1 else 1.0
    segment = min(args.segment, fractions.shape[1])
    ps = welch_psd(fractions, dt_m, segment_len=segment)
    ps.write_csv(args.out / "psd.csv", [p.name for p in selected])
    (args.out / "ranking.json").write_text(ranking_to_json(ranking) + "\n")
    print(f"wrote {args.out / 'psd.csv'} and {args.out / 'ranking.json'}")
    return 0


def _cmd_bench(args) -> int:
    netlist = load_netlist(args.netlist)
    qoi = Qoi(_qoi_weights(netlist, args))
    records, _ = run_bench(netlist, args.tm, qoi, args.N,
                           workers=args.workers, repetitions=args.repetitions,
                           stride=args.stride, tol=args.tol, scheme=args.scheme)
    args.out.mkdir(parents=True, exist_ok=True)
    write_bench_table(records, args.out)
    header = f"{'N':>4} {'fine(s)':>10} {'coarse(s)':>10} {'total(s)':>10} " \
             f"{'speedup':>8} {'eff':>6} {'iters':>5}"
    print(f"sequential solution: {records[0].sequential_wall_s:.4g} s")
    print(header)
    for r in records:
        print(f"{r.n_subintervals:>4} {r.fine_time_s:>10.4g} "
              f"{r.coarse_time_s:>10.4g} {r.total_wall_s:>10.4g} "
              f"{r.speedup:>8.3f} {r.efficiency:>6.3f} {r.iterations:>5}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sens": _cmd_sens,
    "spectrum": _cmd_spectrum,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (NetlistError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
