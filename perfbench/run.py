#!/usr/bin/env python3
"""pintsens benchmark: the sens/spectrum pipeline, end to end and per layer.

Run one workload:

    python3 perfbench/run.py --workload b6_spectrum --seed 1 --seconds 30 --trace 0

or every workload in turn, each in its own process, untraced then traced:

    python3 perfbench/run.py --seed 1 --seconds 30

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Everything a
run writes goes under ``.perfbench/`` in the checkout.  See README.md here.
"""

from __future__ import annotations

import argparse
import ctypes
import fcntl
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

# Each op runs at most 2 worker threads; one BLAS thread each keeps a run
# within 2 cores.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}

MIN_OPS = 2              # timed ops per untraced run, whatever --seconds says
MIN_TRACED_OPS = 2       # traced ops per traced run, besides the untraced ones
SETUP_REPS = (3, 0.1)    # set-up-only repetitions before each later op, for
                         # setup_s: at least 3, and more while under 0.1 s
UNATTRIBUTED_MAX = 0.05  # largest share of a traced op outside every layer span

# Each reported value is the median of the run's samples.
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "fwd_steps_per_s": "1/s",
    "instants_per_s": "1/s",
    "peak_mem_mb": "MB",
}

PER_LAYER = {
    "netlist.parse_s": "s",
    "mna.assemble_s": "s",
    "mna.eval_nonlinear_calls": "count",
    "mna.eval_nonlinear_us": "us",
    "mna.conductance_at_calls": "count",
    "mna.self_s": "s",
    "transient.dc_op_s": "s",
    "transient.step_us": "us",
    "transient.newton_iters_per_step": "1",
    "transient.factor_calls": "count",
    "transient.self_s": "s",
    "adjoint.sweep_s_per_instant": "s",
    "adjoint.factor_calls": "count",
    "adjoint.solve_calls": "count",
    "adjoint.solves_per_factor": "1",
    "adjoint.quadrature_s": "s",
    "adjoint.n_adjoint_solves": "count",
    "adjoint.self_s": "s",
    "parareal.iterations": "count",
    "parareal.coarse_s": "s",
    "parareal.fine_s": "s",
    "parareal.serial_frac": "1",
    "parareal.worker_util": "1",
    "parareal.speedup": "x",
    "propagators.fine_evolve_calls": "count",
    "propagators.coarse_evolve_calls": "count",
    "propagators.factor_calls": "count",
    "propagators.self_s": "s",
    "spectral.self_s": "s",
    "linalg.dense_s": "s",
    "linalg.sparse_s": "s",
    "trace.spans": "count",
    "trace.unattributed_frac": "1",
    "trace.overhead_frac": "1",
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values, unit):
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pintsens").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _stamp(args, sizes, checks):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "sizes": sizes, "checks": checks,
    }


def _print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:32s} median {m['value']:>12.6g} {m['unit']:5s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")


# -- one workload ------------------------------------------------------------

def _release_memory():
    """Start each op from a clean heap, as a fresh CLI process would: collect
    cycles and hand freed heap pages back to the OS.  Without this, glibc
    fragmentation left by earlier ops raises the resident high-water mark
    by an amount that varies from run to run."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):       # not glibc
        pass


class _Run:
    """Op loop state shared by the untraced and traced modes."""

    def __init__(self, w, seed, text, out_dir):
        import workloads
        self.wl = workloads
        self.w = w
        self.seed = seed
        self.text = text
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def op(self, tracer=None, op_id=0):
        """Run one op and gate it; returns the OpResult, or None if it
        raised or failed its check."""
        _release_memory()
        self.attempted += 1
        try:
            if tracer is None:
                op = self.wl.run_op(self.w, self.text, self.out_dir)
            else:
                tracer.install()
                try:
                    with tracer.op(op_id):
                        op = self.wl.run_op(self.w, self.text, self.out_dir)
                finally:
                    tracer.remove()
        except Exception as exc:   # a failed op is counted, the run goes on
            self.failed += 1
            self.problems.append(f"op {self.attempted} raised "
                                 f"{type(exc).__name__}: {exc}")
            return None
        files = self.wl.read_files(self.out_dir, op)
        first = self.reference is None
        if first:
            self.reference = files
        problems = self.wl.op_problems(self.w, op, files, self.reference)
        if problems:
            self.failed += 1
            self.problems += [f"op {self.attempted}: {p}" for p in problems]
            return None
        if not first:           # only the first op's objects feed the oracles
            op.netlist = op.series = None
            op.context = ()
        return op


class _Clock:
    """The run's time budget, shared by the first op, the oracles and every
    later op.  An op starts only when the longest of the last two op cycles
    still fits before the deadline, so a run's wall time stays near
    `seconds` (plus start-up, and the minimum op count if it is not met)."""

    def __init__(self, seconds):
        self.deadline = time.perf_counter() + seconds
        self.cycles = []
        self._tic = None

    def start(self):
        self._tic = time.perf_counter()

    def stop(self):
        self.cycles.append(time.perf_counter() - self._tic)

    def fits(self):
        return time.perf_counter() + max(self.cycles[-2:]) <= self.deadline


def run_workload(args):
    import workloads as wl
    w = wl.WORKLOADS[args.workload]
    text = wl.netlist_text(w, args.seed)
    run = _Run(w, args.seed, text, STATE / "out" / w.name)

    clock = _Clock(args.seconds)
    # the first op is timed like the others; its result bytes are the
    # reference and its objects feed the oracles, which run untimed next
    clock.start()
    with wl.capture_parareal([]) as parareal_solves:
        first = run.op()
    clock.stop()
    if first is None:
        return run, {}, _stamp(args, {}, {}), {}
    oracle, measured = wl.run_problems(w, first, parareal_solves)
    if oracle:
        run.failed += 1
        run.problems += oracle
    stamp = _stamp(args, wl.sizes(w, first), measured)
    first.netlist = first.series = None
    first.context = ()
    parareal_solves.clear()

    if args.trace:
        metrics, shares = _traced_loop(run, first, clock)
    else:
        metrics, shares = _untraced_loop(run, first, clock), {}
    return run, metrics, stamp, shares


def _untraced_loop(run, first, clock):
    import workloads as wl
    setups, ops = [], [first]
    min_reps, budget_s = SETUP_REPS
    while (clock.fits() or len(ops) < MIN_OPS) \
            and run.attempted < 4 * MIN_OPS + len(ops):
        clock.start()
        reps = []
        while len(reps) < min_reps or sum(reps) < budget_s:
            tic = time.perf_counter()
            wl.setup(run.text)
            reps.append(time.perf_counter() - tic)
        setups += reps
        op = run.op()
        clock.stop()
        if op is not None:
            ops.append(op)
    setups += [op.setup_s for op in ops]
    values = {
        "pipeline_s": [op.pipeline_s for op in ops],
        "setup_s": setups,
        "fwd_steps_per_s": [op.steps / op.integrate_s for op in ops],
        "instants_per_s": [op.instants / op.sensitivity_s for op in ops],
        "peak_mem_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    metrics = {name: _summary(values[name], unit)
               for name, unit in END_TO_END.items()}
    if run.w.parareal:     # printed and stored, not an end-to-end metric
        metrics["parareal_speedup"] = _summary(
            [op.sequential_s / op.sensitivity_s for op in ops], "x")
    return metrics


def _traced_loop(run, first, clock):
    from tracing import COUNT_METRICS, Tracer, op_layer_metrics
    tracer = Tracer()
    plain, traced = [first], []
    # traced and untraced ops alternate after the first, untraced, op
    while (clock.fits() or len(traced) < MIN_TRACED_OPS) \
            and run.attempted < 4 * MIN_TRACED_OPS + len(plain) + len(traced):
        clock.start()
        if len(traced) < len(plain):
            op_id = len(traced) + 1
            op = run.op(tracer, op_id)
            if op is not None:
                spans = [s for s in tracer.spans if s.op == op_id]
                traced.append((op, op_layer_metrics(spans, op, run.w.workers)))
        else:
            op = run.op()
            if op is not None:
                plain.append(op)
        clock.stop()
    if not traced:
        return {}, {}

    tracer.write_csv(STATE / f"trace-{run.w.name}-seed{run.seed}.csv")

    layer_runs = [m for _, m in traced]
    for m in layer_runs:
        if abs(m["_self_sum_s"] - m["_pipeline_s"]) > 1e-6 * m["_pipeline_s"]:
            run.problems.append("layer self times do not sum to the traced op")
        if m["trace.unattributed_frac"] > UNATTRIBUTED_MAX:
            run.problems.append(f"{m['trace.unattributed_frac']:.3f} of a traced "
                                f"op lies outside every layer span")
    for name in COUNT_METRICS:
        seen = {m[name] for m in layer_runs}
        if len(seen) > 1:
            run.problems.append(f"{name} differs between traced ops: {sorted(seen)}")

    values = {name: [m[name] for m in layer_runs]
              for name in PER_LAYER if name in layer_runs[0]}
    untraced_pipeline = statistics.median(op.pipeline_s for op in plain)
    values["trace.overhead_frac"] = [op.pipeline_s / untraced_pipeline - 1.0
                                     for op, _ in traced]
    values["parareal.speedup"] = [op.sequential_s / op.sensitivity_s
                                  if run.w.parareal else 0.0 for op in plain]
    metrics = {name: _summary(values[name], unit) for name, unit in PER_LAYER.items()}
    for name in COUNT_METRICS:     # identical in every traced op, checked above
        metrics[name]["value"] = layer_runs[0][name]
    shares = {layer: statistics.median(m["_shares"][layer] for m in layer_runs)
              for layer in layer_runs[0]["_shares"]}
    return metrics, shares


def main_workload(args):
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    lock = open(STATE / "lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("another benchmark run holds .perfbench/lock; refusing to start",
              file=sys.stderr)
        return 3
    load_start = os.getloadavg()[0]
    try:
        run, metrics, stamp, shares = run_workload(args)
    finally:
        lock.close()
    stamp["loadavg_1m_start"] = load_start
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key in ("git_commit", "python", "numpy", "scipy", "blas", "blas_env",
                "nproc", "loadavg_1m_start", "loadavg_1m_end", "sizes", "checks"):
        print(f"  {key}: {stamp[key]}")
    _print_metrics(metrics)
    if shares:
        print("  layer self-time shares of the traced op: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"  error_rate {run.failed / run.attempted:.4g} "
          f"({run.failed} of {run.attempted} ops)")
    for p in run.problems:
        print(f"  problem: {p}")

    names = PER_LAYER if args.trace else END_TO_END
    complete = all(n in metrics for n in names)
    record = {
        "correct": not run.problems and complete,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names if n in metrics},
    }
    (STATE / "results").mkdir(exist_ok=True)
    (STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"stamp": stamp, "metrics": metrics, "shares": shares,
                                "problems": run.problems, **{k: record[k] for k in
                                ("correct", "attempted", "failed")}}, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if complete else 1


# -- every workload ----------------------------------------------------------

def main_suite(args):
    import workloads
    status = 0
    table = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            table.append((name, trace, result))
    print("\nworkload             metric                              value  unit")
    for name, trace, result in table:
        for metric, m in result["metrics"].items():
            print(f"{name:20s} {metric:34s} {m['value']:>12.6g}  {m['unit']}")
        print(f"{name:20s} {'error_rate (trace %d)' % trace:34s} "
              f"{result['failed'] / result['attempted']:>12.6g}  1")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=None,
                   help="one workload; omit to run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pintsens" / "__init__.py").is_file():
        print(f"pintsens sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)          # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    if args.workload is None:
        return main_suite(args)
    return main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
