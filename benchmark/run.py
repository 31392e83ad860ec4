#!/usr/bin/env python3
"""ikdamp benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload helix3 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ikdamp from src/. Ops run
back to back from one caller, each after the previous one returned, the
way a controller calls IK. Every line of standard output before the last
is for people; the last is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics; with --trace 1 they are the per-module metrics of a
separate traced run. A full record of each run, with the environment it
ran in, goes to benchmark/results/runs/. The exit code is 1 when an
output check failed and 2 when the checkout has no ikdamp to run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUNS_DIR = BENCH_DIR / "results" / "runs"
WORKLOADS = ("helix3", "lspb6", "batch6", "sweep3")
# One BLAS thread, so the numbers measure the library and not how the
# scheduler of a small shared machine places BLAS threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# setup_s is the median of this many cold starts.
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "iters_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-call self time of these spans, and how often an op calls them.
CALLED = ("kinematics.jacobian", "kinematics.forward_pose", "kinematics.forward",
          "mfac.mfac_step", "damping.cond", "mfapc.build_psi")
# Per-call self time only.
TIMED = ("mfac.task_error", "damping.next_lambda", "mfapc.solve_ik_predictive",
         "mfapc.receding_horizon_track", "analysis.mfac_pole_matrix",
         "analysis.static_error_gain", "analysis.mfapc_pole_matrix",
         "analysis.simulate_linear_closed_loop", "trajectory.horizon_window",
         "trajectory.generate")
# Share of op time spent in the spans of each module.
MODULES = ("kinematics", "mfac", "damping", "mfapc", "analysis")

PER_LAYER = {
    **{f"{name}.self_us": "us" for name in CALLED + TIMED},
    **{f"{name}.calls_per_op": "count" for name in CALLED},
    **{f"{module}.share": "fraction" for module in MODULES},
    "mfac.mfac_step.dim": "columns",
    "mfac.solve_ik.iterations_per_op": "count",
    "mfac.solve_ik.converged_ratio": "fraction",
    "mfapc.solve_ik_predictive.iterations_per_op": "count",
    "cli.write_track_csv.self_ms": "ms",
    "cli.write_track_csv.bytes": "bytes",
    "cli.parse.self_ms": "ms",
    "setup.import_s": "s",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
    "err_max": "norm",
    "settling_step": "step",
}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy.quantile computes it by default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The quantile op_p90_ms reports for a run of n ops.

    p90 from 100 ops on. A shorter run reports the highest quantile that
    still leaves ten ops above it, and never less than the median.
    """
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


class Phase:
    """Latencies and check outcomes of ops run one after another."""

    def __init__(self):
        self.latencies = []
        self.outcomes = []
        self.reference = []   # reference-kernel times taken between the ops

    def add(self, latency: float, outcome) -> None:
        self.latencies.append(latency)
        self.outcomes.append(outcome)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def end_to_end(self, setup_s: float, scale: float) -> dict:
        """End-to-end metrics with every time multiplied by `scale`."""
        op_s = scale * sum(self.latencies)
        n = len(self.latencies)
        return {
            "setup_s": setup_s,
            "ops_per_s": n / op_s,
            "iters_per_s": sum(o.iterations for o in self.outcomes) / op_s,
            "op_p50_ms": 1e3 * scale * quantile(self.latencies, 0.5),
            "op_p90_ms": 1e3 * scale * quantile(self.latencies, tail_quantile(n)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def quality(self) -> dict:
        done = [o for o in self.outcomes if not o.failed]
        settle = [o.settling_step for o in self.outcomes if o.settling_step]
        return {
            "failed_frac": (len(self.outcomes) - len(done)) / len(self.outcomes),
            "err_max": max((o.err for o in done), default=0.0),
            "settling_step": max(settle, default=0),
        }


def run_ops(workload, seconds: float, reference, tracer=None):
    """Run ops back to back for `seconds`; return the untraced and traced phases.

    The reference kernel runs once before each untraced op. With a
    tracer, each input then runs a second time, traced, right after its
    untraced run, so a change in the host's speed hits both alike.
    """
    plain, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inp = workload.input(i)
        plain.reference.append(reference())
        t0 = time.perf_counter()
        out = workload.op(inp)
        t1 = time.perf_counter()
        plain.add(t1 - t0, workload.check(inp, out))
        if tracer is not None:
            with tracer.patched():
                t0 = time.perf_counter()
                with tracer.span("op"):
                    out = workload.op(inp)
                t1 = time.perf_counter()
            traced.add(t1 - t0, workload.check(inp, out))
        i += 1
        if t1 >= deadline:
            return plain, traced


def per_layer(table: dict, counters: dict) -> dict:
    """Per-module metrics from a traced phase. Spans an op never opens read 0."""
    n_ops, _, op_s = table["op"]

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_per_call(name, scale):
        n, self_s, _ = table.get(name, (0, 0.0, 0.0))
        return scale * self_s / n if n else 0.0

    def per_call(counter, name):
        return counters.get(counter, 0.0) / calls(name) if calls(name) else 0.0

    metrics = {f"{name}.self_us": self_per_call(name, 1e6) for name in CALLED + TIMED}
    metrics.update({f"{name}.calls_per_op": calls(name) / n_ops for name in CALLED})
    metrics.update({
        f"{module}.share": sum(s for name, (_, s, _) in table.items()
                               if name.startswith(module + ".")) / op_s
        for module in MODULES
    })
    metrics.update({
        "mfac.mfac_step.dim": per_call("mfac.mfac_step.dim", "mfac.mfac_step"),
        "mfac.solve_ik.iterations_per_op":
            counters.get("mfac.solve_ik.iterations", 0.0) / n_ops,
        "mfac.solve_ik.converged_ratio": per_call("mfac.solve_ik.converged", "mfac.solve_ik"),
        "mfapc.solve_ik_predictive.iterations_per_op":
            counters.get("mfapc.solve_ik_predictive.iterations", 0.0) / n_ops,
        "cli.write_track_csv.self_ms": self_per_call("cli.write_track_csv", 1e3),
        "cli.write_track_csv.bytes": per_call("cli.write_track_csv.bytes", "cli.write_track_csv"),
        # per op: the five config-parsing functions one track run calls
        "cli.parse.self_ms": 1e3 * table.get("cli.parse", (0, 0.0, 0.0))[1] / n_ops,
    })
    return metrics


def setup_probes(workload: str, seed: int, reference) -> list:
    """Cold starts: a fresh interpreter imports ikdamp, builds the workload, runs one op.

    Each is timed from the spawn to the line the probe prints after its
    op, so interpreter start-up counts and tear-down does not. The
    reference kernel runs just before each probe.
    """
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        ref = statistics.median(reference() for _ in range(5))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        probes.append({"setup_s": wall, "reference_s": ref, **json.loads(line)})
    return probes


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    src = ROOT / "src" / "ikdamp"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": git_commit(),
        # design size, recorded next to the speed numbers; not a metric
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one ikdamp benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ikdamp" / "__init__.py").is_file():
        print(f"error: no ikdamp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Before numpy loads: BLAS reads its thread count once, at load time.
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import speed
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    probes = setup_probes(args.workload, args.seed, speed.reference_seconds)
    workload = workloads.make(args.workload, args.seed, ROOT, OUT_DIR)
    warm_up = workload.input(0)
    workload.check(warm_up, workload.op(warm_up))

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "probes": probes}
    tracer = spans.Tracer() if args.trace else None
    plain, traced = run_ops(workload, args.seconds, speed.reference_seconds, tracer)
    phases = [plain, traced]
    if tracer:
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        table = tracer.table()
        metrics = per_layer(table, tracer.counters)
        metrics.update(plain.quality())
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
        units = PER_LAYER
        record["spans"] = {name: {"calls": c, "self_s": s, "total_s": t}
                           for name, (c, s, t) in table.items()}
        print_table(table)
    else:
        # Times in units of the reference kernel; see speed.py.
        setup_s = statistics.median(p["setup_s"] * speed.REFERENCE_S / p["reference_s"]
                                    for p in probes)
        scale = speed.REFERENCE_S / statistics.median(plain.reference)
        metrics = plain.end_to_end(setup_s, scale)
        record["wall_clock"] = plain.end_to_end(
            statistics.median(p["setup_s"] for p in probes), 1.0)
        record["quality"] = plain.quality()
        units = END_TO_END
        n = len(plain.latencies)
        print(f"{n} ops timed; op_p90_ms is the p{100 * tail_quantile(n):.0f} of {n} ops")
        ref_ms = 1e3 * statistics.median(plain.reference)
        print(f"host speed: the reference kernel took {ref_ms:.3f} ms")
        for name, value in record["wall_clock"].items():
            print(f"wall-clock {name:<34} {value:.6g} {END_TO_END[name]}")
        for name, value in record["quality"].items():
            print(f"{name:<45} {value:.6g}")

    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(not o.ok for p in phases for o in p.outcomes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    run_file = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_file.write_text(json.dumps(record, indent=1) + "\n")
    print(f"environment {json.dumps(record['environment'])}")
    for name, unit in units.items():
        print(f"{name:<45} {metrics[name]:.6g} {unit}")
    if failed:
        print(f"{failed} of {attempted} ops failed their output check", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def print_table(table: dict) -> None:
    """Every span name: calls per op, self time per call, share of op time."""
    n_ops, op_self, op_s = table["op"]
    print(f"traced ops: {n_ops}, {1e3 * op_s / n_ops:.3f} ms per op")
    print(f"{'span':<40} {'calls/op':>10} {'self us/call':>13} {'share':>7}")
    rows = sorted(((s, name, c) for name, (c, s, _) in table.items() if name != "op"),
                  reverse=True)
    for self_s, name, calls in rows:
        print(f"{name:<40} {calls / n_ops:>10.2f} {1e6 * self_s / calls:>13.2f} "
              f"{self_s / op_s:>7.1%}")
    print(f"{'(op, outside every span)':<40} {'':>10} {'':>13} {op_self / op_s:>7.1%}")


if __name__ == "__main__":
    sys.exit(main())
