"""Run one avscene benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tiny_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics. Each metric is printed as
``name value unit``, followed by the figures that are not gated, and the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Without ``--workload`` every workload runs, each in its own
process. The exit code is 0 when the run produced a result, 1 when no
operation succeeded, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# One BLAS thread: the run is one caller on one core. On a small shared
# machine a second BLAS thread waits on whatever else holds the other core,
# which made step times swing by a factor of two from run to run.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="all of them if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: list, out) -> dict:
    """The gated metrics of BENCHMARK.json, as name -> (value, unit).

    Throughput is gated, not a step-time percentile: on a shared host,
    contention slows every step for tens of seconds at a time, and a run's
    median or quartile step jumps with the share of the run that was slow,
    while work done per second of timed work moves in proportion to it.
    """
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "samples_per_s": (out.samples / out.busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def ungated(out) -> dict:
    """Figures printed for reading but not gated: see perfbench/README.md."""
    notes = dict(out.notes)
    notes["error_rate"] = (out.failed / out.attempted, "fraction")
    if out.step_s:
        notes["step_ms_p50"] = (1000.0 * statistics.median(out.step_s), "ms")
        notes["steps"] = (len(out.step_s), "count")
    if len(out.step_s) >= 10:
        notes["step_ms_p10"] = (1000.0 * _percentile(out.step_s, 10), "ms")
    if len(out.step_s) >= 100:
        notes["step_ms_p90"] = (1000.0 * _percentile(out.step_s, 90), "ms")
    return notes


def run_one(args) -> int:
    from perfbench.workloads import make_workload

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = make_workload(args.workload, args.seed, workdir)
        setup_s = []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if args.trace:
            out, metrics = workload.measure_traced(args.seconds)
        else:
            out = workload.measure(args.seconds)
            metrics = end_to_end(setup_s, out) if out.step_s else {}
    for message in out.errors:
        print(f"failed operation: {message}", file=sys.stderr)
    for what in out.failed_checks:
        print(f"failed check: {what}", file=sys.stderr)
    if not metrics:
        print(f"{args.workload}: no operation succeeded", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in ungated(out).items():
        print(f"{name} {value} {unit} (not gated)")
    print(f"predictions {out.digest}")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, workloads) -> int:
    status = 0
    for name in workloads:
        command = [sys.executable, str(Path(__file__).resolve())] + [
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "avscene").is_dir():
        print(f"{ROOT}: no src/avscene to benchmark", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)  # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    args = _parse(argv, WORKLOADS)
    return run_one(args) if args.workload else run_all(args, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
