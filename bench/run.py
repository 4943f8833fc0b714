"""Benchmark of ctident: runs one workload and prints its metrics.

    python3 bench/run.py --workload rg_prbs_long --seed 1 --seconds 18 --trace 0

Run it from the root of a checkout.  The workloads and metrics are declared
in ``BENCHMARK.json`` and explained in ``bench/NOTES.md``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from a traced run.
The two lines before it record the environment and the run's details.

The exit code is 0 when the program's outputs passed every check, 1 when
some check failed, and 2 when the benchmark could not run at all, for
instance in a directory without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One BLAS/OpenMP thread for the program.  With OpenBLAS's default of one
# thread per core, the studies ran 2.2-2.8 times slower on a two-core
# machine and too erratically to gate on; see NOTES.md.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2  # set-ups in fresh processes, besides the workload process's own
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def run_child(argv, deadline: float) -> dict:
    """Run ``work.py`` with ``argv``; return the JSON object on its last output line."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "work.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("workload process failed (exit %d):\n%s"
                         % (proc.returncode, proc.stderr[-3000:]))
    return json.loads(lines[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ctident" / "__init__.py").is_file():
        print("error: %s holds no src/ctident to benchmark" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]} or args.seed < 0:
        print("error: unknown workload %r or negative seed" % args.workload, file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # inherited by every process started below

    work = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [] if args.trace else [
            run_child(work + ["--seconds", "0", "--setup-only"], deadline)
            for _ in range(SETUP_PROBES)]
        result = run_child(work + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
                           + ["--quick"] * args.quick, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    metrics = result["metrics"]
    setups = [p["setup_s"] for p in probes] + [result["setup_s"]]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    problems = list(result["problems"])
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("metrics %s do not match BENCHMARK.json"
                        % sorted(set(metrics) ^ {m["name"] for m in declared}))
    if not all(math.isfinite(v) for v in metrics.values()):
        problems.append("non-finite metric values")
    correct = result["correct"] and not problems

    print(json.dumps({"environment": dict(result["environment"], commit=commit())}))
    print(json.dumps({"details": dict(
        result["details"], setup_s_samples=setups,
        setup_raw_s_samples=[p["setup_raw_s"] for p in probes] + [result["setup_raw_s"]]),
                      "problems": problems}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in declared
                    if m["name"] in metrics and math.isfinite(metrics[m["name"]])},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
