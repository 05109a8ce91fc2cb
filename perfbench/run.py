"""Benchmark entry point: measure one workload of feedback_kmeans.

Run from the repository root:

    python3 perfbench/run.py --workload desk_grid --seed 7 --seconds 10 --trace 0

The workload runs in a fresh child interpreter (``measure.py``) with every
BLAS/OpenMP thread variable set to 1 and FEEDBACK_KMEANS_THREADS unset, so
it runs serially, against the package source in ``src/`` of this checkout.
Output: the machine, a table of every metric with its unit and sample
count, the failed operations, and as the last line one JSON object with
the keys correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "feedback_kmeans"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A run must end within 180 s; leave room to kill and reap the child.
CHILD_TIMEOUT_S = 170


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FEEDBACK_KMEANS_THREADS", None)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="desk_grid, deep_refine or small_grid")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # subprocess.run kills and reaps the child on any exception, so turning
    # SIGTERM into SystemExit stops the child along with this process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        child = subprocess.run(
            command, env=child_environment(), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: measuring {args.workload} failed (exit {child.returncode})", file=sys.stderr)
        return 1
    outcome = json.loads(lines[-1])
    if not Path(outcome["machine"]["package"]).resolve().is_relative_to(PACKAGE):
        print(f"error: measured {outcome['machine']['package']}, not {PACKAGE}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(outcome["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome['attempted']} operations attempted, {outcome['failed']} failed")
    print(f"{'metric':<42}{'value':>16}  {'unit':<9}{'samples':>8}")
    for name, metric in outcome["metrics"].items():
        print(f"{name:<42}{metric['value']:>16.6g}  {metric['unit']:<9}{metric['samples']:>8}")
    print("measured seconds and other figures: " + json.dumps(outcome["measured"], sort_keys=True))
    for failure in outcome["failures"]:
        print(f"failed: {failure}")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
