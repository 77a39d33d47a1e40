"""vcoupler benchmark: one seeded workload, end-to-end or per-layer figures.

  python3 perfbench/run.py --workload {design,screen,render,cli} \\
      --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has src/vcoupler.  The workload
runs in a fresh child interpreter (worker.py) with BLAS/OpenMP pinned to one
thread.  Set-up time is measured apart from it: several fresh interpreters
each import vcoupler.cli, and setup_s is the median time from starting one
until its import returns.

Human-readable lines come first (each metric with its unit, the error rate
and the input properties of the run); the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.  Exits 1
without that line when the workload cannot run or overruns its time limit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
# every run must end within this many seconds of its start
RUN_LIMIT_S = 175.0

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> float:
    """Median time from starting a fresh interpreter until it has imported vcoupler.cli.

    The child reads the wall clock as soon as the import returns, so its
    exit and this process's wake-up are not counted.  One unmeasured start
    comes first, so every measured start finds the compiled bytecode a
    user's installed copy would have.
    """
    cmd = [sys.executable, "-c", "import vcoupler.cli, time; print(time.time())"]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.time()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                              stdout=subprocess.PIPE, text=True)
        if i:
            times.append(float(proc.stdout) - start)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description="vcoupler benchmark (one workload)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "vcoupler" / "__init__.py").is_file():
        print(f"error: no vcoupler package under {SRC}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    env = child_env()
    try:
        setup_s = None if args.trace else measure_setup(env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started),
        )
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if setup_s is not None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':44s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for error in result["errors"]:
        print(f"  failed: {error}")
    print("properties: " + json.dumps(result["properties"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
