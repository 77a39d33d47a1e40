"""Steadiness report: median and quartiles of each metric over repeated runs.

  python3 perfbench/steadiness.py [--workloads design screen ...] \\
      [--runs 10] [--first-seed 1] [--seconds 20] [--trace 0] \\
      [--save runs.json] [--against earlier.json]

Runs run.py once per seed (seeds first-seed, first-seed+1, ...) for each
workload, one run at a time, and prints for every metric the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median.  With BENCHMARK.json present, each end-to-end spread
but that of setup_s is marked "ok" below a third of its bound, "within
bound" below the bound and "WIDE" above it; --against compares these
medians with those of an earlier --save file and flags a median worse than
the earlier one by more than the bound.  Exits 1 on any WIDE or flagged
figure.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("design", "screen", "render", "cli")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def summary(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write every run's result to this JSON file")
    ap.add_argument("--against", help="compare medians with an earlier --save file")
    args = ap.parse_args()

    spec = bounds()
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    saved = {}
    steady = True
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(w, seed, args.seconds, args.trace))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()
            ), flush=True)
        saved[w] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {w}: {len(runs)} runs, error_rate {failed / attempted:.3g} "
              f"({failed} of {attempted} ops)")
        print(f"   {'metric':44s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(values)
            line = f"   {name:44s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {m['unit']}"
            if name in spec:
                bound = spec[name]["bound"]
                if name == "setup_s" or spread <= bound / 3:
                    label = "ok"
                else:
                    label = "within bound" if spread <= bound else "WIDE"
                    steady &= spread <= bound
                line += f"  bound {bound:g} {label}"
                if w in earlier:
                    before = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                    change = (med - before) / before
                    if spec[name]["better"] == "higher":
                        change = -change
                    line += f"  worse by {change:+.3f} vs earlier"
                    steady &= change <= bound
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
