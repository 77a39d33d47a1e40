"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh interpreter whose environment pins BLAS and
OpenMP to one thread and puts the checkout's src/ on PYTHONPATH:

  python3 perfbench/worker.py --workload screen --seed 1 --seconds 20 --trace 0

One caller, one thread, closed loop: each operation starts when the previous
one has returned and been checked.  The c-i cache is cleared before every
operation, so each one sees the cold cache a fresh process has.

--trace 0 runs whole units of operations until --seconds have passed and
reports end-to-end figures.  --trace 1 runs a fixed number of units (set by
--seconds and the workload, so call counts repeat exactly) twice each, once
plain and once traced, alternating which goes first, and reports per-layer
figures from the traced pass plus the traced/plain time ratio.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

import vcoupler  # noqa: E402

if Path(vcoupler.__file__).resolve().parent != ROOT / "src" / "vcoupler":
    sys.exit(f"vcoupler imported from {vcoupler.__file__}, not from {ROOT / 'src'}")

from vcoupler.passivity import _c_i_cached  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (span name, figures) reported by the traced run, in output order
SPAN_METRICS = (
    ("model.derive_coefficients", ("calls", "s")),
    ("model.hybrid_matrix", ("calls", "s")),
    ("poly.cubic_nonneg_closed_form", ("calls", "s")),
    ("passivity.k22_upper_bound", ("calls", "s")),
    ("optimize.maximize_k22", ("calls", "self_s")),
    ("optimize.maximize_k22_over_alpha", ("calls", "self_s")),
    ("passivity.check_condition_a", ("calls", "s")),
    ("passivity.check_condition_b", ("calls", "s")),
    ("passivity.check_condition_c_i", ("calls", "s")),
    ("passivity.check_condition_c_ii", ("calls", "s")),
    ("passivity.check_two_port_passivity", ("self_s",)),
    ("passivity.check_absolute_stability", ("self_s",)),
    ("poly.is_nonnegative_on", ("calls", "s")),
    ("poly.sturm_sequence", ("calls", "s")),
    ("stability.real_part_even_polynomial", ("calls", "s")),
    ("stability.analyze_denominator", ("calls", "s")),
    ("stability.positive_real", ("calls", "self_s")),
    ("stability.RationalFunction.reduced", ("calls", "s")),
    ("perf.transmitted_impedance", ("calls", "s")),
    ("passivity.two_port_grid_margins", ("calls", "s")),
    ("passivity.llewellyn_grid_margins", ("calls", "s")),
    ("perf.frequency_response", ("calls", "s")),
    ("cli.main", ("calls", "self_s")),
)
FIGURE_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# name -> (unit, better) of every per-layer metric
PER_LAYER = {
    f"{span}.{fig}": (FIGURE_UNITS[fig], "lower")
    for span, figs in SPAN_METRICS for fig in figs
}
PER_LAYER.update({
    "model.coeff_bits_max": ("bits", "lower"),
    "optimize.evaluations": ("count", "lower"),
    "passivity.c_i_cache_hit_ratio": ("ratio", "higher"),
    "trace_overhead_ratio": ("ratio", "lower"),
})


def run_op(workload, index: int, tracer=None):
    """(seconds, output or None, error or None, c-i cache hits, misses).

    A tracer, when given, is installed for the op only, not for its check.
    """
    _c_i_cached.cache_clear()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out, error = workload.run(workload.ops[index]), None
    except Exception as exc:  # an op that raises is a failed op
        out, error = None, f"op {index} raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    info = _c_i_cached.cache_info()
    if error is None:
        error = workload.check(index, out)
    return elapsed, out, error, info.hits, info.misses


class Tally:
    """Outputs, failures and cache counts of the ops a pass ran."""

    def __init__(self) -> None:
        self.seconds = []
        self.done = []  # (pool index, output) of ops that succeeded
        self.errors = []
        self.hits = self.misses = 0

    def add(self, index, rec) -> None:
        elapsed, out, error, hits, misses = rec
        self.seconds.append(elapsed)
        self.hits += hits
        self.misses += misses
        if error is None:
            self.done.append((index, out))
        else:
            self.errors.append(error)

    def hit_ratio(self) -> float:
        return self.hits / max(self.hits + self.misses, 1)


def sliced_rate(lat: list, unit: int, slices: int = 10) -> float:
    """Ops per busy second, the median over up to `slices` equal runs of whole units.

    A median over slices keeps a stall of the machine in one part of the run
    from moving the figure, as a plain total would.
    """
    size = unit * max(1, len(lat) // unit // slices)
    return statistics.median(
        size / sum(lat[i:i + size]) for i in range(0, len(lat) - size + 1, size)
    )


def measure(workload, seconds: float) -> dict:
    tally = Tally()
    n = len(workload.ops)
    i = 0
    start = time.perf_counter()
    while i == 0 or time.perf_counter() - start < seconds:
        for _ in range(workload.unit):
            tally.add(i % n, run_op(workload, i % n))
            i += 1
    lat = tally.seconds
    metrics = {
        "ops_per_s": (sliced_rate(lat, workload.unit), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(lat, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return _result(workload, (tally,), metrics, tally)


def measure_traced(workload, seconds: float) -> dict:
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    n = len(workload.ops)
    units = max(1, round(seconds * workload.trace_units_per_s))
    for i in range(units * workload.unit):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            rec = run_op(workload, i % n, tracer if with_trace else None)
            (traced if with_trace else plain).add(i % n, rec)

    metrics = {}
    for span, figs in SPAN_METRICS:
        calls, incl, self_s = tracer.spans[span]
        values = {"calls": calls, "s": incl, "self_s": self_s}
        for fig in figs:
            metrics[f"{span}.{fig}"] = values[fig]
    metrics["model.coeff_bits_max"] = tracer.coeff_bits_max
    metrics["optimize.evaluations"] = tracer.evaluations
    metrics["passivity.c_i_cache_hit_ratio"] = traced.hit_ratio()
    metrics["trace_overhead_ratio"] = sum(traced.seconds) / sum(plain.seconds)
    metrics = {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()}
    return _result(workload, (plain, traced), metrics, traced)


def _result(workload, tallies, metrics, props_from) -> dict:
    """Worker output: counts over all tallies, input properties of one."""
    errors = [e for t in tallies for e in t.errors]
    properties = workload.properties(props_from.done)
    properties["passivity.c_i_cache_hit_ratio"] = props_from.hit_ratio()
    return {
        "attempted": sum(len(t.seconds) for t in tallies),
        "failed": len(errors),
        "errors": errors[:5],
        "properties": properties,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = measure_traced(workload, args.seconds)
    else:
        result = measure(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
