"""Print the ROADMAP "Baseline" rows, measured again from traced calls.

  python3 perfbench/baseline.py [--repeats 5]

Three tables, each figure the median over --repeats:

- CLI commands on table1.json: wall time of a fresh `python -m vcoupler.cli`
  process (start-up and import included, as in the ROADMAP rows) and the
  traced cli.main span of the same command run in this process; plus the
  wall time of a fresh interpreter that only imports vcoupler.cli.
- Nominal plant and coupler, by layer: inclusive span times of the public
  checks and of the condition (c-ii) identity re-verification inside them.
- Joint optimizer profile: call counts of one traced
  maximize_k22_over_alpha on the nominal plant.  Counts of math.gcd need a
  profiler rather than spans and are not reported.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from vcoupler import cli  # noqa: E402
from vcoupler.model import hybrid_matrix, load_config  # noqa: E402
from vcoupler.optimize import maximize_k22_over_alpha  # noqa: E402
from vcoupler.passivity import (  # noqa: E402
    _c_i_cached,
    check_absolute_stability,
    check_two_port_passivity,
    k22_upper_bound,
)
from vcoupler.perf import EnvironmentModel, transmitted_impedance  # noqa: E402
from vcoupler.stability import positive_real  # noqa: E402

from run import child_env  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import CONFIG  # noqa: E402

CLI_ROWS = (
    ("check",),
    ("sweep", "--vary", "alpha", "--range", "0:1:21"),
    ("optimize",),
    ("optimize", "--over", "b22+alpha"),
    ("optimize", "--over", "b22+alpha", "--criterion", "absolute"),
)


def process_wall(argv) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=False)
    return time.perf_counter() - start


def traced(fn, targets=TARGETS) -> Tracer:
    tracer = Tracer(targets)
    _c_i_cached.cache_clear()
    with tracer:
        fn()
    return tracer


def cli_table(repeats: int) -> None:
    print("| command | fresh process | cli.main span |")
    print("|---|---|---|")
    for row in CLI_ROWS:
        argv = [row[0], "--config", str(CONFIG), *row[1:]]
        wall = statistics.median(
            process_wall(["-m", "vcoupler.cli", *argv]) for _ in range(repeats)
        )

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        span = statistics.median(
            traced(call).inclusive_s("cli.main") for _ in range(repeats)
        )
        print(f"| `{' '.join(row)}` | {wall:.3f} s | {span:.3f} s |")
    imp = statistics.median(
        process_wall(["-c", "import vcoupler.cli"]) for _ in range(repeats)
    )
    print(f"| `import vcoupler.cli` alone | {imp:.3f} s | |")


def layer_table(repeats: int) -> None:
    params, coupler = load_config(CONFIG)
    h = hybrid_matrix(params, coupler)
    env = EnvironmentModel("spring", 200.0)
    z = transmitted_impedance(h, env)
    targets = TARGETS + (("passivity", "_verify_c_ii_identity"),)
    rows = (
        ("check_two_port_passivity", lambda: check_two_port_passivity(params, coupler),
         "passivity.check_two_port_passivity"),
        ("- condition (a)", None, "passivity.check_condition_a"),
        ("- condition (b)", None, "passivity.check_condition_b"),
        ("- condition (c-i), cold", None, "passivity.check_condition_c_i"),
        ("- condition (c-ii)", None, "passivity.check_condition_c_ii"),
        ("  - identity re-verify", None, "passivity._verify_c_ii_identity"),
        ("- 2000-point grid margins", None, "passivity.two_port_grid_margins"),
        ("check_absolute_stability", lambda: check_absolute_stability(params, coupler),
         "passivity.check_absolute_stability"),
        ("k22_upper_bound(b22=0.17)", lambda: k22_upper_bound(params, 0.17),
         "passivity.k22_upper_bound"),
        ("transmitted_impedance (spring 200)", lambda: transmitted_impedance(h, env),
         "perf.transmitted_impedance"),
        ("positive_real on its result", lambda: positive_real(z),
         "stability.positive_real"),
    )
    print("| call | time |")
    print("|---|---|")
    runs = []
    for label, fn, span in rows:
        if fn is not None:
            runs = [traced(fn, targets) for _ in range(repeats)]
        ms = statistics.median(1e3 * t.inclusive_s(span) for t in runs)
        print(f"| {label} | {ms:.2f} ms |")


def optimizer_table() -> None:
    params, _ = load_config(CONFIG)
    start = time.perf_counter()
    t = traced(lambda: maximize_k22_over_alpha(params))
    wall = time.perf_counter() - start
    print(f"maximize_k22_over_alpha on the nominal plant: {wall:.2f} s traced")
    print("| span | calls |")
    print("|---|---|")
    for span in ("optimize.maximize_k22", "passivity.k22_upper_bound",
                 "poly.cubic_nonneg_closed_form", "model.derive_coefficients"):
        print(f"| {span} | {t.calls(span)} |")
    print(f"| optimizer evaluations | {t.evaluations} |")
    print(f"| max coefficient bits | {t.coeff_bits_max} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    print("## CLI end to end (table1.json)\n")
    cli_table(args.repeats)
    print("\n## Nominal plant, by layer\n")
    layer_table(args.repeats)
    print("\n## Joint optimizer profile\n")
    optimizer_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
