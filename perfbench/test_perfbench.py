"""Tests of the benchmark itself.

  PYTHONPATH=src python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vcoupler.passivity
from tracing import Tracer
from worker import PER_LAYER, measure, measure_traced, run_op
from workloads import DEFAULT_SEED, WORKLOADS, load_refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", ["screen", "cli"])
def test_an_altered_reference_counts_as_a_failed_op(name):
    w = WORKLOADS[name](DEFAULT_SEED)
    w.expected = w.expected_outputs(load_refs(name))
    assert measure(w, 1e-9)["failed"] == 0

    w.expected[0] = "altered on purpose"
    result = measure(w, 1e-9)  # one unit of ops
    assert result["attempted"] == w.unit
    assert result["failed"] == 1
    assert "op 0" in result["errors"][0]


def test_other_seeds_are_checked_by_invariants():
    w = WORKLOADS["screen"](DEFAULT_SEED + 1)
    assert not w.uses_refs
    result = measure(w, 0.2)
    assert result["attempted"] > 1 and result["failed"] == 0


def test_traced_counts_repeat_exactly_and_names_are_restored():
    originals = dict(vars(vcoupler.passivity))
    screen = WORKLOADS["screen"]
    runs = [measure_traced(screen(DEFAULT_SEED), 0.3) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items()
         if m["unit"] in ("count", "bits") or k.endswith("hit_ratio")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["passivity.check_condition_c_ii.calls"] == round(0.3 * screen.trace_units_per_s)
    assert all(r["failed"] == 0 for r in runs)
    assert dict(vars(vcoupler.passivity)) == originals


def test_spans_nest_into_self_time():
    from vcoupler.model import nominal_coupler, nominal_params

    tracer = Tracer()
    with tracer:
        vcoupler.passivity.check_two_port_passivity(nominal_params(), nominal_coupler())
    outer = tracer.spans["passivity.check_two_port_passivity"]
    inner = tracer.spans["passivity.check_condition_c_ii"]
    assert outer[0] == 1 and inner[0] == 1
    assert 0 < outer[2] < outer[1] and inner[1] < outer[1]


def test_the_output_check_is_not_traced():
    from vcoupler.model import nominal_params

    class OneCheck:
        ops = [nominal_params()]

        def run(self, params):
            return vcoupler.passivity.check_condition_a(params)

        def check(self, index, out):
            vcoupler.passivity.check_condition_a(self.ops[index])

    tracer = Tracer()
    run_op(OneCheck(), 0, tracer)
    assert tracer.calls("passivity.check_condition_a") == 1


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == PER_LAYER
    e2e = measure(WORKLOADS["screen"](DEFAULT_SEED), 1e-9)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", **{k: m["unit"] for k, m in e2e.items()}
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
