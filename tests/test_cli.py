"""Command-line interface: subcommands, exit codes, formats, error handling."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from vcoupler import cli
from vcoupler.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, main
from vcoupler.errors import ZeroPolynomial

REPO = Path(__file__).resolve().parents[1]
TABLE = str(REPO / "table1.json")


def _base_config() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


@pytest.fixture
def config_file(tmp_path):
    def write(**overrides) -> str:
        cfg = _base_config()
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_for_the_bundled_config(capsys):
    code, out, err = run(capsys, "check", "--config", TABLE)
    assert code == EXIT_PASS
    assert err == ""
    assert "overall: PASS" in out
    assert "condition_c_ii: PASS (branch ii2)" in out
    assert "coupler: k22=408 b22=0.17" in out


def test_check_reports_the_violated_coefficient(capsys, config_file):
    code, out, _ = run(capsys, "check", "--config", config_file(k22=450.0))
    assert code == EXIT_FAIL
    assert "overall: FAIL" in out
    assert "condition_c_ii: FAIL (violated: t0" in out


def test_check_json_payload(capsys):
    code, out, _ = run(capsys, "check", "--config", TABLE, "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["criterion"] == "passivity"
    assert doc["k22"] == 408.0 and doc["b22"] == 0.17
    names = [c["name"] for c in doc["conditions"]]
    assert names == ["condition_a", "condition_b", "condition_c_i", "condition_c_ii"]
    assert doc["conditions"][3]["branch"] == "ii2"
    assert all(c["passed"] for c in doc["conditions"])
    assert doc["grid_min_determinant"] == pytest.approx(1.0890927e-4, rel=1e-6)


_CHECK_HEAD = (
    "criterion: passivity\ncoupler: k22={} b22={}\n"
    "condition_a: PASS (branch quartic-margin; margin 5.91262021e+09)\n"
    "condition_b: PASS (branch no-axis-pole; vacuous: characteristic quartic has no "
    "imaginary-axis pole)\n"
    "condition_c_i: PASS (branch i1)\n"
)
# (k22, b22): violated label, then the c-ii witness, the minimum determinant
# margin and its argmin as the text and the JSON print them
_FAILING_CHECKS = {
    (500.0, 0.17): (
        "t0", "0", "-0.200479434", "0.0011324708",
        0.0, -0.20047943433242504, 0.0011324708017456473,
    ),
    (408.0, 0.0): (
        "t0", "721987.811", "-1", "0.001",
        721987.8105967906, -1.0, 0.001,
    ),
    (408.0, 0.25): (
        "t3", "1.80802588e+09", "-0.120772688", "5667.30634",
        1808025881.7199683, -0.12077268767747157, 5667.3063368481835,
    ),
    (380.0, 0.19): (
        "interior", "4561.19158", "-0.00970200049", "4195.76741",
        4561.1915755162445, -0.009702000489030783, 4195.767413707294,
    ),
}


@pytest.mark.parametrize("k22, b22", sorted(_FAILING_CHECKS))
def test_failing_check_bytes(capsys, config_file, k22, b22):
    label, witness, det, argmin, witness_f, det_f, argmin_f = _FAILING_CHECKS[k22, b22]
    path = config_file(k22=k22, b22=b22)
    code, out, _ = run(capsys, "check", "--config", path)
    assert code == EXIT_FAIL
    assert out == _CHECK_HEAD.format(f"{k22:g}", f"{b22:g}") + (
        f"condition_c_ii: FAIL (violated: {label}; witness omega {witness} rad/s)\n"
        f"grid: min determinant margin {det}, min Re h11 margin 0.000569738479, "
        f"argmin omega {argmin} rad/s\noverall: FAIL\n"
    )

    def passing(name, branch, margin=None):
        return dict(name=name, passed=True, margin=margin, branch=branch, violated=None,
                    witness_omega=None)

    doc = {
        "criterion": "passivity", "k22": k22, "b22": b22,
        "conditions": [
            passing("condition_a", "quartic-margin", 5912620206.04206),
            passing("condition_b", "no-axis-pole"),
            passing("condition_c_i", "i1"),
            dict(name="condition_c_ii", passed=False, margin=None, branch=None,
                 violated=label, witness_omega=witness_f),
        ],
        "grid_min_determinant": det_f,
        "grid_min_re_h11": 0.0005697384785137527,
        "grid_argmin_omega": argmin_f,
        "overall": False,
    }
    code, out, _ = run(capsys, "check", "--config", path, "--format", "json")
    assert code == EXIT_FAIL
    assert out == json.dumps(doc, indent=2) + "\n"


# A zero integral gain leaves the characteristic quartic without a0: (a) and
# (b) still take its closed forms, and the note names the factor s that
# cancels from h11.  table1 with Im = 0 has no axis pole; the two small
# plants have a pole pair at omega = sqrt(a1/a3) = sqrt(2/3) whose residue is
# real and positive ("axis-pass") or not real ("axis-fail").
_ZERO_GAIN_CONFIGS = {
    "table1-Im0": {**_base_config(), "Im": 0},
    "axis-pass": dict(Kf=1, Bf=0, J=1.5, B=0.5, Pm=1, Im=0, Pf=1, If=1, alpha=0, k22=1, b22=0.1),
    "axis-fail": dict(Kf=2, Bf=1, J=6, B=1, Pm=1, Im=1, Pf=1, If=0, alpha=0, k22=1, b22=0.1),
}
# config: text lines after the coupler line; then each condition's
# (passed, margin, branch, violated, witness_omega) and the grid fields
_ZERO_GAIN_CHECKS = {
    "table1-Im0": (
        "condition_a: PASS (branch quartic-margin; margin 33159170.3)\n"
        "condition_b: PASS (branch no-axis-pole; vacuous: h11 has no imaginary-axis pole"
        " once its common factor s cancels)\n"
        "condition_c_i: PASS (branch i1)\n"
        "condition_c_ii: FAIL (violated: t0; witness omega 0 rad/s)\n"
        "grid: min determinant margin -1, min Re h11 margin 0.000621023692, argmin omega"
        " 0.001 rad/s\n",
        [
            (True, 33159170.297824714, "quartic-margin", None, None),
            (True, None, "no-axis-pole", None, None),
            (True, None, "i1", None, None),
            (False, None, None, "t0", 0.0),
        ],
        (-0.9999999999553492, 0.0006210236922871064, 0.001),
    ),
    "axis-pass": (
        "condition_a: PASS (branch quartic-margin; margin 0)\n"
        "condition_b: PASS (branch residue-closed-form; margin 2.25; axis pole pair at"
        " omega = 0.816497 rad/s)\n"
        "condition_c_i: PASS (branch generic)\n"
        "condition_c_ii: FAIL (violated: t3; witness omega 10.1488916 rad/s)\n"
        "grid: min determinant margin -1, min Re h11 margin -1.04333301e-16, argmin omega"
        " 0.001 rad/s\n",
        [
            (True, 0.0, "quartic-margin", None, None),
            (True, 2.25, "residue-closed-form", None, None),
            (True, None, "generic", None, None),
            (False, None, None, "t3", 10.14889156509222),
        ],
        (-1.0, -1.0433330064022883e-16, 0.001),
    ),
    "axis-fail": (
        "condition_a: PASS (branch quartic-margin; margin 0)\n"
        "condition_b: FAIL (branch residue-closed-form; violated: residue; margin 3; witness"
        " omega 0.816496581 rad/s; axis pole pair at omega = 0.816497 rad/s)\n"
        "condition_c_i: FAIL (violated: interior; witness omega 0.772801541 rad/s)\n"
        "condition_c_ii: FAIL (violated: interior; witness omega 1.56529309 rad/s)\n",
        [
            (True, 0.0, "quartic-margin", None, None),
            (False, 3.0, "residue-closed-form", "residue", 0.816496580927726),
            (False, None, None, "interior", 0.7728015412913086),
            (False, None, None, "interior", 1.565293087617284),
        ],
        (None, None, None),
    ),
}


@pytest.mark.parametrize("name", sorted(_ZERO_GAIN_CHECKS))
def test_zero_integral_gain_check_bytes(capsys, tmp_path, name):
    cfg = _ZERO_GAIN_CONFIGS[name]
    lines, conditions, grid = _ZERO_GAIN_CHECKS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "check", "--config", str(path))
    assert code == EXIT_FAIL
    assert out == (
        f"criterion: passivity\ncoupler: k22={cfg['k22']:g} b22={cfg['b22']:g}\n"
        + lines + "overall: FAIL\n"
    )

    names = ("condition_a", "condition_b", "condition_c_i", "condition_c_ii")
    doc = {
        "criterion": "passivity", "k22": float(cfg["k22"]), "b22": float(cfg["b22"]),
        "conditions": [
            dict(zip(("name", "passed", "margin", "branch", "violated", "witness_omega"),
                     (n, *c)))
            for n, c in zip(names, conditions)
        ],
        **dict(zip(("grid_min_determinant", "grid_min_re_h11", "grid_argmin_omega"), grid)),
        "overall": False,
    }
    code, out, _ = run(capsys, "check", "--config", str(path), "--format", "json")
    assert code == EXIT_FAIL
    assert out == json.dumps(doc, indent=2) + "\n"


def test_check_absolute_criterion(capsys):
    code, out, _ = run(capsys, "check", "--config", TABLE, "--criterion", "absolute")
    assert code == EXIT_PASS
    assert "llewellyn: PASS" in out
    assert "4000 points" in out


def test_check_absolute_grid_override(capsys):
    code, out, _ = run(
        capsys, "check", "--config", TABLE, "--criterion", "absolute",
        "--grid", "1e-3:1e6:500", "--format", "json",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["grid_points"] == 500
    assert doc["overall"] is True


def test_check_absolute_fails_above_the_frontier(capsys, config_file):
    code, out, _ = run(
        capsys, "check", "--config", config_file(k22=409.0),
        "--criterion", "absolute",
    )
    assert code == EXIT_FAIL
    assert "overall: FAIL" in out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv_crosses_the_frontier(capsys):
    code, out, _ = run(
        capsys, "sweep", "--config", TABLE, "--vary", "k22", "--range", "404:412:5",
    )
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "param,criterion,pass"
    rows = [line.split(",") for line in lines[1:]]
    verdicts = {float(p): ok == "true" for p, _, ok in rows}
    assert verdicts[404.0] and verdicts[408.0]
    assert not verdicts[410.0] and not verdicts[412.0]
    margins = {float(p): float(m) for p, m, _ in rows}
    assert margins[408.0] > 0.0 > margins[410.0]


def test_sweep_json_rows(capsys):
    code, out, _ = run(
        capsys, "sweep", "--config", TABLE, "--vary", "k22",
        "--range", "404:412:3", "--format", "json",
    )
    assert code == EXIT_PASS
    rows = json.loads(out)
    assert [r["param"] for r in rows] == [404.0, 408.0, 412.0]
    assert rows[0]["pass"] is True and rows[2]["pass"] is False


def test_sweep_over_the_feedback_split_finds_the_pocket(capsys, config_file):
    cfg = config_file(k22=410.0, b22=0.15)
    code, out, _ = run(
        capsys, "sweep", "--config", cfg, "--vary", "alpha", "--range", "0:1:11",
    )
    assert code == EXIT_PASS
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    verdicts = {round(float(p), 1): ok == "true" for p, _, ok in rows}
    assert verdicts == {
        0.0: False, 0.1: False, 0.2: False, 0.3: False, 0.4: False, 0.5: False,
        0.6: False, 0.7: False, 0.8: True, 0.9: True, 1.0: False,
    }


@pytest.mark.parametrize("criterion", ["passivity", "absolute"])
def test_sweep_reports_the_sentinel_where_condition_a_fails(capsys, config_file, criterion):
    # J = 0.01 puts the characteristic quartic's roots in the right half plane
    code, out, _ = run(
        capsys, "sweep", "--config", config_file(J=0.01), "--criterion", criterion,
        "--vary", "k22", "--range", "404:412:3",
    )
    assert code == EXIT_PASS
    assert out == "param,criterion,pass\n404,-1,false\n408,-1,false\n412,-1,false\n"


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--config", TABLE, "--vary", "b22", "--range", "0.01:0.2:8")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_text_report(capsys):
    code, out, _ = run(capsys, "optimize", "--config", TABLE)
    assert code == EXIT_PASS
    assert "k22_max: 408.2" in out
    assert "b22_opt: 0.17" in out
    assert "alpha_opt: 1.00" in out
    assert "evaluations: 62" in out


def test_optimize_json_report(capsys):
    code, out, _ = run(capsys, "optimize", "--config", TABLE, "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["k22_max"] == pytest.approx(408.201, abs=0.05)
    assert doc["b22_opt"] == pytest.approx(0.1701, abs=2e-3)
    assert "sweep 50 points" in doc["notes"]


def test_optimize_joint_search(capsys):
    code, out, _ = run(
        capsys, "optimize", "--config", TABLE, "--over", "b22+alpha",
        "--format", "json",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["alpha_opt"] == pytest.approx(0.8905, abs=0.02)
    assert doc["k22_max"] == pytest.approx(417.109, abs=0.2)


_JOINT_NOTES = (
    "criterion={0}; alpha golden-section on [0, 1] to 0.005 plus endpoints; "
    "inner: criterion={0}; sweep 50 points on (0, 0.2]; bracket [{1}]; "
    "guard: refinement held the sweep maximum"
)
# the bytes of the joint search, as the unpruned sweep printed them
_JOINT_OUTPUT = {
    ("passivity", "csv"): (
        "criterion: passivity\nk22_max: 417.1\nb22_opt: 0.15\nalpha_opt: 0.89\n"
        "evaluations: 16\nnotes: " + _JOINT_NOTES.format("passivity", "0.144, 0.152") + "\n"
    ),
    ("passivity", "json"): (
        '{\n  "criterion": "passivity",\n  "k22_max": 417.1094177087317,\n'
        '  "b22_opt": 0.14845824720006734,\n  "alpha_opt": 0.8904631987238172,\n'
        '  "evaluations": 16,\n  "notes": "'
        + _JOINT_NOTES.format("passivity", "0.144, 0.152") + '"\n}\n'
    ),
    ("absolute", "csv"): (
        "criterion: absolute\nk22_max: 424.3\nb22_opt: 0.14\nalpha_opt: 0.82\n"
        "evaluations: 16\nnotes: " + _JOINT_NOTES.format("absolute", "0.132, 0.14") + "\n"
    ),
    ("absolute", "json"): (
        '{\n  "criterion": "absolute",\n  "k22_max": 424.3310546875,\n'
        '  "b22_opt": 0.13512077304004713,\n  "alpha_opt": 0.8215794912265513,\n'
        '  "evaluations": 16,\n  "notes": "'
        + _JOINT_NOTES.format("absolute", "0.132, 0.14") + '"\n}\n'
    ),
}


@pytest.mark.parametrize("criterion, fmt", sorted(_JOINT_OUTPUT))
def test_optimize_joint_search_bytes(capsys, criterion, fmt):
    code, out, _ = run(
        capsys, "optimize", "--config", TABLE, "--over", "b22+alpha",
        "--criterion", criterion, "--format", fmt,
    )
    assert code == EXIT_PASS
    assert out == _JOINT_OUTPUT[criterion, fmt]


def test_optimize_absolute_criterion(capsys):
    code, out, _ = run(
        capsys, "optimize", "--config", TABLE, "--criterion", "absolute",
    )
    assert code == EXIT_PASS
    assert "k22_max: 408.9" in out


def test_optimize_infeasible_text_and_json(capsys, config_file):
    cfg = config_file(Bf=0.0)
    code, out, err = run(capsys, "optimize", "--config", cfg)
    assert code == EXIT_FAIL
    assert err == ""
    assert out.startswith("infeasible:")
    assert "Bf = 0" in out

    code, out, _ = run(capsys, "optimize", "--config", cfg, "--format", "json")
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["infeasible"] is True
    assert "Bf = 0" in doc["reason"]


# ---------------------------------------------------------------------------
# bode
# ---------------------------------------------------------------------------


def test_bode_header_and_high_frequency_magnitude(capsys):
    code, out, _ = run(
        capsys, "bode", "--config", TABLE, "--target", "h11",
        "--grid", "1e-3:1e6:10",
    )
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "omega_rad_s,magnitude_db,phase_deg"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1e6)
    assert float(last[1]) == pytest.approx(-26.0206, abs=0.05)


def test_bode_transmitted_spring_renders_the_target_stiffness(capsys, config_file):
    cfg = config_file(k22=415.0, b22=0.15)
    code, out, _ = run(
        capsys, "bode", "--config", cfg, "--target", "zto:spring:386.05",
        "--grid", "1e-4:1e-2:3",
    )
    assert code == EXIT_PASS
    row = out.strip().splitlines()[1].split(",")
    omega, mag_db = float(row[0]), float(row[1])
    rendered_stiffness = omega * 10.0 ** (mag_db / 20.0)
    assert rendered_stiffness == pytest.approx(200.0, rel=2e-2)


def test_bode_targets_each_hybrid_entry(capsys):
    for target in ("h11", "h12", "h22", "zto:null", "zto:damper:0.3",
                   "zto:voigt:200:0.05"):
        code, out, _ = run(
            capsys, "bode", "--config", TABLE, "--target", target,
            "--grid", "1:100:5",
        )
        assert code == EXIT_PASS, target
        assert len(out.strip().splitlines()) == 6


def test_absolute_check_with_no_finite_grid_sample_is_a_config_error(capsys):
    # it used to print "llewellyn: FAIL (min margin nan at omega nan rad/s over
    # 2 points)", a verdict drawn from no data
    code, out, err = run(
        capsys, "check", "--config", TABLE, "--criterion", "absolute",
        "--grid", "1e200:1e300:2",
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: h11 and h12 overflow double precision at every grid point\n"


def test_bode_that_overflows_double_precision_is_a_config_error(capsys):
    # h11 has no pole at 1e200 rad/s; its float evaluation overflows there
    code, out, err = run(
        capsys, "bode", "--config", TABLE, "--target", "h11",
        "--grid", "1e200:1e300:2",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (
        "config error: response overflows double precision at omega = 1e+200 rad/s\n"
    )


def test_bode_whose_denominator_alone_overflows_is_a_config_error(capsys):
    # |h12| is about 1e-80 here; only the float evaluation of its quartic
    # denominator overflows, which must not read as a zero response
    code, out, err = run(
        capsys, "bode", "--config", TABLE, "--target", "h12",
        "--grid", "1e80:1e90:3",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (
        "config error: response overflows double precision at omega = 1e+80 rad/s\n"
    )


def test_bode_defaults_to_a_2000_point_grid(capsys):
    code, out, err = run(capsys, "bode", "--config", TABLE, "--target", "h11")
    assert code == EXIT_PASS
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "omega_rad_s,magnitude_db,phase_deg"
    assert len(lines) == 2001
    assert lines[1].startswith("0.001,") and lines[-1].startswith("1000000,")


def test_bode_json_rows(capsys):
    _, csv_out, _ = run(
        capsys, "bode", "--config", TABLE, "--target", "h22", "--grid", "1:100:3",
    )
    code, out, _ = run(
        capsys, "bode", "--config", TABLE, "--target", "h22", "--grid", "1:100:3",
        "--format", "json",
    )
    assert code == EXIT_PASS
    rows = json.loads(out)
    assert [sorted(r) for r in rows] == [["magnitude_db", "omega_rad_s", "phase_deg"]] * 3
    assert [cli._f(r["omega_rad_s"]) for r in rows] == ["1", "10", "100"]
    assert [
        ",".join(cli._f(r[k]) for k in ("omega_rad_s", "magnitude_db", "phase_deg"))
        for r in rows
    ] == csv_out.splitlines()[1:]


def test_bode_grid_point_on_a_pole_is_a_config_error(capsys, config_file):
    # the drive quartic is (s**2 + 1)*(2*s**2 + 2*s + 1): a pole pair at 1 rad/s
    cfg = config_file(
        Kf=1.0, Bf=0.0, J=2.0, B=1.0, Pm=1.0, Im=1.0, Pf=1.0, If=1.0, k22=1.0, b22=0.1,
    )
    code, out, err = run(
        capsys, "bode", "--config", cfg, "--target", "h11", "--grid", "0.1:10:3",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: response has a pole at omega = 1 rad/s\n"


def test_check_on_an_overflowing_grid_leaks_no_numpy_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(
            capsys, "check", "--config", TABLE, "--grid", "1e200:1e300:2",
        )
    assert code == EXIT_PASS
    assert err == ""
    assert "overall: PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("check",),
        ("sweep", "--vary", "k22", "--range", "404:412:5"),
        ("optimize",),
        ("bode", "--target", "h11"),
    ],
    ids=["check", "sweep", "optimize", "bode"],
)
def test_grid_ending_near_the_largest_double_is_a_config_error(capsys, argv):
    # the last logspace point rounds to inf; it used to leak numpy warnings
    # and pass check with a verdict on a grid holding an infinite frequency
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(
            capsys, *argv[:1], "--config", TABLE,
            "--grid", "1e300:1.7976931348623157e308:3", *argv[1:],
        )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: frequency grid must be positive and finite\n"


def test_absolute_optimum_with_no_finite_grid_sample_is_a_config_error(capsys):
    # h11 and h12 overflow at every point; the search used to report k22_max 0.0
    code, out, err = run(
        capsys, "optimize", "--config", TABLE, "--criterion", "absolute",
        "--grid", "1e100:1e150:3",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: h11 and h12 overflow double precision at every grid point\n"


@pytest.mark.parametrize("grid", ["1e-3:1:20", "1e-3:1e-1:20"])
def test_absolute_optimum_on_a_grid_that_never_bounds_k22_is_a_config_error(capsys, grid):
    # below 1 rad/s the sampled Llewellyn margin holds for every k22, so the
    # bracket search doubles past its ceiling; it used to exit as an internal error
    code, out, err = run(
        capsys, "optimize", "--config", TABLE, "--criterion", "absolute", "--grid", grid,
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (
        "config error: the Llewellyn margin holds at every k22 tried up to the 1e15"
        " search ceiling on this grid, so the grid does not bound k22\n"
    )


def test_absolute_optimum_on_an_overflowing_grid_leaks_no_numpy_warning(capsys):
    # omega**2 overflows above 1e154 rad/s; those samples drop out as NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(
            capsys, "optimize", "--config", TABLE, "--criterion", "absolute",
            "--grid", "1e-3:1e200:50",
        )
    assert code == EXIT_PASS
    assert err == ""
    assert "k22_max: 445.5" in out


# ---------------------------------------------------------------------------
# internal errors (exit code 3, one line on stderr)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("internal: closed-form and Sturm verdicts disagree"),
        ZeroPolynomial("boom"),  # a library error no command expects
    ],
    ids=["cross-check", "library-error"],
)
def test_internal_error_has_its_own_exit_code(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "check_two_port_passivity", broken)
    code, out, err = run(capsys, "check", "--config", TABLE)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == f"internal error: {exc}\n"


# ---------------------------------------------------------------------------
# config and usage errors (exit code 2, message on stderr)
# ---------------------------------------------------------------------------


def test_missing_config_key(capsys, tmp_path):
    cfg = _base_config()
    del cfg["Kf"]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "check", "--config", str(p))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error:") and "Kf" in err


def test_unknown_config_key(capsys, tmp_path):
    cfg = _base_config()
    cfg["extra"] = 1.0
    p = tmp_path / "u.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "check", "--config", str(p))
    assert code == EXIT_CONFIG
    assert "unknown config keys" in err and "extra" in err


def test_malformed_config_file(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "check", "--config", str(p))
    assert code == EXIT_CONFIG
    assert "not valid JSON" in err


@pytest.mark.parametrize("digits, message", [
    (400, "config key Kf must be a finite number, got 1000"),
    (5000, "is not valid JSON: "),  # beyond the int digit limit of json.loads
])
def test_oversized_number_in_the_config_is_a_config_error(capsys, tmp_path, digits, message):
    p = tmp_path / "big.json"
    p.write_text(Path(TABLE).read_text().replace('"Kf": 362.0', '"Kf": 1' + "0" * digits))
    code, out, err = run(capsys, "check", "--config", str(p))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1


def test_bode_has_no_criterion_option(capsys):
    # bode decides nothing; it used to accept --criterion and ignore it
    with pytest.raises(SystemExit) as exc:
        main(["bode", "--config", TABLE, "--target", "h11", "--grid", "1:10:2",
              "--criterion", "absolute"])
    assert exc.value.code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: vcoupler bode ")
    assert err.endswith("error: unrecognized arguments: --criterion absolute\n")


@pytest.mark.parametrize("over", ["b22", "b22+alpha"])
def test_optimize_grid_under_the_passivity_criterion_is_a_config_error(capsys, over):
    # the passivity bound on k22 is exact; the grid used to be ignored silently
    code, out, err = run(capsys, "optimize", "--config", TABLE, "--over", over, "--grid", "1:10:2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        "config error: --grid does not apply to optimize under the passivity criterion,"
        " whose k22 bound is exact\n"
    )


def _benchmark_cli_commands():
    """CLI_COMMANDS of perfbench/workloads.py, the README commands the cli workload runs."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.CLI_COMMANDS


_BIG_PLANT_RUNS = [(cmd, EXIT_PASS) for cmd in _benchmark_cli_commands()] + [
    (("optimize", "--over", "b22+alpha"), EXIT_CONFIG)
]


@pytest.mark.parametrize(
    "argv, want", _BIG_PLANT_RUNS, ids=[" ".join(argv) for argv, _ in _BIG_PLANT_RUNS]
)
def test_plant_with_coefficients_beyond_the_float_range(capsys, config_file, argv, want):
    # r0 and the quartic margin of Kf = 1e200 overflow a float, and the reports
    # clamp them to inf; at alpha = 0 the (c-ii) bound lies beyond the 1e15
    # search ceiling, which is a config error
    code, out, err = run(capsys, *argv[:1], "--config", config_file(Kf=1e200), *argv[1:])
    assert code == want, err
    if want == EXIT_CONFIG:
        assert err == (
            "config error: condition (c-ii) holds at every k22 tried up to the 1e15 search"
            " ceiling, so this plant's k22 bound lies beyond the search range\n"
        )


_RESPONSE_OVERFLOW = "config error: response overflows double precision at omega = 0.001 rad/s\n"
_NO_ENTRY_SAMPLE = "config error: h11 and h12 overflow double precision at every grid point\n"
_HUGE_ENTRIES = {"Kf": 1e300, "Pm": 1e30}
_DOUBLE_OVERFLOW_RUNS = [
    ({"Kf": 1e300}, ("bode", "--target", "zto:spring:386"), EXIT_CONFIG, _RESPONSE_OVERFLOW),
    (_HUGE_ENTRIES, ("check",), EXIT_PASS, ""),
    (_HUGE_ENTRIES, ("check", "--criterion", "absolute"), EXIT_CONFIG, _NO_ENTRY_SAMPLE),
    (_HUGE_ENTRIES, ("sweep", "--vary", "b22", "--range", "0.05:0.2:16"), EXIT_PASS, ""),
    (
        _HUGE_ENTRIES,
        ("sweep", "--criterion", "absolute", "--vary", "k22", "--range", "400:410:2"),
        EXIT_CONFIG,
        _NO_ENTRY_SAMPLE,
    ),
    (_HUGE_ENTRIES, ("optimize", "--criterion", "absolute"), EXIT_CONFIG, _NO_ENTRY_SAMPLE),
    (_HUGE_ENTRIES, ("bode", "--target", "h11"), EXIT_CONFIG, _RESPONSE_OVERFLOW),
]


@pytest.mark.parametrize(
    "overrides, argv, want, message", _DOUBLE_OVERFLOW_RUNS,
    ids=[" ".join(argv) for _, argv, _, _ in _DOUBLE_OVERFLOW_RUNS],
)
def test_polynomial_coefficients_beyond_the_float_range(
    capsys, config_file, overrides, argv, want, message
):
    # hybrid-entry coefficients overflow a float; the float samples clamp to
    # inf and a bode response beyond double precision is a config error.  With
    # no finite h11 and h12 sample the absolute criterion has no data to decide
    # from: check used to print a nan FAIL and sweep nan rows
    code, _, err = run(capsys, *argv[:1], "--config", config_file(**overrides), *argv[1:])
    assert (code, err) == (want, message)


def test_check_grid_on_a_pole_leaks_no_numpy_warning(capsys, config_file):
    # the middle grid point is the pole pair of h11 at 1 rad/s; its margins are NaN
    cfg = config_file(
        Kf=1.0, Bf=0.0, J=2.0, B=1.0, Pm=1.0, Im=1.0, Pf=1.0, If=1.0, k22=1.0, b22=0.1,
    )
    code, out, err = run(capsys, "check", "--config", cfg, "--grid", "0.1:10:3")
    assert (code, err) == (EXIT_FAIL, "")
    assert "grid: min determinant margin -1, min Re h11 margin 0, argmin omega 0.1 rad/s" in out


def test_absolute_optimum_with_no_finite_margin_leaks_no_numpy_warning(capsys, config_file):
    # at the tiny b22 of this sweep b22**2 underflows and every margin is NaN
    cfg = config_file(Bf=1e-300, J=0.5, Pm=1e8)
    code, out, err = run(capsys, "optimize", "--config", cfg, "--criterion", "absolute")
    assert (code, err) == (EXIT_PASS, "")
    assert "k22_max: 0.0" in out


@pytest.mark.parametrize("env", ["damper:0", "spring:0", "voigt:0:0"])
def test_bode_of_a_zero_valued_termination_is_the_null_termination(capsys, env):
    argv = ("bode", "--config", TABLE, "--grid", "1e-4:1e2:100", "--format", "json")
    _, null, _ = run(capsys, *argv, "--target", "zto:null")
    code, out, err = run(capsys, *argv, "--target", f"zto:{env}")
    assert (code, out, err) == (EXIT_PASS, null, "")


def test_nonexistent_config_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--config", str(tmp_path / "nope.json"))
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")


def test_out_of_range_feedback_gain(capsys, config_file):
    code, _, err = run(capsys, "check", "--config", config_file(alpha=1.5))
    assert code == EXIT_CONFIG
    assert "alpha" in err


def test_bad_grid_specifications(capsys):
    for grid in ("1e6:1e-3:100", "1e-3:1e6:0", "0:1e6:100", "nope"):
        code, _, err = run(
            capsys, "check", "--config", TABLE, "--grid", grid,
            "--criterion", "absolute",
        )
        assert code == EXIT_CONFIG, grid
        assert err.startswith("config error:"), grid


GRID_ERRORS = [
    ("1e6:1e-3:100", "--grid requires 0 < min < max, got '1e6:1e-3:100'"),
    ("1e-3:1e6:0", "--grid requires at least 2 points, got 0"),
    ("inf:1e6:5", "--grid requires 0 < min < max, got 'inf:1e6:5'"),
    ("0:1:1", "--grid requires 0 < min < max, got '0:1:1'"),
    ("1:2:3:4", "--grid must look like min:max:points, got '1:2:3:4'"),
    ("1:2:x", "--grid '1:2:x': invalid literal for int() with base 10: 'x'"),
    ("-1:2:3", "--grid requires 0 < min < max, got '-1:2:3'"),
]

RANGE_ERRORS = [
    ("1:nan:5", "--range requires finite lo <= hi, got '1:nan:5'"),
    ("5:4:1", "--range requires finite lo <= hi, got '5:4:1'"),
    ("1:2:1", "--range requires at least 2 points, got 1"),
    ("a:b", "--range must look like lo:hi:points, got 'a:b'"),
    ("1:2:2.5", "--range '1:2:2.5': invalid literal for int() with base 10: '2.5'"),
    ("-1:-2:3", "--range requires finite lo <= hi, got '-1:-2:3'"),
]


@pytest.mark.parametrize("grid,message", GRID_ERRORS, ids=[g for g, _ in GRID_ERRORS])
def test_grid_error_messages(capsys, grid, message):
    code, _, err = run(capsys, "check", "--config", TABLE, "--grid", grid)
    assert code == EXIT_CONFIG
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("rng,message", RANGE_ERRORS, ids=[r for r, _ in RANGE_ERRORS])
def test_range_error_messages(capsys, rng, message):
    code, _, err = run(capsys, "sweep", "--config", TABLE, "--vary", "k22", "--range", rng)
    assert code == EXIT_CONFIG
    assert err == f"config error: {message}\n"


def test_bad_sweep_range(capsys):
    code, _, err = run(
        capsys, "sweep", "--config", TABLE, "--vary", "k22", "--range", "410:404:5",
    )
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")


@pytest.mark.parametrize(
    "vary,rng,message",
    [
        ("alpha", "0:2:3", "alpha sweep range must stay inside [0, 1]"),
        ("alpha", "-0.5:1:3", "alpha sweep range must stay inside [0, 1]"),
        ("k22", "-1:2:3", "k22 sweep range must be nonnegative"),
        ("b22", "-0.1:0.2:3", "b22 sweep range must be nonnegative"),
    ],
)
def test_sweep_range_outside_the_parameter_domain(capsys, vary, rng, message):
    # a negative lower end may follow "=" or a space
    for form in ([f"--range={rng}"], ["--range", rng]):
        code, out, err = run(capsys, "sweep", "--config", TABLE, "--vary", vary, *form)
        assert code == EXIT_CONFIG, form
        assert out == ""
        assert err == f"config error: {message}\n"


def test_negative_sweep_range_after_a_space_reaches_the_domain_check(capsys, monkeypatch):
    # "-1:2:3" starts like an option; main joins it to --range, whether the
    # arguments come as a list or from sys.argv
    argv = ["sweep", "--config", TABLE, "--vary", "k22", "--range", "-1:2:3"]
    monkeypatch.setattr(sys, "argv", ["vcoupler", *argv])
    for given in (argv, None):
        code = main(given)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == "config error: k22 sweep range must be nonnegative\n"


def test_check_needs_a_coupler_in_the_config(capsys, tmp_path):
    cfg = {k: v for k, v in _base_config().items() if k not in ("k22", "b22")}
    p = tmp_path / "plant.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "check", "--config", str(p))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: this command needs k22 and b22 in the config file\n"


def test_unwritable_output_path_is_a_config_error(capsys, tmp_path):
    dest = tmp_path / "missing" / "report.csv"
    code, out, err = run(capsys, "check", "--config", TABLE, "--output", str(dest))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"config error: cannot write {dest}: No such file or directory\n"


def test_bad_bode_target(capsys):
    code, _, err = run(
        capsys, "bode", "--config", TABLE, "--target", "zto:gel:5",
        "--grid", "1:10:2",
    )
    assert code == EXIT_CONFIG
    assert "bad environment" in err


# ---------------------------------------------------------------------------
# --format json is strict JSON: a float that is not finite is null
# ---------------------------------------------------------------------------


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


_HUGE = {"Kf": 1e300, "Pm": 1e30}


@pytest.mark.parametrize("merge, argv", [
    (_HUGE, ("sweep", "--vary", "k22", "--range", "404:412:5")),
    ({}, ("sweep", "--vary", "k22", "--range", "404:412:2", "--grid", "1e200:1e300:3")),
], ids=["huge-plant", "huge-grid"])
def test_sweep_json_writes_a_nan_margin_as_null(capsys, config_file, merge, argv):
    cfg = config_file(**merge)
    code, out, _ = run(capsys, *argv, "--config", cfg, "--format", "json")
    assert code == EXIT_PASS
    rows = _strict_json(out)
    assert rows and all(r["criterion"] is None for r in rows)
    # the text format keeps nan
    _, out, _ = run(capsys, *argv, "--config", cfg)
    assert all(line.split(",")[1] == "nan" for line in out.splitlines()[1:])


@pytest.mark.parametrize("merge, criterion", [
    (_HUGE, "passivity"), ({"Kf": 1e200}, "passivity"), ({"Kf": 1e200}, "absolute"),
], ids=["huge-plant", "Kf=1e200", "Kf=1e200-absolute"])
def test_check_json_writes_an_infinite_margin_as_null(capsys, config_file, merge, criterion):
    # condition (a)'s quartic margin overflows a float
    argv = ("check", "--config", config_file(**merge), "--criterion", criterion)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_PASS
    condition_a = _strict_json(out)["conditions"][0]
    assert condition_a["passed"] and condition_a["margin"] is None
    _, out, _ = run(capsys, *argv)
    assert "condition_a: PASS (branch quartic-margin; margin inf)\n" in out


# ---------------------------------------------------------------------------
# --output writes the same bytes the terminal would get
# ---------------------------------------------------------------------------

_OUTPUT_RUNS = (
    (EXIT_PASS, {}, ("check",)),
    (EXIT_PASS, {}, ("check", "--criterion", "absolute")),
    (EXIT_FAIL, {"k22": 450.0}, ("check", "--criterion", "absolute")),
    (EXIT_PASS, {}, ("sweep", "--vary", "k22", "--range", "404:412:5")),
    (EXIT_PASS, {}, ("optimize",)),
    (EXIT_FAIL, {"Bf": 0.0}, ("optimize",)),
    (EXIT_PASS, {}, ("bode", "--target", "zto:spring:386", "--grid", "1e-4:1e2:20")),
)


def test_output_file_matches_stdout(capsys, tmp_path, config_file):
    # every subcommand in both formats, with a passing and a failing exit code
    dest = tmp_path / "report"
    for want, merge, args in _OUTPUT_RUNS:
        for fmt in ("csv", "json"):
            argv = (*args, "--config", config_file(**merge), "--format", fmt)
            code, stdout_text, err = run(capsys, *argv)
            assert (code, err) == (want, ""), argv
            assert main([*argv, "--output", str(dest)]) == want, argv
            assert capsys.readouterr() == ("", ""), argv
            assert dest.read_bytes() == stdout_text.encode(), argv


# ---------------------------------------------------------------------------
# module entry point via a real process
# ---------------------------------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "vcoupler.cli", "check", "--config", TABLE],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_PASS
    assert "overall: PASS" in proc.stdout
