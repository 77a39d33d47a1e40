"""Command-line interface: subcommands, exit codes, formats, error handling."""
from __future__ import annotations

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


def test_absolute_check_with_no_finite_grid_sample_prints_nan(capsys):
    code, out, _ = run(
        capsys, "check", "--config", TABLE, "--criterion", "absolute",
        "--grid", "1e200:1e300:2",
    )
    assert code == EXIT_FAIL
    assert "llewellyn: FAIL (min margin nan at omega nan rad/s over 2 points)" in out
    assert "overall: FAIL" in out


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
]

RANGE_ERRORS = [
    ("1:nan:5", "--range requires finite lo <= hi, got '1:nan:5'"),
    ("5:4:1", "--range requires finite lo <= hi, got '5:4:1'"),
    ("1:2:1", "--range requires at least 2 points, got 1"),
    ("a:b", "--range must look like lo:hi:points, got 'a:b'"),
    ("1:2:2.5", "--range '1:2:2.5': invalid literal for int() with base 10: '2.5'"),
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


def test_bad_bode_target(capsys):
    code, _, err = run(
        capsys, "bode", "--config", TABLE, "--target", "zto:gel:5",
        "--grid", "1:10:2",
    )
    assert code == EXIT_CONFIG
    assert "bad environment" in err


# ---------------------------------------------------------------------------
# --output writes the same bytes the terminal would get
# ---------------------------------------------------------------------------


def test_output_file_matches_stdout(capsys, tmp_path):
    args = ("sweep", "--config", TABLE, "--vary", "k22", "--range", "404:412:5")
    _, stdout_text, _ = run(capsys, *args)
    dest = tmp_path / "sweep.csv"
    code = main([*args, "--output", str(dest)])
    capsys.readouterr()
    assert code == EXIT_PASS
    assert dest.read_text() == stdout_text


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
