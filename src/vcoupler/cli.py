"""Command-line front end.

Four subcommands drive the library from a JSON parameter file:

  check     per-condition passivity or absolute-stability verdict
  sweep     criterion margin and verdict along one swept parameter
  optimize  maximize coupler stiffness over b22 (optionally also alpha)
  bode      frequency response of a hybrid entry or a terminated port

Exit codes are a stable scripting contract: 0 means the requested verdict
passed (or data was produced), 1 means a fail verdict or infeasibility,
2 means a configuration or usage error (among them an --output path that
cannot be written, a bode grid point on a pole of the response and an
absolute-criterion grid on which h11 and h12 overflow at every point),
reported as one "config error: ..." line on stderr, and 3 means an internal
error, reported as one "internal error: ..." line on stderr: two exact
routes that disagree (such as the closed form and the Sturm chain on a (c)
cubic) or any other unexpected exception.  The passivity criterion's grid
margins are reported only and never change an exit code.  CSV output is
deterministic byte-for-byte for identical inputs: 9 significant digits,
"." decimal separator, "\n" line endings, fixed headers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BaselineNotPassive,
    ConfigError,
    InvalidParams,
    PoleAtFrequency,
)
from .model import SystemParams, VirtualCoupler, hybrid_matrix, load_config
from .optimize import OptimizationResult, maximize_k22, maximize_k22_over_alpha
from .passivity import check_absolute_stability, check_two_port_passivity, default_grid
from .perf import EnvironmentModel, frequency_response, transmitted_impedance

__all__ = ["RunConfig", "main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

_SWEEPABLE = ("k22", "b22", "alpha")

_BODE_HEADER = "omega_rad_s,magnitude_db,phase_deg"
_SWEEP_HEADER = "param,criterion,pass"


@dataclass(frozen=True)
class RunConfig:
    """One invocation's resolved inputs.

    grid is None when the user did not pass --grid, letting each command
    fall back to the library defaults.
    """

    params: SystemParams
    vc: Optional[VirtualCoupler]
    grid: Optional[Tuple[float, float, int]]
    output: Optional[str]
    fmt: str


def _f(x: Optional[float]) -> str:
    """Deterministic 9-significant-digit decimal rendering; None is "nan"."""
    return "nan" if x is None else f"{float(x):.9g}"


def _parse_triple(
    text: str, flag: str, shape: str, in_range: Callable[[float, float], bool], rule: str
) -> Tuple[float, float, int]:
    """lo:hi:points with finite lo, hi satisfying in_range (stated as rule) and points >= 2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag} must look like {shape}, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and in_range(lo, hi)):
        raise ConfigError(f"{flag} requires {rule}, got {text!r}")
    if n < 2:
        raise ConfigError(f"{flag} requires at least 2 points, got {n}")
    return lo, hi, n


def _parse_grid(text: str) -> Tuple[float, float, int]:
    return _parse_triple(
        text, "--grid", "min:max:points", lambda lo, hi: 0 < lo < hi, "0 < min < max"
    )


def _parse_range(text: str) -> Tuple[float, float, int]:
    return _parse_triple(
        text, "--range", "lo:hi:points", lambda lo, hi: lo <= hi, "finite lo <= hi"
    )


def _grid_array(cfg: RunConfig) -> Optional[np.ndarray]:
    if cfg.grid is None:
        return None
    lo, hi, n = cfg.grid
    # an upper end near the largest double can round the last points to inf
    with np.errstate(over="ignore"):
        omegas = np.logspace(math.log10(lo), math.log10(hi), n)
    if not np.all(np.isfinite(omegas)):
        raise ConfigError("frequency grid must be positive and finite")
    return omegas


def _require_vc(cfg: RunConfig) -> VirtualCoupler:
    if cfg.vc is None:
        raise ConfigError("this command needs k22 and b22 in the config file")
    return cfg.vc


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {output}: {exc.strerror}") from exc


def _parse_environment(spec: str) -> EnvironmentModel:
    """Environment selector: null | spring:<Ke> | damper:<Be> | voigt:<Ke>:<Be>."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "null" and not args:
            return EnvironmentModel("null")
        if kind == "spring" and len(args) == 1:
            return EnvironmentModel("spring", Ke=float(args[0]))
        if kind == "damper" and len(args) == 1:
            return EnvironmentModel("damper", Be=float(args[0]))
        if kind == "voigt" and len(args) == 2:
            return EnvironmentModel("voigt", Ke=float(args[0]), Be=float(args[1]))
    except (ValueError, InvalidParams) as exc:
        raise ConfigError(f"bad environment {spec!r}: {exc}") from exc
    raise ConfigError(
        f"bad environment {spec!r}: expected null, spring:<Ke>, damper:<Be> "
        "or voigt:<Ke>:<Be>"
    )


# --------------------------------------------------------------------------
# check


def _condition_lines(reports) -> List[str]:
    lines = []
    for rep in reports:
        verdict = "PASS" if rep.passed else "FAIL"
        detail = []
        if rep.branch:
            detail.append(f"branch {rep.branch}")
        if rep.failing:
            detail.append(f"violated: {rep.failing}")
        if rep.margin is not None:
            detail.append(f"margin {_f(rep.margin)}")
        if rep.witness_omega is not None:
            detail.append(f"witness omega {_f(rep.witness_omega)} rad/s")
        if rep.note:
            detail.append(rep.note)
        suffix = f" ({'; '.join(detail)})" if detail else ""
        lines.append(f"{rep.name}: {verdict}{suffix}")
    return lines


def _condition_dict(rep) -> dict:
    return {
        "name": rep.name,
        "passed": rep.passed,
        "margin": rep.margin,
        "branch": rep.branch,
        "violated": rep.failing,
        "witness_omega": rep.witness_omega,
    }


def cmd_check(cfg: RunConfig, criterion: str) -> int:
    vc = _require_vc(cfg)
    grid = _grid_array(cfg)
    if criterion == "passivity":
        rep = check_two_port_passivity(cfg.params, vc, grid=grid)
        conditions = (
            rep.condition_a,
            rep.condition_b,
            rep.condition_c_i,
            rep.condition_c_ii,
        )
        extras_text = []
        if rep.grid_min_determinant is not None:
            extras_text.append(
                f"grid: min determinant margin {_f(rep.grid_min_determinant)}, "
                f"min Re h11 margin {_f(rep.grid_min_re_h11)}, "
                f"argmin omega {_f(rep.grid_argmin_omega)} rad/s"
            )
        extras_json = {
            "grid_min_determinant": rep.grid_min_determinant,
            "grid_min_re_h11": rep.grid_min_re_h11,
            "grid_argmin_omega": rep.grid_argmin_omega,
        }
    else:
        rep = check_absolute_stability(cfg.params, vc, grid=grid)
        conditions = (rep.condition_a, rep.condition_b, rep.condition_c_i)
        ll = "PASS" if rep.llewellyn_ok else "FAIL"
        extras_text = [
            f"llewellyn: {ll} (min margin {_f(rep.min_margin)} at omega "
            f"{_f(rep.argmin_omega)} rad/s over {rep.grid_points} points)"
        ]
        extras_json = {
            "llewellyn_ok": rep.llewellyn_ok,
            "min_margin": rep.min_margin,
            "argmin_omega": rep.argmin_omega,
            "grid_points": rep.grid_points,
        }

    overall = "PASS" if rep.overall else "FAIL"
    if cfg.fmt == "json":
        payload = {
            "criterion": criterion,
            "k22": vc.k22,
            "b22": vc.b22,
            "conditions": [_condition_dict(r) for r in conditions],
            **extras_json,
            "overall": rep.overall,
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
    else:
        lines = [f"criterion: {criterion}", f"coupler: k22={_f(vc.k22)} b22={_f(vc.b22)}"]
        lines += _condition_lines(conditions)
        lines += extras_text
        lines.append(f"overall: {overall}")
        _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_PASS if rep.overall else EXIT_FAIL


# --------------------------------------------------------------------------
# sweep


def _sweep_point(
    params: SystemParams,
    vc: VirtualCoupler,
    criterion: str,
    omegas: Optional[np.ndarray],
) -> Tuple[float, bool]:
    """(criterion margin, verdict) for one sweep point.

    The margin is the checker's minimum normalized grid margin of the
    selected criterion (NaN when no grid sample is finite); -1.0 is the
    sentinel when the pole-location conditions (a) or (b) already fail,
    where frequency-domain margins are meaningless.
    """
    if criterion == "passivity":
        rep = check_two_port_passivity(params, vc, grid=omegas)
        margin = rep.grid_min_determinant
    else:
        rep = check_absolute_stability(params, vc, grid=omegas)
        margin = rep.min_margin
    if not (rep.condition_a.passed and rep.condition_b.passed):
        return -1.0, False
    return math.nan if margin is None else margin, rep.overall


def cmd_sweep(cfg: RunConfig, criterion: str, vary: str, rng: Tuple[float, float, int]) -> int:
    vc = _require_vc(cfg)
    lo, hi, n = rng
    if vary == "alpha" and not (0.0 <= lo and hi <= 1.0):
        raise ConfigError("alpha sweep range must stay inside [0, 1]")
    if vary in ("k22", "b22") and lo < 0:
        raise ConfigError(f"{vary} sweep range must be nonnegative")

    omegas = _grid_array(cfg)
    values = np.linspace(lo, hi, n)
    rows = []
    for v in values:
        params, coupler = cfg.params, vc
        if vary == "alpha":
            params = params.replace(alpha=float(v))
        elif vary == "k22":
            coupler = VirtualCoupler(k22=float(v), b22=vc.b22)
        else:
            coupler = VirtualCoupler(k22=vc.k22, b22=float(v))
        margin, verdict = _sweep_point(params, coupler, criterion, omegas)
        rows.append((float(v), margin, verdict))

    if cfg.fmt == "json":
        payload = [
            {"param": v, "criterion": m, "pass": ok} for v, m, ok in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
    else:
        lines = [_SWEEP_HEADER]
        lines += [f"{_f(v)},{_f(m)},{'true' if ok else 'false'}" for v, m, ok in rows]
        _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_PASS


# --------------------------------------------------------------------------
# optimize


def _optimize_payload(res: OptimizationResult) -> dict:
    return {
        "criterion": res.criterion,
        "k22_max": res.k22_max,
        "b22_opt": res.b22_opt,
        "alpha_opt": res.alpha_opt,
        "evaluations": len(res.trace),
        "notes": res.notes,
    }


def cmd_optimize(cfg: RunConfig, criterion: str, over: str) -> int:
    grid = _grid_array(cfg)
    try:
        if over == "b22":
            res = maximize_k22(cfg.params, criterion, grid=grid)
        else:
            res = maximize_k22_over_alpha(cfg.params, criterion, grid=grid)
    except BaselineNotPassive as exc:
        if cfg.fmt == "json":
            payload = {"infeasible": True, "reason": str(exc)}
            _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        else:
            _emit(f"infeasible: {exc}\n", cfg.output)
        return EXIT_FAIL

    if cfg.fmt == "json":
        _emit(json.dumps(_optimize_payload(res), indent=2) + "\n", cfg.output)
    else:
        lines = [
            f"criterion: {res.criterion}",
            f"k22_max: {res.k22_max:.1f}",
            f"b22_opt: {res.b22_opt:.2f}",
            f"alpha_opt: {res.alpha_opt:.2f}",
            f"evaluations: {len(res.trace)}",
            f"notes: {res.notes}",
        ]
        _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_PASS


# --------------------------------------------------------------------------
# bode


def cmd_bode(cfg: RunConfig, target: str) -> int:
    vc = _require_vc(cfg)
    h = hybrid_matrix(cfg.params, vc)
    if target in ("h11", "h12", "h22"):
        rf = getattr(h, target)
    elif target.startswith("zto:"):
        rf = transmitted_impedance(h, _parse_environment(target[len("zto:"):]))
    else:
        raise ConfigError(
            f"bad --target {target!r}: expected h11, h12, h22 or zto:<environment>"
        )

    omegas = _grid_array(cfg)
    if omegas is None:
        omegas = default_grid(2000)
    rows = frequency_response(rf, omegas)

    if cfg.fmt == "json":
        payload = [
            {"omega_rad_s": w, "magnitude_db": m, "phase_deg": p} for w, m, p in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
    else:
        lines = [_BODE_HEADER]
        lines += [f"{_f(w)},{_f(m)},{_f(p)}" for w, m, p in rows]
        _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_PASS


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcoupler",
        description="Passivity, absolute stability and design of a virtual "
        "coupler for series damped elastic actuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON parameter file")
        p.add_argument(
            "--criterion",
            choices=("passivity", "absolute"),
            default="passivity",
            help="decision criterion (default: passivity)",
        )
        p.add_argument("--grid", help="frequency grid as min:max:points (rad/s)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("csv", "json"),
            default="csv",
            help="structured output format (default: csv)",
        )

    p_check = sub.add_parser("check", help="verdict for the configured coupler")
    common(p_check)

    p_sweep = sub.add_parser("sweep", help="margin and verdict along one parameter")
    common(p_sweep)
    p_sweep.add_argument("--vary", required=True, choices=_SWEEPABLE)
    p_sweep.add_argument("--range", required=True, dest="rng", help="lo:hi:points")

    p_opt = sub.add_parser("optimize", help="maximize coupler stiffness")
    common(p_opt)
    p_opt.add_argument(
        "--over",
        choices=("b22", "b22+alpha"),
        default="b22",
        help="search space (default: b22)",
    )

    p_bode = sub.add_parser("bode", help="frequency response export")
    common(p_bode)
    p_bode.add_argument(
        "--target",
        required=True,
        help="h11, h12, h22 or zto:<null|spring:Ke|damper:Be|voigt:Ke:Be>",
    )
    return parser


def _attach_triples(argv: Sequence[str]) -> List[str]:
    """argv with "--range V" and "--grid V" joined as "--range=V" when V is a
    lo:hi:points that starts with "-", which argparse would read as an option."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        value = out[i + 1]
        if out[i] in ("--range", "--grid") and value.startswith("-") and ":" in value:
            out[i:i + 2] = [f"{out[i]}={value}"]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_triples(sys.argv[1:] if argv is None else argv))
    try:
        params, vc = load_config(args.config)
        cfg = RunConfig(
            params=params,
            vc=vc,
            grid=_parse_grid(args.grid) if args.grid else None,
            output=args.output,
            fmt=args.fmt,
        )
        if args.command == "check":
            return cmd_check(cfg, args.criterion)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.criterion, args.vary, _parse_range(args.rng))
        if args.command == "optimize":
            return cmd_optimize(cfg, args.criterion, args.over)
        return cmd_bode(cfg, args.target)
    except (ConfigError, InvalidParams, PoleAtFrequency) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
