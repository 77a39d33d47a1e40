"""Command-line front end.

Four subcommands drive the library from a JSON parameter file:

  check     per-condition passivity or absolute-stability verdict
  sweep     criterion margin and verdict along one swept parameter
  optimize  maximize coupler stiffness over b22 (optionally also alpha)
  bode      frequency response of a hybrid entry or a terminated port

Each subcommand is one entry of the command table _COMMANDS: its help, its
own options and a function that takes the parsed arguments, the loaded
plant and coupler and the parsed --grid, and returns (exit code, JSON
payload, text lines).  main is the one output path: it writes either the
payload as indented JSON, with every float that is not finite written as
null (JSON has no NaN or Infinity), or the lines, each ended by "\n", to
stdout or to the --output file.  The text format writes such floats as
"nan" and "inf".

Exit codes are a stable scripting contract: 0 means the requested verdict
passed (or data was produced), 1 means a fail verdict or infeasibility,
2 means a usage error (argparse's message under the usage line of the
subcommand given, also for an option that subcommand does not take) or a
configuration error (among them an --output path that cannot be written, a
bode grid point on a pole of the response, an optimize --grid under the
passivity criterion, whose k22 bound is exact, and an absolute-criterion
grid on which h11 and h12 overflow at every point), reported as one
"config error: ..." line on stderr, and 3 means an internal
error, reported as one "internal error: ..." line on stderr: two exact
routes that disagree (such as the closed form and the Sturm chain on a (c)
cubic) or any other unexpected exception.  The passivity criterion's grid
margins are reported only and never change an exit code.  CSV output is
deterministic byte-for-byte for identical inputs: 9 significant digits,
"." decimal separator, "\n" line endings, fixed headers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BaselineNotPassive,
    ConfigError,
    InvalidParams,
    PoleAtFrequency,
)
from .model import SystemParams, VirtualCoupler, hybrid_matrix, load_config
from .optimize import maximize_k22, maximize_k22_over_alpha
from .passivity import check_absolute_stability, check_two_port_passivity, default_grid
from .perf import EnvironmentModel, frequency_response, transmitted_impedance

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

Grid = Optional[Tuple[float, float, int]]
Report = Tuple[int, Any, Iterable[str]]


def _f(x: Optional[float]) -> str:
    """Deterministic 9-significant-digit decimal rendering; None is "nan"."""
    return "nan" if x is None else f"{float(x):.9g}"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _finite(x: Any) -> Any:
    """x with every float that is not finite, at any depth, replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite(v) for v in x]
    return x


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


def _grid_array(grid: Grid) -> Optional[np.ndarray]:
    """The --grid samples, or None to leave each command its library default."""
    if grid is None:
        return None
    lo, hi, n = grid
    # an upper end near the largest double can round the last points to inf
    with np.errstate(over="ignore"):
        omegas = np.logspace(math.log10(lo), math.log10(hi), n)
    if not np.all(np.isfinite(omegas)):
        raise ConfigError("frequency grid must be positive and finite")
    return omegas


def _require_vc(vc: Optional[VirtualCoupler]) -> VirtualCoupler:
    if vc is None:
        raise ConfigError("this command needs k22 and b22 in the config file")
    return vc


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
# commands


def _condition_line(rep) -> str:
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
    return f"{rep.name}: {_verdict(rep.passed)}{suffix}"


def _check(
    args: argparse.Namespace, params: SystemParams, vc: Optional[VirtualCoupler], grid: Grid
) -> Report:
    vc = _require_vc(vc)
    omegas = _grid_array(grid)
    if args.criterion == "passivity":
        rep = check_two_port_passivity(params, vc, grid=omegas)
        conditions = (rep.condition_a, rep.condition_b, rep.condition_c_i, rep.condition_c_ii)
        extras = {
            "grid_min_determinant": rep.grid_min_determinant,
            "grid_min_re_h11": rep.grid_min_re_h11,
            "grid_argmin_omega": rep.grid_argmin_omega,
        }
        summary = [] if rep.grid_min_determinant is None else [
            f"grid: min determinant margin {_f(rep.grid_min_determinant)}, "
            f"min Re h11 margin {_f(rep.grid_min_re_h11)}, "
            f"argmin omega {_f(rep.grid_argmin_omega)} rad/s"
        ]
    else:
        rep = check_absolute_stability(params, vc, grid=omegas)
        conditions = (rep.condition_a, rep.condition_b, rep.condition_c_i)
        extras = {
            "llewellyn_ok": rep.llewellyn_ok,
            "min_margin": rep.min_margin,
            "argmin_omega": rep.argmin_omega,
            "grid_points": rep.grid_points,
        }
        summary = [
            f"llewellyn: {_verdict(rep.llewellyn_ok)} (min margin {_f(rep.min_margin)} at "
            f"omega {_f(rep.argmin_omega)} rad/s over {rep.grid_points} points)"
        ]
    payload = {
        "criterion": args.criterion,
        "k22": vc.k22,
        "b22": vc.b22,
        "conditions": [
            {
                "name": r.name,
                "passed": r.passed,
                "margin": r.margin,
                "branch": r.branch,
                "violated": r.failing,
                "witness_omega": r.witness_omega,
            }
            for r in conditions
        ],
        **extras,
        "overall": rep.overall,
    }
    lines = [
        f"criterion: {args.criterion}",
        f"coupler: k22={_f(vc.k22)} b22={_f(vc.b22)}",
        *map(_condition_line, conditions),
        *summary,
        f"overall: {_verdict(rep.overall)}",
    ]
    return (EXIT_PASS if rep.overall else EXIT_FAIL), payload, lines


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


def _sweep(
    args: argparse.Namespace, params: SystemParams, vc: Optional[VirtualCoupler], grid: Grid
) -> Report:
    lo, hi, n = _parse_triple(
        args.rng, "--range", "lo:hi:points", lambda lo, hi: lo <= hi, "finite lo <= hi"
    )
    vc = _require_vc(vc)
    if args.vary == "alpha" and not (0.0 <= lo and hi <= 1.0):
        raise ConfigError("alpha sweep range must stay inside [0, 1]")
    if args.vary in ("k22", "b22") and lo < 0:
        raise ConfigError(f"{args.vary} sweep range must be nonnegative")

    omegas = _grid_array(grid)
    rows = []
    for v in np.linspace(lo, hi, n):
        v = float(v)
        if args.vary == "alpha":
            point = params.replace(alpha=v), vc
        elif args.vary == "k22":
            point = params, VirtualCoupler(k22=v, b22=vc.b22)
        else:
            point = params, VirtualCoupler(k22=vc.k22, b22=v)
        rows.append((v, *_sweep_point(*point, args.criterion, omegas)))
    payload = [{"param": v, "criterion": m, "pass": ok} for v, m, ok in rows]
    lines = itertools.chain(
        ["param,criterion,pass"],
        (f"{_f(v)},{_f(m)},{'true' if ok else 'false'}" for v, m, ok in rows),
    )
    return EXIT_PASS, payload, lines


def _optimize(
    args: argparse.Namespace, params: SystemParams, vc: Optional[VirtualCoupler], grid: Grid
) -> Report:
    omegas = _grid_array(grid)
    if omegas is not None and args.criterion == "passivity":
        raise ConfigError("--grid does not apply to optimize under the passivity criterion, "
                          "whose k22 bound is exact")
    search = maximize_k22 if args.over == "b22" else maximize_k22_over_alpha
    try:
        res = search(params, args.criterion, grid=omegas)
    except BaselineNotPassive as exc:
        return EXIT_FAIL, {"infeasible": True, "reason": str(exc)}, [f"infeasible: {exc}"]
    payload = {
        "criterion": res.criterion,
        "k22_max": res.k22_max,
        "b22_opt": res.b22_opt,
        "alpha_opt": res.alpha_opt,
        "evaluations": len(res.trace),
        "notes": res.notes,
    }
    lines = [
        f"criterion: {res.criterion}",
        f"k22_max: {res.k22_max:.1f}",
        f"b22_opt: {res.b22_opt:.2f}",
        f"alpha_opt: {res.alpha_opt:.2f}",
        f"evaluations: {len(res.trace)}",
        f"notes: {res.notes}",
    ]
    return EXIT_PASS, payload, lines


def _bode(
    args: argparse.Namespace, params: SystemParams, vc: Optional[VirtualCoupler], grid: Grid
) -> Report:
    h = hybrid_matrix(params, _require_vc(vc))
    target = args.target
    if target in ("h11", "h12", "h22"):
        rf = getattr(h, target)
    elif target.startswith("zto:"):
        rf = transmitted_impedance(h, _parse_environment(target[len("zto:"):]))
    else:
        raise ConfigError(
            f"bad --target {target!r}: expected h11, h12, h22 or zto:<environment>"
        )

    omegas = _grid_array(grid)
    rows = frequency_response(rf, default_grid(2000) if omegas is None else omegas)
    payload = [{"omega_rad_s": w, "magnitude_db": m, "phase_deg": p} for w, m, p in rows]
    lines = itertools.chain(
        ["omega_rad_s,magnitude_db,phase_deg"],
        (f"{_f(w)},{_f(m)},{_f(p)}" for w, m, p in rows),
    )
    return EXIT_PASS, payload, lines


_CRITERION = ("--criterion", dict(choices=("passivity", "absolute"), default="passivity",
                                  help="decision criterion (default: passivity)"))

# name: (run, help, options beyond the common ones as (flag, add_argument keywords))
_COMMANDS = {
    "check": (_check, "verdict for the configured coupler", (_CRITERION,)),
    "sweep": (_sweep, "margin and verdict along one parameter", (
        _CRITERION,
        ("--vary", dict(required=True, choices=("k22", "b22", "alpha"))),
        ("--range", dict(required=True, dest="rng", help="lo:hi:points")),
    )),
    "optimize": (_optimize, "maximize coupler stiffness", (
        _CRITERION,
        ("--over", dict(choices=("b22", "b22+alpha"), default="b22",
                        help="search space (default: b22)")),
    )),
    "bode": (_bode, "frequency response export", (
        ("--target", dict(required=True,
                          help="h11, h12, h22 or zto:<null|spring:Ke|damper:Be|voigt:Ke:Be>")),
    )),
}


# --------------------------------------------------------------------------
# argument parsing and the output path


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's, by name."""
    parser = argparse.ArgumentParser(
        prog="vcoupler",
        description="Passivity, absolute stability and design of a virtual "
        "coupler for series damped elastic actuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, options) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON parameter file")
        p.add_argument("--grid", help="frequency grid as min:max:points (rad/s)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("csv", "json"),
            default="csv",
            help="structured output format (default: csv)",
        )
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser, commands


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
    parser, commands = _build_parser()
    args, extra = parser.parse_known_args(_attach_triples(sys.argv[1:] if argv is None else argv))
    if extra:  # the subcommand's usage line lists the options it does take
        commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        params, vc = load_config(args.config)
        grid = _parse_triple(
            args.grid, "--grid", "min:max:points", lambda lo, hi: 0 < lo < hi, "0 < min < max"
        ) if args.grid else None
        code, payload, lines = _COMMANDS[args.command][0](args, params, vc, grid)
        if args.fmt == "json":
            text = json.dumps(_finite(payload), indent=2)
        else:
            text = "\n".join(lines)
        _emit(text + "\n", args.output)
        return code
    except (ConfigError, InvalidParams, PoleAtFrequency) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
