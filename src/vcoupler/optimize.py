"""Virtual-coupler design: maximize renderable stiffness k22.

For a plant that already satisfies the coupler-independent passivity
conditions (a), (b) and (c-i), the largest passive k22 is a function of the
coupler damping b22 alone, concave on the feasible interval (0, 4*Bf] for
typical drives.  maximize_k22 locates its maximum by a uniform 50-point
sweep (which doubles as a unimodality guard: the refined optimum must not
fall below the best sweep sample) followed by golden-section refinement of
the bracket around the best sample.  maximize_k22_over_alpha nests the same
search inside a golden-section scan of the feedforward blend alpha.

Two criteria are supported: "passivity" maximizes the exact two-port bound
k22_upper_bound (passivity._DeterminantBound); "absolute" maximizes the
largest k22 at which check_absolute_stability's sampled Llewellyn margin
holds on the same grid (passivity._LlewellynBound).  Both read one margin,
so the returned optimum agrees with that checker's verdicts, and at tol = 0
the bound is the last float the check passes.  Each inner search builds
one bound object for its plant and keeps it for the whole search.

Under the passivity criterion the joint search prunes its inner sweeps:
before evaluating a sweep point it runs one exact probe at the largest
bound found so far, and skips the point when the probe fails.  Feasibility
is downward-closed in k22 and a bound is a k22 that passed exactly, so a
skipped point's bound is strictly below the running maximum: the bracket,
refinement, guard and every inner optimum are those of the full sweep.
maximize_k22 and the absolute criterion evaluate all 50 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import BaselineNotPassive
from .model import SystemParams
from .passivity import (
    _DeterminantBound,
    _LlewellynBound,
    check_condition_a,
    check_condition_b,
    check_condition_c_i,
)

__all__ = [
    "OptimizationResult",
    "maximize_k22",
    "maximize_k22_over_alpha",
]

_CRITERIA = ("passivity", "absolute")
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_B22_TOL = 1e-4  # golden-section bracket width at termination
_ALPHA_TOL = 5e-3  # the same for alpha
_SWEEP_POINTS = 50


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a stiffness maximization.

    b22_opt    coupler damping at the optimum, in (0, 4*Bf]
    alpha_opt  feedforward blend at the optimum (the input alpha when only
               b22 was searched), in [0, 1]
    k22_max    largest coupler stiffness passing the criterion, >= 0
    criterion  "passivity" or "absolute"
    trace      every objective evaluation as (b22, alpha, k22) in call order
    notes      human-readable search summary (bracket, guard verdict)
    """

    b22_opt: float
    alpha_opt: float
    k22_max: float
    criterion: str
    trace: Tuple[Tuple[float, float, float], ...]
    notes: str = ""


def _normalize_criterion(criterion: str, grid: Optional[np.ndarray]) -> str:
    c = str(criterion).strip().lower()
    if c not in _CRITERIA:
        raise ValueError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
    if c == "passivity" and grid is not None:
        raise ValueError("grid does not apply to the passivity criterion, whose k22 bound is exact")
    return c


def _require_baseline(params: SystemParams) -> None:
    """Raise BaselineNotPassive unless the coupler-independent tests pass."""
    if params.Bf <= 0.0:
        raise BaselineNotPassive(
            "the elastic element has no parallel damping (Bf = 0), so the "
            "feasible coupler-damping interval (0, 4*Bf] is empty and no "
            "virtual coupler can render the two-port passive"
        )
    failed = [
        rep.name
        for rep in (
            check_condition_a(params),
            check_condition_b(params),
            check_condition_c_i(params),
        )
        if not rep.passed
    ]
    if failed:
        raise BaselineNotPassive(
            "plant fails coupler-independent passivity condition(s) "
            + ", ".join(failed)
            + "; no choice of virtual coupler can repair them"
        )


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> Tuple[float, float]:
    """Golden-section maximum of a unimodal f on [lo, hi] to bracket < tol."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def maximize_k22(
    params: SystemParams,
    criterion: str = "passivity",
    grid: Optional[np.ndarray] = None,
) -> OptimizationResult:
    """Largest k22 passing the chosen criterion, maximized over b22.

    Sweeps the objective at 50 uniform points of (0, 4*Bf], golden-sections
    the bracket around the best sample down to 1e-4, and returns whichever
    of the refined point and the best sweep sample scored higher -- the
    sweep acting as the unimodality guard for the local refinement.  The
    trace holds every evaluation, the 50 sweep points first.

    grid is the absolute criterion's frequency grid (default: 4000 points
    over [1e-3, 1e6] rad/s).  Raises ValueError for an unknown criterion or
    a grid under the passivity criterion, and BaselineNotPassive when
    Bf = 0 or any coupler-independent condition fails.
    """
    crit = _normalize_criterion(criterion, grid)
    _require_baseline(params)
    bound = _DeterminantBound(params) if crit == "passivity" else _LlewellynBound(params, grid)
    return _search_b22(params, crit, bound)[0]


def _search_b22(
    params: SystemParams,
    crit: str,
    bound: Union[_DeterminantBound, _LlewellynBound],
    first: Optional[int] = None,
) -> Tuple[OptimizationResult, int]:
    """maximize_k22's search on one bound object, and its best sweep index.

    With first = None every sweep point is evaluated, in order.  A sweep
    index prunes the sweep instead, for a _DeterminantBound only: the
    visits start at first and walk outward, and a point is skipped when
    bound.admits(b22, top) fails for the largest bound top > 0 found so far.
    Its bound is then strictly below top, so it is not the sweep's first
    maximum, and the bracket, refinement, guard and notes are those of the
    full sweep.  Only the trace differs: it holds the evaluated points in
    visit order, so a caller prunes only when it discards the trace.
    """
    b_hi = 4.0 * params.Bf
    trace: List[Tuple[float, float, float]] = []

    def f(b22: float) -> float:
        k = bound.bound(b22)
        trace.append((b22, params.alpha, k))
        return k

    pts = [b_hi * i / _SWEEP_POINTS for i in range(1, _SWEEP_POINTS + 1)]
    order = range(len(pts))
    if first is not None:
        order = sorted(order, key=lambda i: (abs(i - first), i))
    vals: Dict[int, float] = {}
    top = 0.0
    for i in order:
        if first is None or top == 0.0 or bound.admits(pts[i], top):
            vals[i] = f(pts[i])
            top = max(top, vals[i])
    best = max(sorted(vals), key=vals.__getitem__)
    lo_b = pts[best - 1] if best > 0 else 0.5 * pts[0]
    hi_b = pts[best + 1] if best + 1 < len(pts) else b_hi

    b_opt, k_max = _golden_max(f, lo_b, hi_b, _B22_TOL)
    guard = "guard: refinement held the sweep maximum"
    if vals[best] > k_max:
        b_opt, k_max = pts[best], vals[best]
        guard = "guard: sweep sample kept (refinement scored lower)"

    notes = (
        f"criterion={crit}; sweep {_SWEEP_POINTS} points on (0, {b_hi:g}]; "
        f"bracket [{lo_b:.6g}, {hi_b:.6g}]; {guard}"
    )
    result = OptimizationResult(
        b22_opt=b_opt,
        alpha_opt=params.alpha,
        k22_max=k_max,
        criterion=crit,
        trace=tuple(trace),
        notes=notes,
    )
    return result, best


def maximize_k22_over_alpha(
    params: SystemParams,
    criterion: str = "passivity",
    grid: Optional[np.ndarray] = None,
) -> OptimizationResult:
    """Joint optimum over the feedforward blend alpha and b22.

    Runs maximize_k22's search at both endpoints of [0, 1] and at
    golden-section probes in between, returning the best inner optimum;
    alpha values whose plant fails the coupler-independent conditions
    contribute k22 = 0.  The trace holds one (b22_opt, alpha, k22_max) per
    alpha and the inner traces are discarded, so under the passivity
    criterion each inner sweep is pruned (see _search_b22): it starts at the
    previous alpha's best sweep index and its first estimate at the previous
    alpha's stationary point.  The first alpha starts one point below
    b22 = 4*Bf: at 4*Bf the frontier estimate finds no stationary minimum to
    start the next Newton from, so starting there costs a second eigenvalue
    fallback.  Each inner result is the one maximize_k22 returns, apart
    from its trace; grid and the errors are maximize_k22's.
    """
    crit = _normalize_criterion(criterion, grid)
    _require_baseline(params)

    results: dict[float, OptimizationResult] = {}
    trace: List[Tuple[float, float, float]] = []
    first, start = _SWEEP_POINTS - 2, None

    def inner(alpha: float) -> OptimizationResult:
        nonlocal first, start
        a = min(max(float(alpha), 0.0), 1.0)
        if a not in results:
            p = params.replace(alpha=a)
            try:
                _require_baseline(p)
            except BaselineNotPassive:
                res = OptimizationResult(
                    b22_opt=4.0 * params.Bf,
                    alpha_opt=a,
                    k22_max=0.0,
                    criterion=crit,
                    trace=(),
                    notes="coupler-independent conditions fail at this alpha",
                )
            else:
                if crit == "passivity":
                    bound = _DeterminantBound(p, start)
                    res, first = _search_b22(p, crit, bound, first)
                    start = bound.start
                else:
                    res, _ = _search_b22(p, crit, _LlewellynBound(p, grid))
            results[a] = res
            trace.append((res.b22_opt, a, res.k22_max))
        return results[a]

    a_star, _ = _golden_max(lambda a: inner(a).k22_max, 0.0, 1.0, _ALPHA_TOL)
    best = max((inner(0.0), inner(1.0), inner(a_star)), key=lambda r: r.k22_max)
    return OptimizationResult(
        b22_opt=best.b22_opt,
        alpha_opt=best.alpha_opt,
        k22_max=best.k22_max,
        criterion=crit,
        trace=tuple(trace),
        notes=f"criterion={crit}; alpha golden-section on [0, 1] to {_ALPHA_TOL:g} "
        f"plus endpoints; inner: {best.notes}",
    )
