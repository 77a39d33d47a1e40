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
k22_upper_bound; "absolute" maximizes the largest k22 at which the sampled
Llewellyn margin used by check_absolute_stability holds on the same default
grid, so the returned optimum is consistent with that checker's verdicts.
Both run the one k22 search, passivity._sup_feasible, with a band of k22
taken to pass below it and to fail above it, and each search builds its
objective once per plant:

- passivity keeps the plant's integer vectors of 4*r and w, and decides
  each b22 by one search banded around a float estimate of the frontier,
  certified by at most two exact probes (see passivity._DeterminantBound);
- absolute samples the plant's memoized entries h11 and h12 once and turns
  each sample into a threshold g on Re h22 = b22*w^2 / (k22^2 + b22^2*w^2).
  Per b22, k*^2 = min over {g > 0} of (b22*w^2/g - b22^2*w^2) is one vector
  op, and the band is k* narrowed by its rounding allowances; the grid
  margin decides only probes inside it and grids the closed form does not
  cover (see _LlewellynBound), so the bound is the bisected one bit for bit.

Each objective lives for one maximize_k22 call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .errors import BaselineNotPassive, InvalidParams
from .model import SystemParams
from .passivity import (
    _LLEWELLYN_POINTS,
    _LLEWELLYN_TOL,
    _TINY,
    _DeterminantBound,
    _llewellyn_margin,
    _plant_analysis,
    _sup_feasible,
    check_condition_a,
    check_condition_b,
    check_condition_c_i,
    default_grid,
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


def _normalize_criterion(criterion: str) -> str:
    c = str(criterion).strip().lower()
    if c not in _CRITERIA:
        raise ValueError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
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


_UNBOUNDED = (
    "the Llewellyn margin holds at every k22 tried up to the 1e15 search"
    " ceiling on this grid, so the grid does not bound k22"
)
# The closed form needs Re h11, |h12| and w^2 of every finite sample in
# [1/_RANGE, _RANGE], and b22 in [1/_B22_RANGE, _B22_RANGE]: every float step
# of the sampled margin is then a normal double at each k22 the search can
# probe (k22 <= 2**49), so its verdict is the exact one up to rounding.
_RANGE = 1e60
_B22_RANGE = 1e30
# Rounding allowances: g's numerator is widened by _SLACK*(|Re h12| + |h12|),
# far above the float margin's error (about 20 ulp of that), and each
# threshold by _WINDOW of b22*w^2/g.
_SLACK = 1e-12
_WINDOW = 1e-9


class _LlewellynBound:
    """Largest k22 at which the sampled Llewellyn margin holds, per b22.

    h11 and h12 do not depend on the coupler, so their grid samples are
    computed once.  The margin is the one llewellyn_grid_margins computes,
    and the acceptance tolerance is check_absolute_stability's default;
    feasible(k22, b22) evaluates it on the whole grid.

    bound(b22) returns exactly what bisecting feasible(., b22) returns, but
    decides the probes in closed form.  At a sample with Re h11 > 0,
    margin >= -tol reads Re h22 >= g with
        g = (|h12| - Re h12 - 2*tol*|h12| - tol*_TINY) / (2*Re h11*(1 + tol)),
    and Re h22 = b22*w^2 / (k22^2 + b22^2*w^2) falls with k22, so a sample
    with g > 0 holds iff k22^2 <= b22*w^2/g - b22^2*w^2, and one with g <= 0
    at every k22.  So k*^2 = min over {g > 0} of (b22*w^2/g - b22^2*w^2)
    decides each probe: one vector op per b22 instead of about 30 grid
    evaluations.  _sup_feasible takes k22 at or below the square root of
    the lower threshold to pass and at or above that of the upper one to
    fail.  The grid margin still decides
    - feasible(0, b22), as before;
    - a probe inside the rounding band around k* (the _WINDOW and _SLACK
      allowances, at least 1e-9 of k*^2);
    - every probe when a finite sample has Re h11 <= 0 (there the margin
      does not fall with k22) or a magnitude outside _RANGE, or b22 lies
      outside _B22_RANGE.

    Raises InvalidParams when no grid point has finite h11 and h12 samples,
    and bound() raises it when the margin holds at every k22 the doubling
    search tries below its 1e15 ceiling, i.e. when the grid does not bound
    k22: at once when no sample has g > 0.
    """

    def __init__(self, params: SystemParams, omegas: np.ndarray) -> None:
        memo = _plant_analysis(params)
        h11, h12 = memo.h11.eval_grid(omegas), memo.h12.eval_grid(omegas)
        if not np.any(np.isfinite(h11) & np.isfinite(h12)):
            raise InvalidParams(
                "h11 and h12 overflow double precision at every grid point"
            )
        self._re11 = h11.real
        self._re12 = h12.real
        self._abs12 = np.abs(h12)
        with np.errstate(all="ignore"):
            self._w2 = np.asarray(omegas, dtype=float) ** 2
        self._edges = self._closed_form_edges()

    def _closed_form_edges(self) -> Optional[Tuple[np.ndarray, ...]]:
        """(w2_h, c_h, w2_f, c_f) for the closed form, or None for grid-only.

        A probe surely holds when k22^2 < b22*min(c_h - b22*w2_h) and surely
        fails when k22^2 > b22*min(c_f - b22*w2_f).  Both c are w^2/g, with
        g's numerator widened by the slack (up for c_h, down for c_f) and c
        scaled by 1 -/+ _WINDOW.  Samples with a non-finite Re h11, Re h12 or
        |h12| have a NaN margin at every probe and drop out, as in nanmin.
        """
        tol = _LLEWELLYN_TOL
        finite = np.isfinite(self._re11) & np.isfinite(self._re12) & np.isfinite(self._abs12)
        re11, re12, abs12, w2 = (
            a[finite] for a in (self._re11, self._re12, self._abs12, self._w2)
        )
        if not re11.size or not all(
            np.all((a >= 1.0 / _RANGE) & (a <= _RANGE)) for a in (re11, abs12, w2)
        ):
            return None
        num = abs12 - re12 - 2.0 * tol * abs12 - tol * _TINY
        slack = _SLACK * (np.abs(re12) + abs12)
        scale = 2.0 * (1.0 + tol) * re11 * w2  # w^2/g = scale/num
        can_fail = num + slack > 0.0
        must_fail = num - slack > 0.0
        return (
            w2[can_fail],
            scale[can_fail] / (num + slack)[can_fail] * (1.0 - _WINDOW),
            w2[must_fail],
            scale[must_fail] / (num - slack)[must_fail] * (1.0 + _WINDOW),
        )

    def feasible(self, k22: float, b22: float) -> bool:
        with np.errstate(all="ignore"):
            re22 = b22 * self._w2 / (k22 * k22 + b22 * b22 * self._w2)
        margins = _llewellyn_margin(self._re11, self._re12, self._abs12, re22)
        return float(np.nanmin(margins)) >= -_LLEWELLYN_TOL

    def bound(self, b22: float, tol: float = 1e-3) -> float:
        if not (b22 > 0.0 and math.isfinite(b22)):
            return 0.0
        if not self.feasible(0.0, b22):
            return 0.0
        # the grid has passed k22 = 0 already, and decides every k22 in (0, inf)
        below, above = 0.0, math.inf
        if self._edges is not None and 1.0 / _B22_RANGE <= b22 <= _B22_RANGE:
            w2_h, c_h, w2_f, c_f = self._edges
            if not w2_h.size:
                raise InvalidParams(_UNBOUNDED)
            below = math.sqrt(max(b22 * float(np.min(c_h - b22 * w2_h)), 0.0))
            if w2_f.size:
                above = math.sqrt(max(b22 * float(np.min(c_f - b22 * w2_f)), 0.0))
        try:
            return _sup_feasible(lambda k22: self.feasible(k22, b22), None, tol, below, above)[0]
        except RuntimeError:
            # the doubling search met no failing k22 below its 1e15 ceiling
            raise InvalidParams(_UNBOUNDED) from None


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
    sweep acting as the unimodality guard for the local refinement.

    Raises BaselineNotPassive when Bf = 0 or any coupler-independent
    condition fails.
    """
    crit = _normalize_criterion(criterion)
    _require_baseline(params)

    if crit == "passivity":
        objective = _DeterminantBound(params).bound
    else:
        omegas = default_grid(_LLEWELLYN_POINTS) if grid is None else grid
        objective = _LlewellynBound(params, omegas).bound
    b_hi = 4.0 * params.Bf
    trace: List[Tuple[float, float, float]] = []

    def f(b22: float) -> float:
        k = objective(b22)
        trace.append((b22, params.alpha, k))
        return k

    pts = [b_hi * i / _SWEEP_POINTS for i in range(1, _SWEEP_POINTS + 1)]
    vals = [f(b) for b in pts]
    best = max(range(len(pts)), key=vals.__getitem__)
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
    return OptimizationResult(
        b22_opt=b_opt,
        alpha_opt=params.alpha,
        k22_max=k_max,
        criterion=crit,
        trace=tuple(trace),
        notes=notes,
    )


def maximize_k22_over_alpha(
    params: SystemParams,
    criterion: str = "passivity",
    grid: Optional[np.ndarray] = None,
    alpha_candidates: Optional[Iterable[float]] = None,
) -> OptimizationResult:
    """Joint optimum over the feedforward blend alpha and b22.

    Runs maximize_k22 at both endpoints of [0, 1] and at golden-section
    probes in between, returning the best inner optimum; alpha values whose
    plant fails the coupler-independent conditions contribute k22 = 0.
    Passing alpha_candidates restricts the search to exactly those values
    (no interior refinement).
    """
    crit = _normalize_criterion(criterion)
    _require_baseline(params)

    results: dict[float, OptimizationResult] = {}
    trace: List[Tuple[float, float, float]] = []

    def inner(alpha: float) -> OptimizationResult:
        a = min(max(float(alpha), 0.0), 1.0)
        if a not in results:
            try:
                res = maximize_k22(params.replace(alpha=a), crit, grid)
            except BaselineNotPassive:
                res = OptimizationResult(
                    b22_opt=4.0 * params.Bf,
                    alpha_opt=a,
                    k22_max=0.0,
                    criterion=crit,
                    trace=(),
                    notes="coupler-independent conditions fail at this alpha",
                )
            results[a] = res
            trace.append((res.b22_opt, a, res.k22_max))
        return results[a]

    if alpha_candidates is not None:
        candidates = [inner(a) for a in alpha_candidates]
        if not candidates:
            raise ValueError("alpha_candidates must be non-empty when given")
        note = f"alpha restricted to {sorted(results)}"
    else:
        a_star, _ = _golden_max(lambda a: inner(a).k22_max, 0.0, 1.0, _ALPHA_TOL)
        candidates = [inner(0.0), inner(1.0), inner(a_star)]
        note = f"alpha golden-section on [0, 1] to {_ALPHA_TOL:g} plus endpoints"

    best = max(candidates, key=lambda r: r.k22_max)
    return OptimizationResult(
        b22_opt=best.b22_opt,
        alpha_opt=best.alpha_opt,
        k22_max=best.k22_max,
        criterion=crit,
        trace=tuple(trace),
        notes=f"criterion={crit}; {note}; inner: {best.notes}",
    )
