"""Two-port passivity and absolute-stability criteria for the coupled drive.

The hybrid two-port built by model.hybrid_matrix is passive iff

  (a)    its characteristic quartic has no open-right-half-plane roots,
  (b)    any imaginary-axis pole pair is simple with real positive residues,
  (c-i)  the driving-point real part Re h11(j*w) is nonnegative for all w,
  (c-ii) Re h11 * Re h22 >= |(conj(h12) + h21)/2|**2 for all w.

Both (c) conditions reduce to the nonnegativity of a cubic in x = w**2 on
[0, inf).  Each cubic verdict is computed twice independently -- by the
closed-form rule (poly.cubic_nonneg_closed_form) and by an exact Sturm-chain
test (poly.is_nonnegative_on) -- and the two must agree exactly; any
disagreement raises, because both routes are exact.  The structural
reduction itself (which cubic decides which condition) is re-derived from
the two-port entries at runtime and compared coefficient-by-coefficient in
exact rational arithmetic against the direct coefficient construction.

Absolute stability keeps (a), (b), (c-i) and replaces (c-ii) with the
Llewellyn form 2*Re h11*Re h22 - Re(h12*h21) - |h12*h21| >= 0, decided on a
dense frequency grid (the modulus term is not polynomial in w**2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidParams
from .model import (
    DerivedCoefficients,
    HybridMatrix,
    SystemParams,
    VirtualCoupler,
    coupler_coefficients,
    derive_coefficients,
    h11_numerator_cubic,
    hybrid_matrix,
    plant_coefficients,
    unreduced_entries,
)
from .poly import (
    POS_INF,
    Polynomial,
    _exact,
    cubic_nonneg_closed_form,
    first_clause,
    is_nonnegative_on,
)
from .stability import (
    RationalFunction,
    analyze_denominator,
    axis_residue_fault,
    imaginary_axis_pole,
    quartic_hurwitz,
    real_part_even_polynomial,
    residues_positive_real,
)

__all__ = [
    "ConditionReport",
    "PassivityReport",
    "AbsoluteStabilityReport",
    "check_condition_a",
    "check_condition_b",
    "check_condition_c_i",
    "check_condition_c_ii",
    "k22_upper_bound",
    "check_two_port_passivity",
    "check_sufficient_conditions",
    "check_absolute_stability",
    "two_port_grid_margins",
    "llewellyn_grid_margins",
    "default_grid",
]

_UNIT_COUPLER = VirtualCoupler(1.0, 1.0)

# Tiny additive guard so normalized margins never divide by zero.
_TINY = 1e-300


def default_grid(points: int = 2000) -> np.ndarray:
    """Logarithmic frequency grid over the standard probe band [1e-3, 1e6]."""
    return np.logspace(-3.0, 6.0, points)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a single passivity condition.

    branch identifies which closed-form clause decided a passing (c)
    condition ('i1'/'i2'/'ii1'/'ii2', or 'generic' for degenerate shapes);
    failing identifies the violated piece on failure (e.g. 't0', 't3',
    'interior', 'margin', 'residue').  witness_omega is a frequency at which
    the condition demonstrably fails, when one exists.
    """

    name: str
    passed: bool
    margin: Optional[float] = None
    branch: Optional[str] = None
    failing: Optional[str] = None
    witness_omega: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class PassivityReport:
    condition_a: ConditionReport
    condition_b: ConditionReport
    condition_c_i: ConditionReport
    condition_c_ii: ConditionReport
    overall: bool
    grid_min_determinant: Optional[float] = None
    grid_min_re_h11: Optional[float] = None
    grid_argmin_omega: Optional[float] = None
    witnesses: Tuple[float, ...] = ()


@dataclass(frozen=True)
class AbsoluteStabilityReport:
    condition_a: ConditionReport
    condition_b: ConditionReport
    condition_c_i: ConditionReport
    llewellyn_ok: bool
    min_margin: Optional[float]
    argmin_omega: Optional[float]
    grid_points: int
    overall: bool


# --------------------------------------------------------------------------
# conditions (a) and (b): pole locations and residues


def check_condition_a(params: SystemParams) -> ConditionReport:
    """No open-right-half-plane poles of the drive two-port.

    With both integral gains positive the characteristic quartic has
    strictly positive coefficients and the closed-form Hurwitz margin
    decides; the margin is cross-checked against the generic exact
    root-location analysis.  Degenerate integral gains reduce the
    denominator degree and only the generic analysis applies.
    """
    h = hybrid_matrix(params, _UNIT_COUPLER)
    c = h.coeffs
    analysis = analyze_denominator(h.h11.den)

    if params.Im > 0 and params.If > 0:
        qh = quartic_hurwitz((c.a4, c.a3, c.a2, c.a1, c.a0))
        if qh.no_open_rhp != analysis.open_rhp_free:
            raise RuntimeError(
                "internal: quartic margin and generic root analysis disagree"
            )
        return ConditionReport(
            name="condition_a",
            passed=qh.no_open_rhp,
            margin=float(qh.margin),
            branch="quartic-margin",
            failing=None if qh.no_open_rhp else "margin",
        )
    return ConditionReport(
        name="condition_a",
        passed=analysis.open_rhp_free,
        margin=None,
        branch="generic",
        failing=None if analysis.open_rhp_free else "rhp-root",
        note="degenerate integral gain: reduced-degree denominator",
    )


def check_condition_b(params: SystemParams) -> ConditionReport:
    """Imaginary-axis poles (if any) are simple with real positive residues.

    The quartic has an axis pole pair exactly when the Hurwitz margin
    vanishes; the test is relative (see stability.imaginary_axis_pole) and
    runs on the same exact quartic as condition (a).  When a pair is
    present, the residue sign/reality conditions are evaluated in the
    multiplied-through closed form (see stability.residues_positive_real).
    Away from the boundary the condition is vacuously true.
    """
    if params.Im > 0 and params.If > 0:
        c = derive_coefficients(params, _UNIT_COUPLER)
        den = (c.a4, c.a3, c.a2, c.a1, c.a0)
        p = imaginary_axis_pole(den)
        if p is None:
            return ConditionReport(
                name="condition_b",
                passed=True,
                branch="no-axis-pole",
                note="vacuous: characteristic quartic has no imaginary-axis pole",
            )
        ok = residues_positive_real(h11_numerator_cubic(params), den)
        beta = _beta(params, c)
        return ConditionReport(
            name="condition_b",
            passed=ok,
            margin=float(beta),
            branch="residue-closed-form",
            failing=None if ok else "residue",
            witness_omega=None if ok else p,
            note=f"axis pole pair at omega = {p:.6g} rad/s",
        )

    # degenerate integral gains: generic pole analysis + numeric residues
    h11 = hybrid_matrix(params, _UNIT_COUPLER).h11
    fault = axis_residue_fault(
        h11.num, h11.den, analyze_denominator(h11.den).imaginary_pairs
    )
    if fault is not None:
        return ConditionReport(
            name="condition_b", passed=False, branch="generic",
            failing=fault[0], witness_omega=fault[1],
        )
    return ConditionReport(
        name="condition_b", passed=True, branch="generic",
        note="degenerate integral gain: numeric residue checks",
    )


def _beta(params: SystemParams, c: DerivedCoefficients) -> Fraction:
    """a3*b1 - a1*b3 for the h11 numerator cubic: residue-positivity pivot."""
    b3, _, b1, _ = h11_numerator_cubic(params)
    return c.a3 * b1 - c.a1 * b3


# --------------------------------------------------------------------------
# cubic decisions shared by (c-i) and (c-ii)


def _decide_cubic(
    c3: Fraction, c2: Fraction, c1: Fraction, c0: Fraction, context: str
) -> Tuple[bool, Optional[float]]:
    """Exact cubic-on-[0,inf) verdict via two independent exact routes."""
    closed = cubic_nonneg_closed_form(c3, c2, c1, c0)
    sturm, witness_x = is_nonnegative_on(Polynomial([c0, c1, c2, c3]), (0, POS_INF))
    if closed != sturm:
        raise RuntimeError(
            f"internal: closed-form ({closed}) and Sturm ({sturm}) verdicts "
            f"disagree for {context}"
        )
    return closed, witness_x


def _verify_c_i_identity(params: SystemParams, c: DerivedCoefficients) -> None:
    """Re h11 * |D|**2 must equal x*(r3 x^3 + r2 x^2 + r1 x + r0) exactly."""
    N11, _, D = unreduced_entries(params, c)
    f11 = real_part_even_polynomial(N11, D)
    direct = Polynomial([0, c.r0, c.r1, c.r2, c.r3])
    if f11 != direct:
        raise RuntimeError(
            "internal: generic real-part polynomial of h11 does not match "
            "the closed-form coefficients"
        )


def _verify_c_ii_identity(
    params: SystemParams, coupler: VirtualCoupler, c: DerivedCoefficients
) -> None:
    """The scaled determinant polynomial must equal x**2 * t-cubic exactly.

    4*b22*x*f11(x) - (k22**2 + b22**2*x) * |N12 - D|**2(x)
      == x**2 * (t3 x^3 + t2 x^2 + t1 x + t0)
    """
    N11, N12, D = unreduced_entries(params, c)
    f11 = real_part_even_polynomial(N11, D)
    V = N12 - D
    W = real_part_even_polynomial(V, V)  # |V(j*w)|**2 as a polynomial in x
    k22, b22 = _exact(coupler.k22), _exact(coupler.b22)
    x_f11 = Polynomial([Fraction(0)] + list(f11.coeffs))
    lhs = x_f11.scale(4 * b22) - Polynomial([k22 * k22, b22 * b22]) * W
    rhs = Polynomial([0, 0, c.t0, c.t1, c.t2, c.t3])
    if lhs != rhs:
        raise RuntimeError(
            "internal: generic determinant polynomial does not match the "
            "closed-form t-coefficients"
        )


@functools.lru_cache(maxsize=512)
def _c_i_cached(params: SystemParams) -> ConditionReport:
    c = derive_coefficients(params, _UNIT_COUPLER)
    _verify_c_i_identity(params, c)
    passed, witness_x = _decide_cubic(c.r3, c.r2, c.r1, c.r0, "condition (c-i)")

    branch: Optional[str] = None
    failing: Optional[str] = None
    if params.Bf == 0:
        branch = "generic"  # quadratic shape; decided by the same exact routes
    elif passed:
        branch = "i1" if first_clause(c.r3, c.r2, c.r1) else "i2"
    else:
        failing = "r0" if c.r0 < 0 else "interior"
    return ConditionReport(
        name="condition_c_i",
        passed=passed,
        branch=branch,
        failing=failing,
        witness_omega=math.sqrt(witness_x) if witness_x is not None else None,
    )


def check_condition_c_i(params: SystemParams) -> ConditionReport:
    """Re h11(j*w) >= 0 for all w, decided exactly.

    Reduces to r3 x^3 + r2 x^2 + r1 x + r0 >= 0 on x = w**2 >= 0 (the
    common factor x is stripped; by continuity the verdicts agree).  The
    reduction is verified against the two-port entries on every call.
    """
    return _c_i_cached(params)


def check_condition_c_ii(params: SystemParams, coupler: VirtualCoupler) -> ConditionReport:
    """Two-port real-part determinant condition, decided exactly.

    Reduces to t3 x^3 + t2 x^2 + t1 x + t0 >= 0 on x = w**2 >= 0.  The
    failing label distinguishes the leading-coefficient violations (t3 < 0:
    coupler damping above 4*Bf; with b22 == 0 the x^2 coefficient -k22^2*M^2
    takes over as 't2'), the static violation (t0 < 0: coupler stiffness
    beyond the static bound), and an interior dip ('interior').
    """
    c = derive_coefficients(params, coupler)
    _verify_c_ii_identity(params, coupler, c)
    passed, witness_x = _decide_cubic(c.t3, c.t2, c.t1, c.t0, "condition (c-ii)")

    branch: Optional[str] = None
    failing: Optional[str] = None
    if passed:
        branch = "ii1" if first_clause(c.t3, c.t2, c.t1) else "ii2"
    else:
        if c.t0 < 0:
            failing = "t0"
        elif c.t3 < 0:
            failing = "t3"
        elif coupler.b22 == 0 and c.t2 < 0:
            failing = "t2"
        else:
            failing = "interior"
    return ConditionReport(
        name="condition_c_ii",
        passed=passed,
        branch=branch,
        failing=failing,
        witness_omega=math.sqrt(witness_x) if witness_x is not None else None,
    )


# --------------------------------------------------------------------------
# coupler bounds


def _sup_feasible(
    feasible: Callable[[float], bool], lo: float, hi: Optional[float], tol: float
) -> float:
    """Bisect for the supremum of a feasible interval [lo, k*].

    feasible(lo) must hold.  hi is a point known to fail, or None to find
    one by doubling from 1.0.  Returns the feasible end of the final
    bracket, whose width is at most tol.
    """
    if hi is None:
        hi = 1.0
        while feasible(hi):
            hi *= 2.0
            if hi > 1e15:
                raise RuntimeError("k22 bound bracket failed to close")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


class _DeterminantBound:
    """sup{k22 >= 0 : condition (c-ii) holds} for one plant, at any b22.

    The coupler-independent coefficients are derived once, on construction;
    each bound(b22) combines them with the coupler.  An instance holds no
    state beyond its plant, so a caller keeps it for one search only.
    """

    def __init__(self, params: SystemParams) -> None:
        self._plant = plant_coefficients(params)
        self._ia = float(Fraction(params.Im) + Fraction(params.alpha) * Fraction(params.Kf))
        self._r0x4 = max(float(4 * self._plant.r0), 0.0)

    def _t_cubic(self, k22: float, b22: float) -> Tuple[Fraction, ...]:
        c = coupler_coefficients(self._plant, VirtualCoupler(k22, b22))
        return (c.t0, c.t1, c.t2, c.t3)

    def bound(self, b22: float, tol: float = 1e-3) -> float:
        if b22 <= 0 or not math.isfinite(b22):
            return 0.0

        # t0..t2 are affine in K = k22**2 and t3 is constant, so two exact
        # derivations pin the whole family; a third verifies the affine shape.
        base = self._t_cubic(0.0, b22)
        step = tuple(u - b for b, u in zip(base, self._t_cubic(1.0, b22)))
        if self._t_cubic(2.0, b22) != tuple(b + 4 * s for b, s in zip(base, step)):
            raise RuntimeError("internal: t-coefficients are not affine in k22**2")

        # Clear denominators once: at k22 = kn/kd the cubic times
        # scale*kd**2 > 0 has integer coefficients base*kd**2 + step*kn**2,
        # and a positive scale leaves the closed-form verdict unchanged.
        scale = math.lcm(*(q.denominator for q in base + step))
        ibase = tuple(q.numerator * (scale // q.denominator) for q in base)
        istep = tuple(q.numerator * (scale // q.denominator) for q in step)

        def feasible(k22: float) -> bool:
            # closed-form rule only: exact, and proven equivalent to the Sturm
            # route (which the condition checks still run on every verdict).
            kn, kd = k22.as_integer_ratio()
            n2, d2 = kn * kn, kd * kd
            t0, t1, t2, t3 = (b * d2 + s * n2 for b, s in zip(ibase, istep))
            return cubic_nonneg_closed_form(t3, t2, t1, t0)

        if not feasible(0.0):
            return 0.0
        hi = None
        if self._ia > 0:
            hi = math.sqrt(self._r0x4 * b22) / self._ia
            if hi == 0.0:
                return 0.0
            if feasible(hi):
                return hi
        return _sup_feasible(feasible, 0.0, hi, tol)


def k22_upper_bound(params: SystemParams, b22: float, tol: float = 1e-3) -> float:
    """sup{k22 >= 0 : determinant condition (c-ii) holds}, by bisection.

    The scaled determinant polynomial decreases pointwise in k22**2, so the
    feasible set is an interval [0, k*]; k* is bracketed by the static bound
    sqrt(4*b22*r0)/(Im + alpha*Kf) when that is finite and found to
    absolute tolerance tol.  Returns 0.0 when no positive k22 is feasible
    (including b22 <= 0 and b22 > 4*Bf).

    The coupler-independent coefficients are derived once per plant; to
    bound many b22 values of one plant, the optimizer keeps that part for
    the whole search.  The t-cubic is affine in k22**2, so it is scaled to
    integers once per b22 and every bisection probe decides a cubic with
    Python int coefficients, without Fraction normalization.
    """
    return _DeterminantBound(params).bound(b22, tol)


# --------------------------------------------------------------------------
# grid margins (sampling routes)


def _entry_grids(params: SystemParams, coupler: VirtualCoupler, omegas: np.ndarray):
    h = hybrid_matrix(params, coupler)
    return (
        h.h11.eval_grid(omegas),
        h.h12.eval_grid(omegas),
        h.h22.eval_grid(omegas),
    )


def two_port_grid_margins(
    params: SystemParams, coupler: VirtualCoupler, omegas: np.ndarray
):
    """Normalized sampled margins of the two-port passivity conditions.

    Returns (m11, m22, mdet): dimensionless arrays in [-1, 1] whose signs
    match Re h11, Re h22 and the real-part determinant
    Re h11 * Re h22 - |(conj(h12) + h21)/2|**2 with h21 = -1.
    Non-finite samples (exactly at a pole) come back as NaN.
    """
    h11, h12, h22 = _entry_grids(params, coupler, omegas)
    return _two_port_margins(h11, h12 - 1.0, h22)


def _two_port_margins(h11: np.ndarray, h12m1: np.ndarray, h22: np.ndarray):
    """(m11, m22, mdet) from samples of h11, h12 - 1 and h22."""
    m11 = h11.real / (np.abs(h11) + _TINY)
    m22 = h22.real / (np.abs(h22) + _TINY)
    cross = 0.25 * np.abs(h12m1) ** 2
    det = h11.real * h22.real - cross
    scale = np.abs(h11.real * h22.real) + cross + _TINY
    return m11, m22, det / scale


def _confirm_sampled_dip(
    params: SystemParams,
    coupler: VirtualCoupler,
    omegas: np.ndarray,
    m11: np.ndarray,
    margin_tol: float,
) -> None:
    """Raise if the sampled margins still dip with h12 - 1 formed exactly.

    Near DC h12 -> 1, so h12 - 1 taken from sampled h12 loses its digits to
    cancellation and the determinant margin can dip falsely.  Forming
    h12 - 1 = (N12 - D)/D exactly and sampling it afterwards does not.
    """
    h = hybrid_matrix(params, coupler)
    h12m1 = RationalFunction(h.h12.num - h.h12.den, h.h12.den)
    _, _, mdet = _two_port_margins(
        h.h11.eval_grid(omegas), h12m1.eval_grid(omegas), h.h22.eval_grid(omegas)
    )
    worst = np.minimum(m11, mdet)
    ok = np.isfinite(worst)
    idx = int(np.argmin(worst[ok]))
    dip = float(worst[ok][idx])
    if dip < -margin_tol:
        raise RuntimeError(
            "internal: exact passivity verdict passes but sampled "
            f"margins dip to {dip:.3e} near omega = {float(omegas[ok][idx]):.6g} rad/s"
        )


def _llewellyn_margin(re11, re12, abs12, re22):
    """Normalized Llewellyn margin from samples of Re h11, Re h12, |h12| and Re h22."""
    prod = re11 * re22
    L = 2.0 * prod + re12 - abs12
    scale = 2.0 * np.abs(prod) + 2.0 * abs12 + _TINY
    return L / scale


def llewellyn_grid_margins(
    params: SystemParams, coupler: VirtualCoupler, omegas: np.ndarray
):
    """Normalized sampled margin of the Llewellyn real-part condition.

    2*Re h11*Re h22 - Re(h12*h21) - |h12*h21| with h21 = -1, i.e.
    2*Re h11*Re h22 + Re h12 - |h12|, divided by the sum of the magnitudes
    of its terms.
    """
    h11, h12, h22 = _entry_grids(params, coupler, omegas)
    return _llewellyn_margin(h11.real, h12.real, np.abs(h12), h22.real)


# --------------------------------------------------------------------------
# top-level checks


def check_two_port_passivity(
    params: SystemParams,
    coupler: VirtualCoupler,
    grid: Optional[np.ndarray] = None,
    margin_tol: float = 1e-7,
) -> PassivityReport:
    """Full two-port passivity verdict with a sampled cross-check.

    The verdict is the conjunction of the four exact condition checks.  When
    the exact verdict passes and the two-port is stable, the sampled
    determinant margins over the grid must confirm it (within -margin_tol);
    a decisive sampled violation of an exact pass raises, because one of
    the routes must then be wrong.  A dip is first rechecked with h12 - 1
    formed exactly, which removes the cancellation near DC; the reported
    grid margins stay those of the sampled h12.
    """
    a = check_condition_a(params)
    b = check_condition_b(params)
    ci = check_condition_c_i(params)
    cii = check_condition_c_ii(params, coupler)
    overall = a.passed and b.passed and ci.passed and cii.passed

    witnesses = tuple(
        w for w in (ci.witness_omega, cii.witness_omega) if w is not None
    )

    grid_min_det = None
    grid_min_re11 = None
    grid_argmin = None
    if a.passed and b.passed:
        omegas = default_grid() if grid is None else np.asarray(grid, dtype=float)
        m11, m22, mdet = two_port_grid_margins(params, coupler, omegas)
        ok = np.isfinite(mdet) & np.isfinite(m11)
        if np.any(ok):
            worst = np.minimum(m11[ok], mdet[ok])
            idx = int(np.argmin(worst))
            grid_min_det = float(np.min(mdet[ok]))
            grid_min_re11 = float(np.min(m11[ok]))
            grid_argmin = float(omegas[ok][idx])
            if overall and min(grid_min_det, grid_min_re11) < -margin_tol:
                _confirm_sampled_dip(params, coupler, omegas, m11, margin_tol)
            if np.any(m22[ok] < -margin_tol):
                raise RuntimeError("internal: coupler one-port real part negative")

    return PassivityReport(
        condition_a=a,
        condition_b=b,
        condition_c_i=ci,
        condition_c_ii=cii,
        overall=overall,
        grid_min_determinant=grid_min_det,
        grid_min_re_h11=grid_min_re11,
        grid_argmin_omega=grid_argmin,
        witnesses=witnesses,
    )


def check_sufficient_conditions(
    params: SystemParams, coupler: VirtualCoupler
) -> ConditionReport:
    """All-coefficients-nonnegative sufficient test (with (a) and (b)).

    Requires conditions (a) and (b) plus r0, r1, r2 >= 0 and
    t0, t1, t2, t3 >= 0 -- under which both (c) cubics are trivially
    nonnegative, so this implies the full passivity verdict.  It is strictly
    stronger: instances exist that are passive while some coefficient is
    negative.
    """
    a = check_condition_a(params)
    b = check_condition_b(params)
    c = derive_coefficients(params, coupler)
    failed = []
    if not a.passed:
        failed.append("condition_a")
    if not b.passed:
        failed.append("condition_b")
    for name in ("r0", "r1", "r2"):
        if getattr(c, name) < 0:
            failed.append(name)
    for name in ("t0", "t1", "t2", "t3"):
        if getattr(c, name) < 0:
            failed.append(name)
    return ConditionReport(
        name="sufficient_conditions",
        passed=not failed,
        failing=",".join(failed) if failed else None,
    )


def check_absolute_stability(
    params: SystemParams,
    coupler: VirtualCoupler,
    grid: Optional[np.ndarray] = None,
    margin_tol: float = 1e-8,
) -> AbsoluteStabilityReport:
    """Absolute stability: (a), (b), (c-i) exact plus sampled Llewellyn margin.

    The Llewellyn condition is evaluated on the grid (default: 4000
    log-spaced points over [1e-3, 1e6] rad/s) and passes when the minimum
    normalized margin stays above -margin_tol.
    """
    a = check_condition_a(params)
    b = check_condition_b(params)
    ci = check_condition_c_i(params)

    omegas = default_grid(4000) if grid is None else np.asarray(grid, dtype=float)
    margins = llewellyn_grid_margins(params, coupler, omegas)
    ok = np.isfinite(margins)
    if np.any(ok):
        idx = int(np.argmin(margins[ok]))
        min_margin = float(margins[ok][idx])
        argmin_omega = float(omegas[ok][idx])
    else:
        min_margin, argmin_omega = None, None

    llewellyn_ok = min_margin is not None and min_margin >= -margin_tol
    overall = a.passed and b.passed and ci.passed and llewellyn_ok
    return AbsoluteStabilityReport(
        condition_a=a,
        condition_b=b,
        condition_c_i=ci,
        llewellyn_ok=llewellyn_ok,
        min_margin=min_margin,
        argmin_omega=argmin_omega,
        grid_points=int(omegas.size),
        overall=overall,
    )
