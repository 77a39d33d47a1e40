"""Two-port passivity and absolute-stability criteria for the coupled drive.

The hybrid two-port built by model.hybrid_matrix is passive iff

  (a)    its characteristic quartic has no open-right-half-plane roots,
  (b)    any imaginary-axis pole pair is simple with real positive residues,
  (c-i)  the driving-point real part Re h11(j*w) is nonnegative for all w,
  (c-ii) Re h11 * Re h22 >= |(conj(h12) + h21)/2|**2 for all w.

(a), (b) and (c-i) are properties of the drive alone: no coupler can repair
them.  They are computed together once per plant, with the plant
coefficients, and memoized; only (c-ii) and the Llewellyn margin depend on
the coupler (k22, b22).

Both (c) conditions reduce to the nonnegativity of a cubic in x = w**2 on
[0, inf).  Each cubic verdict is computed twice independently -- by the
closed-form rule (poly.cubic_nonneg_closed_form) and by an exact Sturm-chain
test (poly.is_nonnegative_on) -- and the two must agree exactly; any
disagreement raises, because both routes are exact.  The structural
reduction itself is verified once per plant, in exact rational arithmetic:
the real-part polynomials built generically from the two-port entries must
equal x*r(x) for h11 and x**2*w(x) for |h12 - 1|**2, coefficient by
coefficient.  The (c-ii) cubic t = 4*b22*r - (k22**2 + b22**2*x)*w then
needs no check per coupler.

Absolute stability keeps (a), (b), (c-i) and replaces (c-ii) with the
Llewellyn form 2*Re h11*Re h22 - Re(h12*h21) - |h12*h21| >= 0, decided on a
dense frequency grid (the modulus term is not polynomial in w**2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import InvalidParams
from .model import (
    PlantCoefficients,
    SystemParams,
    VirtualCoupler,
    _cancel_s,
    _coupler_port,
    coupler_coefficients,
    h11_numerator_cubic,
    plant_coefficients,
    unreduced_entries,
)
from .poly import (
    POS_INF,
    Polynomial,
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

# Tiny additive guard so normalized margins never divide by zero.
_TINY = 1e-300

# Relative half-width of the certified float bracket of the k22 frontier.
_BRACKET = 1e-9
# Newton steps that may polish an earlier b22's stationary point of the
# frontier before the eigenvalue route takes over.  After a sweep that ends
# at 4*Bf, the first refinement point's minimum can lie a few times below
# the sweep's last one: nine steps away on the nominal plant.
_NEWTON_STEPS = 16
# The float estimate divides the b22's integer cubics by one power of two
# that leaves the largest at most this many bits, so the products of its
# stationarity polynomial stay below the float range
_ESTIMATE_BITS = 500
# An exact probe first decides its cubic rounded down to this many bits
_ROUND_BITS = 128


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


def _verify_c_ii_identity(N12: Polynomial, D: Polynomial, p: PlantCoefficients) -> None:
    """|N12 - D|**2 (j*w) must equal x**2 * (w2 x^2 + w1 x + w0) exactly.

    With Re h11 * |D|**2 == x * r(x), this proves for every coupler that
    4*b22*x*f11(x) - (k22**2 + b22**2*x) * |N12 - D|**2(x) == x**2 * t(x),
    where t = 4*b22*r - (k22**2 + b22**2*x)*w is the cubic of condition (c-ii).
    """
    V = N12 - D
    if real_part_even_polynomial(V, V) != Polynomial([0, 0, p.w0, p.w1, p.w2]):
        raise RuntimeError(
            "internal: generic |h12 - 1|**2 polynomial does not match the "
            "closed-form w-coefficients"
        )


# --------------------------------------------------------------------------
# the coupler-independent conditions (a), (b) and (c-i), once per plant


@dataclass(frozen=True)
class _PlantAnalysis:
    """One plant's coefficients, s-cancelled h11 and h12, and (a), (b), (c-i)."""

    coeffs: PlantCoefficients
    h11: RationalFunction
    h12: RationalFunction
    a: ConditionReport
    b: ConditionReport
    c_i: ConditionReport


@functools.lru_cache(maxsize=512)
def _plant_analysis(params: SystemParams) -> _PlantAnalysis:
    """(a), (b) and (c-i) of one plant, sharing one derivation of its entries.

    One s-cancelled h11 and one exact root-location analysis of its
    denominator serve (a) and the degenerate-gain branch of (b).  The
    identities behind both (c) cubics are verified here, once per plant.
    """
    p = plant_coefficients(params)
    N11, N12, D = unreduced_entries(params, p)
    h11 = _cancel_s(N11, D)
    analysis = analyze_denominator(h11.den)

    if params.Im > 0 and params.If > 0:
        quartic = (p.a4, p.a3, p.a2, p.a1, p.a0)
        qh = quartic_hurwitz(quartic)
        if qh.no_open_rhp != analysis.open_rhp_free:
            raise RuntimeError("internal: quartic margin and generic root analysis disagree")
        a = ConditionReport(
            name="condition_a", passed=qh.no_open_rhp, margin=float(qh.margin),
            branch="quartic-margin", failing=None if qh.no_open_rhp else "margin",
        )
        if qh.margin != 0:
            b = ConditionReport(
                name="condition_b", passed=True, branch="no-axis-pole",
                note="vacuous: characteristic quartic has no imaginary-axis pole",
            )
        else:
            w = imaginary_axis_pole(quartic)  # exists: the margin is exactly zero
            cubic = h11_numerator_cubic(params)
            b3, _, b1, _ = cubic
            ok = residues_positive_real(cubic, quartic)
            b = ConditionReport(
                name="condition_b", passed=ok, margin=float(p.a3 * b1 - p.a1 * b3),
                branch="residue-closed-form", failing=None if ok else "residue",
                witness_omega=None if ok else w,
                note=f"axis pole pair at omega = {w:.6g} rad/s",
            )
    else:
        a = ConditionReport(
            name="condition_a", passed=analysis.open_rhp_free, branch="generic",
            failing=None if analysis.open_rhp_free else "rhp-root",
            note="degenerate integral gain: reduced-degree denominator",
        )
        fault = axis_residue_fault(h11.num, h11.den, analysis.imaginary_pairs)
        b = ConditionReport(
            name="condition_b", passed=fault is None, branch="generic",
            failing=fault and fault[0], witness_omega=fault and fault[1],
            note="" if fault else "degenerate integral gain: numeric residue checks",
        )

    # Re h11 * |D|**2 must equal x*(r3 x^3 + r2 x^2 + r1 x + r0) exactly
    if real_part_even_polynomial(N11, D) != Polynomial([0, p.r0, p.r1, p.r2, p.r3]):
        raise RuntimeError(
            "internal: generic real-part polynomial of h11 does not match "
            "the closed-form coefficients"
        )
    _verify_c_ii_identity(N12, D, p)
    passed, witness_x = _decide_cubic(p.r3, p.r2, p.r1, p.r0, "condition (c-i)")
    branch: Optional[str] = None
    failing: Optional[str] = None
    if params.Bf == 0:
        branch = "generic"  # quadratic shape; decided by the same exact routes
    elif passed:
        branch = "i1" if first_clause(p.r3, p.r2, p.r1) else "i2"
    else:
        failing = "r0" if p.r0 < 0 else "interior"
    c_i = ConditionReport(
        name="condition_c_i", passed=passed, branch=branch, failing=failing,
        witness_omega=math.sqrt(witness_x) if witness_x is not None else None,
    )
    return _PlantAnalysis(p, h11, _cancel_s(N12, D), a, b, c_i)


# perfbench clears the plant memo under this name; ROADMAP item 1 drops the alias
_c_i_cached = _plant_analysis


def check_condition_a(params: SystemParams) -> ConditionReport:
    """No open-right-half-plane poles of the drive two-port.

    With both integral gains positive the characteristic quartic has
    strictly positive coefficients and the closed-form Hurwitz margin
    decides; the margin is cross-checked against the generic exact
    root-location analysis.  Degenerate integral gains reduce the
    denominator degree and only the generic analysis applies.
    """
    return _plant_analysis(params).a


def check_condition_b(params: SystemParams) -> ConditionReport:
    """Imaginary-axis poles (if any) are simple with real positive residues.

    The quartic has an axis pole pair exactly when its Hurwitz margin, the
    exact Fraction of condition (a), is zero.  When a pair is present, the
    residue sign/reality conditions are evaluated in the multiplied-through
    closed form (see stability.residues_positive_real).  Otherwise the
    condition is vacuously true.  Degenerate integral gains take the axis
    pairs from the exact root-location analysis of (a) and check their
    residues numerically.
    """
    return _plant_analysis(params).b


def check_condition_c_i(params: SystemParams) -> ConditionReport:
    """Re h11(j*w) >= 0 for all w, decided exactly.

    Reduces to r3 x^3 + r2 x^2 + r1 x + r0 >= 0 on x = w**2 >= 0 (the
    common factor x is stripped; by continuity the verdicts agree).  The
    reduction is verified against the two-port entries once per plant.
    """
    return _plant_analysis(params).c_i


def check_condition_c_ii(params: SystemParams, coupler: VirtualCoupler) -> ConditionReport:
    """Two-port real-part determinant condition, decided exactly.

    Reduces to t3 x^3 + t2 x^2 + t1 x + t0 >= 0 on x = w**2 >= 0.  The
    failing label distinguishes the leading-coefficient violations (t3 < 0:
    coupler damping above 4*Bf; with b22 == 0 the x^2 coefficient -k22^2*M^2
    takes over as 't2'), the static violation (t0 < 0: coupler stiffness
    beyond the static bound), and an interior dip ('interior').  The cubic
    is t = 4*b22*r - (k22**2 + b22**2*x)*w, whose plant polynomials r and w
    are verified against the two-port entries once per plant.
    """
    c = coupler_coefficients(_plant_analysis(params).coeffs, coupler)
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
    feasible: Callable[[float], bool],
    lo: float,
    hi: Optional[float],
    tol: float,
    below: float = -math.inf,
    above: float = math.inf,
) -> Tuple[float, float]:
    """Bisect for the supremum of a feasible interval [lo, k*].

    feasible(lo) must hold.  hi is a point known or taken to fail, or None
    to find one by doubling from 1.0.  A probe at or below `below` is taken
    to pass and one at or above `above` to fail without calling feasible;
    the default band leaves every probe to feasible.  Returns the final
    bracket (lo, hi): the last k22 taken to pass (lo as given when none
    was) and the last one taken to fail.  Its width is at most tol or it
    holds no float strictly inside, so tol = 0 bisects down to adjacent
    floats.  Raises RuntimeError when doubling passes 1e15.

    Decision order per probe: the band, then feasible.  lo only rises and
    hi only falls, so for a downward-closed feasible the run is the
    all-exact bisection, bit for bit, when feasible(lo) holds if
    lo <= below and fails at hi if hi >= above: two exact probes certify
    a banded run.  For the determinant bound, feasible is _probe, which
    decides by a witness, then by the cubic rounded down to 128 bits, then
    by the full closed form.
    """
    if hi is None:
        hi = 1.0
        while hi <= below or (hi < above and feasible(hi)):
            hi *= 2.0
            if hi > 1e15:
                raise RuntimeError("k22 bound bracket failed to close")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= below or (mid < above and feasible(mid)):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _newton_root(q: Tuple[float, ...], x: float) -> Optional[float]:
    """Newton's iteration on the quartic q (highest degree first) from x while q rises.

    Returns the positive root it converges to, or None when q' stops being
    positive (the iterate left the basin of a minimum of phi, whose
    derivative is q/w**2) or the steps run out.
    """
    a4, a3, a2, a1, a0 = q
    for _ in range(_NEWTON_STEPS):
        # Horner's rule for q and q', unrolled
        f = a4 * x + a3
        d = a4 * x + f
        f = f * x + a2
        d = d * x + f
        f = f * x + a1
        d = d * x + f
        f = f * x + a0
        if not d > 0.0:
            return None
        dx = f / d
        x -= dx
        if abs(dx) <= 1e-6 * x:  # each step squares the error, now near 1e-12 of x
            return x
    return None


def _stationary_roots(q: Tuple[float, ...]) -> List[float]:
    """Real parts of the roots of q (highest degree first), as np.roots finds them."""
    while q and q[0] == 0.0:
        q = q[1:]
    if len(q) < 2:
        return []
    companion = np.eye(len(q) - 1, k=-1)
    companion[0] = [-c / q[0] for c in q[1:]]
    try:
        return np.linalg.eigvals(companion).real.tolist()
    except np.linalg.LinAlgError:
        return []


def _frontier_k2(
    base: Tuple[int, ...], step: Tuple[int, ...], start: Optional[float]
) -> Tuple[float, Optional[float]]:
    """Float estimate of the largest K with base + K*step >= 0 on x >= 0.

    base and step are the integer cubics (lowest degree first) whose sum
    base + K*step is the determinant cubic at k22**2 = K times a positive
    factor; step = -w.  So K* = inf over x >= 0 of phi = n/w with n = base:
    phi(0), phi at a positive root of the stationarity polynomial
    q = n'*w - n*w', or, when t3 = 0 leaves n a quadratic, the limit n2/w2
    of phi as x -> inf.  x = 0 stays a candidate because a static probe
    rounded just above a frontier set there fails.  n and w are rounded
    once from the b22's integer cubics, so t3 is never formed by a
    cancelling difference.  Both are first divided by the one power of two
    that leaves the largest coefficient at most _ESTIMATE_BITS long, so the
    products in q stay finite; a common factor changes neither phi nor the
    roots of q.  Newton polishes start, the stationary point of an earlier
    b22, into a minimum of phi; without a start, or when Newton fails, the
    real part of every root of q is a candidate.  Every x >= 0 has
    phi(x) >= K*, so an extra or inexact candidate errs only high.

    Returns (K, x): the estimate (inf without a candidate) and the positive
    candidate of least phi when q rises through it, i.e. when it is a
    minimum of phi, else None.  x is the start for the next b22 and a
    witness where probes above the frontier fail.
    """
    b0, b1, b2, b3 = base
    s0, s1, s2, _ = step
    bits = max(
        b0.bit_length(), b1.bit_length(), b2.bit_length(), b3.bit_length(),
        s0.bit_length(), s1.bit_length(), s2.bit_length(),
    )
    scale = 1 << max(bits - _ESTIMATE_BITS, 0)
    n0, n1, n2, n3 = b0 / scale, b1 / scale, b2 / scale, b3 / scale
    w0, w1, w2 = -s0 / scale, -s1 / scale, -s2 / scale
    q = (
        n3 * w2, 2 * n3 * w1, 3 * n3 * w0 + n2 * w1 - n1 * w2,
        2 * (n2 * w0 - n0 * w2), n1 * w0 - n0 * w1,
    )
    root = None if start is None else _newton_root(q, start)
    best, best_x = math.inf, None
    for x in _stationary_roots(q) if root is None else (root,):
        wx = (w2 * x + w1) * x + w0
        if x > 0.0 and wx > 0.0:
            phi = (((n3 * x + n2) * x + n1) * x + n0) / wx
            if phi < best:
                best, best_x = phi, x
    if root is None and best_x is not None:
        a4, a3, a2, a1, _ = q
        if not ((4 * a4 * best_x + 3 * a3) * best_x + 2 * a2) * best_x + a1 > 0.0:
            best_x = None  # a maximum of phi, as at b22 = 4*Bf
    if w0 > 0.0:
        best = min(best, n0 / w0)
    if n3 == 0.0 and w2 > 0.0:
        best = min(best, n2 / w2)
    return best, best_x


def _witness(base: Tuple[int, ...], step: Tuple[int, ...], x: float) -> Tuple[int, int]:
    """(B, S) with B*kd**2 + S*kn**2 a positive multiple of the probe cubic at x.

    At x = xn/xd >= 0, with xd = 2**e as for every float, B and S are
    xd**3 times base(x) and step(x), by Horner's rule on xn and shifts.  The
    probe cubic at k22 = kn/kd is base*kd**2 + step*kn**2, so a probe with
    B*kd**2 + S*kn**2 < 0 fails: the cubic is negative at a point of x >= 0.
    """
    xn, xd = x.as_integer_ratio()
    e = xd.bit_length() - 1
    b0, b1, b2, b3 = base
    s0, s1, s2, _ = step  # qg has no x**3 term
    return (
        ((b3 * xn + (b2 << e)) * xn + (b1 << 2 * e)) * xn + (b0 << 3 * e),
        ((s2 * xn + (s1 << e)) * xn + (s0 << 2 * e)) << e,
    )


def _round_down(cubic: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """cubic shifted right (floor) so that its largest coefficient keeps _ROUND_BITS bits.

    None when no coefficient is longer.  Each rounded coefficient is at most
    the exact one over 2**shift and x**i >= 0 on x >= 0, so the rounded
    cubic is at most the exact one over 2**shift there: when it is
    nonnegative on x >= 0, so is the exact one.
    """
    c3, c2, c1, c0 = cubic
    bits = max(c3.bit_length(), c2.bit_length(), c1.bit_length(), c0.bit_length())
    shift = bits - _ROUND_BITS
    if shift <= 0:
        return None
    return c3 >> shift, c2 >> shift, c1 >> shift, c0 >> shift


def _probe(
    base: Tuple[int, ...],
    step: Tuple[int, ...],
    witnesses: Tuple[Tuple[int, int], ...],
    k22: float,
) -> bool:
    """Exact verdict of base*kd**2 + step*kn**2 >= 0 on x >= 0 at k22 = kn/kd.

    The cheapest rule that can decide runs first, and each is exact:
    1. a witness (B, S) of _witness with B*kd**2 + S*kn**2 < 0 fails the
       probe: two products and a compare;
    2. when _round_down shortens the cubic and cubic_nonneg_closed_form
       passes the short one, the probe passes;
    3. cubic_nonneg_closed_form on the full integers decides the rest.
    """
    kn, kd = k22.as_integer_ratio()
    n2, d2 = kn * kn, kd * kd
    for wb, ws in witnesses:
        if wb * d2 + ws * n2 < 0:
            return False
    b0, b1, b2, b3 = base
    s0, s1, s2, _ = step  # qg has no x**3 term
    cubic = (b3 * d2, b2 * d2 + s2 * n2, b1 * d2 + s1 * n2, b0 * d2 + s0 * n2)
    rounded = _round_down(cubic)
    if rounded is not None and cubic_nonneg_closed_form(*rounded):
        return True
    return cubic_nonneg_closed_form(*cubic)


class _DeterminantBound:
    """sup{k22 >= 0 : condition (c-ii) holds} for one plant, at any b22.

    Each coefficient of the determinant cubic is a quadratic form
    t_i = qa_i*b22**2 + qb_i*b22 + qg_i*k22**2 with plant-only q's: by
    t = 4*b22*r - (k22**2 + b22**2*x)*w they are qa = -x*w, qb = 4*r and
    qg = -w, read from the plant's verified r and w and scaled to Python
    ints by one lcm.  Beyond its plant, an instance keeps only the
    stationary point of the last b22 whose estimate found a minimum, a
    Newton start that changes the cost of the next call and never its
    result; a caller keeps it for one search.

    Feasibility is downward-closed in k22: x**2*w = |N12 - D|**2 >= 0, so
    w >= 0 on x >= 0 and t decreases pointwise in K = k22**2.  bound()
    first estimates the frontier K* = min over x >= 0 of
    (4*b22*r - b22**2*x*w)/w in floats (_frontier_k2) and runs the
    bisection on it: a probe below sqrt(K*)*(1 - 1e-9) is taken to pass,
    one above sqrt(K*)*(1 + 1e-9) to fail, and only a probe strictly inside
    that bracket is decided exactly.  Two exact probes then certify the
    run (_sup_feasible): the last k22 taken to pass must pass and the last
    one taken to fail must fail.  The midpoints and the bound are then
    those of the all-exact bisection, bit for bit.

    An exact probe (_probe) tries three rules in order, each exact:
    1. the cubic's sign at the witnesses x = 0 and x0, the estimate's
       stationary point, where a probe just above the frontier turns
       negative: a negative value at a point of x >= 0 fails the probe;
    2. the closed form on the coefficients rounded down (floor) to 128
       bits: on x >= 0 that cubic is at most the exact one over a power of
       two, so its pass is a pass;
    3. the closed form on the full integers, several hundred bits long.
    So the verdict is always the closed form's own.

    Probe order: the static probe sqrt(4*b22*r0)/(Im + alpha*Kf), which is
    the bound when it passes, runs first unless the estimate places it
    above the bracket; then it starts the simulated bisection as a point
    taken to fail.  A passing probe at any k22 implies the one at k22 = 0,
    which runs only when no other probe passed.  Without an estimate that
    is finite and positive, or when the certificate fails, bound() falls
    back to the static probe and an all-exact bisection.
    """

    def __init__(self, params: SystemParams) -> None:
        p = _plant_analysis(params).coeffs
        zero = Fraction(0)
        qa = (zero, -p.w0, -p.w1, -p.w2)
        qb = (4 * p.r0, 4 * p.r1, 4 * p.r2, 4 * p.r3)
        qg = (-p.w0, -p.w1, -p.w2, zero)
        scale = math.lcm(*(q.denominator for q in qa + qb + qg))
        self._qa, self._qb, self._qg = (
            tuple(q.numerator * (scale // q.denominator) for q in row) for row in (qa, qb, qg)
        )
        self._ia = float(Fraction(params.Im) + Fraction(params.alpha) * Fraction(params.Kf))
        self._r0x4 = max(float(4 * p.r0), 0.0)
        self._start: Optional[float] = None

    def bound(self, b22: float, tol: float = 1e-3) -> float:
        if not tol >= 0.0:
            raise ValueError(f"tol must be nonnegative, got {tol!r}")
        if b22 <= 0 or not math.isfinite(b22):
            return 0.0

        # At b22 = bn/bd and k22 = kn/kd the cubic times scale*bd**2*kd**2 > 0
        # has integer coefficients base*kd**2 + step*kn**2, and a positive
        # scale leaves the homogeneous closed-form verdict unchanged.
        bn, bd = b22.as_integer_ratio()
        bb, bnd, dd = bn * bn, bn * bd, bd * bd
        _, a1, a2, a3 = self._qa  # qa has no constant term
        c0, c1, c2, c3 = self._qb
        g0, g1, g2, _ = self._qg
        base = (c0 * bnd, a1 * bb + c1 * bnd, a2 * bb + c2 * bnd, a3 * bb + c3 * bnd)
        step = (g0 * dd, g1 * dd, g2 * dd, 0)
        if base[3] < 0:  # t3 < 0 at every k22: b22 > 4*Bf
            return 0.0
        hi = math.sqrt(self._r0x4 * b22) / self._ia if self._ia > 0 else None
        K, x = _frontier_k2(base, step, self._start)
        witnesses: Tuple[Tuple[int, int], ...] = ((base[0], step[0]),)  # x = 0
        if x is not None:
            self._start = x
            witnesses += (_witness(base, step, x),)
        probe = functools.partial(_probe, base, step, witnesses)

        estimated = 0.0 < K < math.inf
        if estimated:
            k = math.sqrt(K)
            below, above = k * (1.0 - _BRACKET), k * (1.0 + _BRACKET)
        # above the bracket the static probe is taken to fail, and runs only
        # when the certificate does
        static_later = estimated and hi is not None and hi >= above
        if hi is not None and not static_later and probe(hi):
            return hi
        if estimated:
            try:
                lo, top = _sup_feasible(probe, 0.0, hi, tol, below, above)
            except RuntimeError:  # no k22 below 1e15 taken to fail
                pass
            else:
                # lo > below and top < above were probed (lo = 0 is given);
                # an end the band decided is certified by one exact probe
                if (lo > below or lo == 0.0 or probe(lo)) and (top < above or not probe(top)):
                    return lo
        if static_later and probe(hi):
            return hi
        if hi is not None and hi <= tol:  # the bisection would return its lower end unprobed
            return 0.0
        return _sup_feasible(probe, 0.0, hi, tol)[0] if probe(0.0) else 0.0


def k22_upper_bound(params: SystemParams, b22: float, tol: float = 1e-3) -> float:
    """sup{k22 >= 0 : determinant condition (c-ii) holds}, to tolerance tol.

    The scaled determinant polynomial decreases pointwise in k22**2, so the
    feasible set is an interval [0, k*]; k* is bracketed by the static bound
    sqrt(4*b22*r0)/(Im + alpha*Kf) when that is finite and found to
    absolute tolerance tol by bisection, which stops early only when no
    float lies strictly inside its bracket (tol = 0 gives k* to the float).
    Returns 0.0 when no positive k22 is feasible (including b22 <= 0 and
    b22 > 4*Bf).  Raises ValueError for a negative or NaN tol.

    Per plant, the determinant cubic t = 4*b22*r - (k22**2 + b22**2*x)*w is
    tabulated once from its verified plant polynomials r and w as the exact
    integer quadratic form qa*b22**2 + qb*b22 + qg*k22**2 in each coefficient; to
    bound many b22 values of one plant, the optimizer keeps the table for
    the whole search.  Every exact probe at b22 = bn/bd, k22 = kn/kd
    decides the integer cubic (qa*bn**2 + qb*bn*bd)*kd**2 + qg*bd**2*kn**2,
    a positive multiple of the exact one, without Fraction normalization.
    The bisection runs on a float estimate of k*, warm-started from the
    previous b22's stationary point, with exact probes only within
    k*(1 -/+ 1e-9); two exact probes, at the last k22 it took to pass and
    the last it took to fail, certify it by monotonicity.  The static probe
    runs first only when the estimate does not place it above that bracket.
    An exact probe is decided by the cubic's sign at a witness point, else
    by the closed form on coefficients rounded down to 128 bits, else on
    the full integers; each rule is exact.  The result is that of the
    all-exact bisection, to which a failed certificate falls back (see
    _DeterminantBound).
    """
    return _DeterminantBound(params).bound(b22, tol)


# --------------------------------------------------------------------------
# grid margins (sampling routes)


def _entry_grids(params: SystemParams, coupler: VirtualCoupler, omegas: np.ndarray):
    memo = _plant_analysis(params)
    return (
        memo.h11.eval_grid(omegas),
        memo.h12.eval_grid(omegas),
        _coupler_port(coupler).eval_grid(omegas),
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
    h11, _, h22 = _entry_grids(params, coupler, omegas)
    h12 = _plant_analysis(params).h12
    h12m1 = RationalFunction(h12.num - h12.den, h12.den)
    _, _, mdet = _two_port_margins(h11, h12m1.eval_grid(omegas), h22)
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
    c = coupler_coefficients(_plant_analysis(params).coeffs, coupler)
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
