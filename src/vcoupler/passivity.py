"""Two-port passivity and absolute-stability criteria for the coupled drive.

The hybrid two-port built by model.hybrid_matrix is passive iff

  (a)    its characteristic quartic has no open-right-half-plane roots,
  (b)    any imaginary-axis pole pair is simple with real positive residues,
  (c-i)  the driving-point real part Re h11(j*w) is nonnegative for all w,
  (c-ii) Re h11 * Re h22 >= |(conj(h12) + h21)/2|**2 for all w.

(a), (b) and (c-i) are properties of the drive alone: no coupler can repair
them.  They are computed together once per plant, from the plant's integer
kernel (model._plant_kernel), and memoized; only (c-ii) and the Llewellyn
margin depend on the coupler (k22, b22).  The kernel's ints are the only
per-plant route: of the exact conditions and the k22 bound, and of the
sampled h11 and h12 (model._plant_entries), built on a grid margin's first
read.

Each condition is decided by one exact route.  (a) and (b) are closed forms
in the characteristic quartic for every plant: its Hurwitz margin and,
where that is zero, the residue at the axis pole pair (stability); a zero
integral gain only zeroes a0 (and a1), whose root s = 0 cancels from h11.
Both (c) conditions reduce
to the nonnegativity of a cubic in x = w**2 on [0, inf), decided by the
closed-form rule (poly.cubic_nonneg_closed_form); only a failing cubic
builds the exact Sturm chain (poly.is_nonnegative_on), for its witness.
The reduction rests on two identities in the nine parameters: the
real-part polynomials of the two-port entries equal x*r(x) for h11 and
x**2*w(x) for |h12 - 1|**2.  tests/test_passivity.py proves them once, by
the Schwartz-Zippel lemma, so the (c-ii) cubic
t = 4*b22*r - (k22**2 + b22**2*x)*w needs no check per plant or coupler.

Both cubics are read from one integer vector per plant, L*(4*r, w) with L
the positive lcm of the denominators (the kernel's rw): (c-i) decides on
its first four entries, and (c-ii), the sufficient test and the k22 bound
all decide on the integer multiple of t that _cubics and _at_k22 form from
it.  A positive multiple leaves every coefficient sign, the homogeneous
closed form and the Sturm chain's sample points unchanged, so verdicts,
labels and witnesses are those of the Fraction coefficients of
model.derive_coefficients, which tests keep as the oracle.

Absolute stability keeps (a), (b), (c-i) and replaces (c-ii) with the
Llewellyn form 2*Re h11*Re h22 - Re(h12*h21) - |h12*h21| >= 0, decided on a
dense frequency grid (the modulus term is not polynomial in w**2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import InvalidParams
from .model import (
    DerivedCoefficients,
    SystemParams,
    VirtualCoupler,
    _coupler_port,
    _isfinite,
    _plant_entries,
    _plant_kernel,
    _PlantKernel,
)
from .poly import (
    POS_INF,
    Polynomial,
    _dyadic_float,
    _homogeneous,
    cubic_nonneg_closed_form,
    first_clause,
    is_nonnegative_on,
)
from .stability import (
    RationalFunction,
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
# Default grid size and acceptance tolerance of the sampled Llewellyn margin
_LLEWELLYN_POINTS = 4000
_LLEWELLYN_TOL = 1e-8
_UNBOUNDED = (
    "the Llewellyn margin holds at every k22 tried up to the 1e15 search"
    " ceiling on this grid, so the grid does not bound k22"
)
_UNBOUNDED_C_II = (
    "condition (c-ii) holds at every k22 tried up to the 1e15 search ceiling,"
    " so this plant's k22 bound lies beyond the search range"
)
_LAST_DOUBLING = 2.0 ** 49  # the doubling search's last k22, below its 1e15 ceiling
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    c3: int, c2: int, c1: int, c0: int, context: str
) -> Tuple[bool, Optional[float]]:
    """Closed-form verdict on [0, inf), with the Sturm chain's witness x on failure."""
    if cubic_nonneg_closed_form(c3, c2, c1, c0):
        return True, None
    sturm, witness_x = is_nonnegative_on(Polynomial([c0, c1, c2, c3]), (0, POS_INF))
    if sturm:
        raise RuntimeError(
            f"internal: closed-form (False) and Sturm (True) verdicts disagree for {context}"
        )
    return False, witness_x


def _verify_c_ii_identity(N12: Polynomial, D: Polynomial, p: DerivedCoefficients) -> None:
    """|N12 - D|**2 (j*w) must equal x**2 * (w2 x^2 + w1 x + w0) exactly.

    With Re h11 * |D|**2 == x * r(x), this proves for every coupler that
    4*b22*x*f11(x) - (k22**2 + b22**2*x) * |N12 - D|**2(x) == x**2 * t(x),
    where t = 4*b22*r - (k22**2 + b22**2*x)*w is the cubic of condition (c-ii).
    Only tests call it, as the oracle of that identity for all parameters.
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
    """One plant's integer kernel and (a), (b), (c-i); the hybrid entries on demand.

    kernel is model._plant_kernel's record, the one per-plant route of the
    exact conditions, the k22 bound and the sampled entries.  Its rw is
    L*(4*r0, 4*r1, 4*r2, 4*r3, w0, w1, w2) as Python ints, for the one
    positive L that clears the denominators.  Both (c) cubics are read from
    it: (c-i) from its first four entries, and the (c-ii) cubic t of every
    coupler from _cubics.
    """

    params: SystemParams
    kernel: _PlantKernel
    a: ConditionReport
    b: ConditionReport
    c_i: ConditionReport

    @functools.cached_property
    def entries(self) -> Tuple[RationalFunction, RationalFunction]:
        """The s-cancelled h11 and h12 (model._plant_entries), built on first read.

        Grid margins and the Llewellyn bound read them; the exact conditions
        and the k22 bound do not.
        """
        return _plant_entries(self.kernel)


@functools.lru_cache(maxsize=512)
def _plant_analysis(params: SystemParams) -> _PlantAnalysis:
    """(a), (b) and (c-i) of one plant, all read from one integer kernel.

    The characteristic quartic's exact Hurwitz margin decides (a) and (b)
    for every pair of integral gains (stability.quartic_hurwitz takes
    a1 = 0 and a0 = 0, the shapes a zero gain gives).  It is formed on the
    kernel's ints, each 2**(3*E) times its coefficient, so it is 2**(9*E)
    times the margin, and is divided by that power of two once, for the
    report.  An axis pole pair's residue closed form judges (b) on the int
    quartic and h11's int cubic, 2**(2*E) times its coefficients, so its
    margin a3*b1 - a1*b3 is divided by 2**(5*E).  The closed-form rule
    decides (c-i) on rw.
    """
    k = _plant_kernel(params)
    qh = quartic_hurwitz(k.quartic)
    a = ConditionReport(
        name="condition_a", passed=qh.no_open_rhp, margin=_dyadic_float(qh.margin, 9 * k.shift),
        branch="quartic-margin", failing=None if qh.no_open_rhp else "margin",
    )
    _, a3, _, a1, a0 = k.quartic
    if qh.margin != 0 or a1 == 0:
        note = "vacuous: characteristic quartic has no imaginary-axis pole"
        if a0 == 0:  # a zero integral gain: the quartic's root s = 0 cancels from h11
            factor = "s" if a1 else "s**2"
            note = (
                f"vacuous: h11 has no imaginary-axis pole once its common factor {factor} cancels"
            )
        b = ConditionReport(name="condition_b", passed=True, branch="no-axis-pole", note=note)
    else:
        w = math.sqrt(a1 / a3)  # the axis pole pair +/-j*w; int division rounds correctly
        b3, _, b1, _ = cubic = k.n11[::-1]
        ok = residues_positive_real(cubic, k.quartic)
        b = ConditionReport(
            name="condition_b", passed=ok, margin=_dyadic_float(a3 * b1 - a1 * b3, 5 * k.shift),
            branch="residue-closed-form", failing=None if ok else "residue",
            witness_omega=None if ok else w,
            note=f"axis pole pair at omega = {w:.6g} rad/s",
        )

    r0, r1, r2, r3 = k.rw[:4]
    passed, witness_x = _decide_cubic(r3, r2, r1, r0, "condition (c-i)")
    branch: Optional[str] = None
    failing: Optional[str] = None
    if params.Bf == 0:
        branch = "generic"  # quadratic shape, which the closed form decides too
    elif passed:
        branch = "i1" if first_clause(r3, r2, r1) else "i2"
    else:
        failing = "r0" if r0 < 0 else "interior"
    c_i = ConditionReport(
        name="condition_c_i", passed=passed, branch=branch, failing=failing,
        witness_omega=math.sqrt(witness_x) if witness_x is not None else None,
    )
    return _PlantAnalysis(params, k, a, b, c_i)


# perfbench clears the plant memo under this name; ROADMAP item 1 drops the alias
_c_i_cached = _plant_analysis


def check_condition_a(params: SystemParams) -> ConditionReport:
    """No open-right-half-plane poles of the drive two-port.

    Decided by the exact Hurwitz margin of the characteristic quartic
    (stability.quartic_hurwitz), the report's margin: (a) holds iff it is
    >= 0, for positive and zero integral gains alike.  Tests keep the
    generic exact root-location analysis of h11's denominator as its oracle.
    """
    return _plant_analysis(params).a


def check_condition_b(params: SystemParams) -> ConditionReport:
    """Imaginary-axis poles (if any) are simple with real positive residues.

    The quartic has an axis pole pair exactly when its Hurwitz margin, the
    exact margin of condition (a), is zero and a1 > 0; the pair sits at
    omega = sqrt(a1/a3).  Its residue's reality and sign are decided
    exactly in the multiplied-through closed form (see
    stability.residues_positive_real).  Otherwise the condition is vacuously
    true: with a zero integral gain the quartic's roots at s = 0 cancel
    against h11's numerator.
    """
    return _plant_analysis(params).b


def check_condition_c_i(params: SystemParams) -> ConditionReport:
    """Re h11(j*w) >= 0 for all w, decided exactly.

    Reduces to r3 x^3 + r2 x^2 + r1 x + r0 >= 0 on x = w**2 >= 0 (the
    common factor x is stripped; by continuity the verdicts agree), decided
    by the closed form; tests prove the reduction for all parameters.
    """
    return _plant_analysis(params).c_i


def check_condition_c_ii(params: SystemParams, coupler: VirtualCoupler) -> ConditionReport:
    """Two-port real-part determinant condition, decided exactly.

    Reduces to t3 x^3 + t2 x^2 + t1 x + t0 >= 0 on x = w**2 >= 0.  The
    failing label distinguishes the leading-coefficient violations (t3 < 0:
    coupler damping above 4*Bf; with b22 == 0 the x^2 coefficient -k22^2*M^2
    takes over as 't2'), the static violation (t0 < 0: coupler stiffness
    beyond the static bound), and an interior dip ('interior').  The cubic
    is t = 4*b22*r - (k22**2 + b22**2*x)*w, formed times one positive
    integer on the plant's integer vector (_determinant_cubic) and decided
    by the closed form; tests prove the identities behind r and w (see
    _verify_c_ii_identity).
    """
    t3, t2, t1, t0 = _determinant_cubic(params, coupler)
    passed, witness_x = _decide_cubic(t3, t2, t1, t0, "condition (c-ii)")

    branch: Optional[str] = None
    failing: Optional[str] = None
    if passed:
        branch = "ii1" if first_clause(t3, t2, t1) else "ii2"
    elif t0 < 0:
        failing = "t0"
    elif t3 < 0:
        failing = "t3"
    elif coupler.b22 == 0 and t2 < 0:
        failing = "t2"
    else:
        failing = "interior"
    return ConditionReport(
        name="condition_c_ii", passed=passed, branch=branch, failing=failing,
        witness_omega=math.sqrt(witness_x) if witness_x is not None else None,
    )


# --------------------------------------------------------------------------
# coupler bounds


def _sup_feasible(
    feasible: Callable[[float], bool], hi: Optional[float], tol: float,
    below: float = -math.inf, above: float = math.inf,
) -> Tuple[float, float]:
    """Search for the supremum k* of a downward-closed feasible set [0, k*].

    A k22 at or below `below` is taken to pass and one at or above `above`
    to fail without calling feasible; the default band leaves every k22 to
    feasible.  The search takes hi (the bound when it passes), then 0.0
    (no bound when it fails), then doubles from 1.0 to a failing hi when
    hi is None, then bisects until the bracket is at most tol wide or holds
    no float strictly inside, so tol = 0 ends on adjacent floats.

    Returns (lo, top), the last k22 taken to pass and the last taken to
    fail: (hi, inf) when hi passes, (0.0, 0.0) when 0.0 fails.  Raises
    RuntimeError when the doubling takes _LAST_DOUBLING to pass.
    _certified_sup certifies a banded run.
    """
    if hi is not None and (hi <= below or (hi < above and feasible(hi))):
        return hi, math.inf
    # a bracket [0.0, hi] at most tol wide ends at 0.0 whatever 0.0 does
    if (hi is None or hi > tol) and not (0.0 <= below or (0.0 < above and feasible(0.0))):
        return 0.0, 0.0
    lo = 0.0
    if hi is None:
        hi = 1.0
        while hi <= below or (hi < above and feasible(hi)):
            if hi >= _LAST_DOUBLING:
                raise RuntimeError("k22 bound bracket failed to close")
            hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= below or (mid < above and feasible(mid)):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _certified_sup(
    probe: Callable[[float], bool], hi: Optional[float], tol: float, K: float
) -> float:
    """_sup_feasible(probe, hi, tol)[0] for a downward-closed probe, given an estimate K of k*^2.

    1. band: every k22 at or below sqrt(K)*(1 - _BRACKET) is taken to pass
       and every one at or above sqrt(K)*(1 + _BRACKET) to fail, so only a
       k22 strictly inside is probed (K = inf: all pass; K <= 0 or NaN: no band);
    2. certificate: an end that the band decided gets one probe.  The last
       k22 taken to pass (_LAST_DOUBLING when none was taken to fail) must
       pass and the last taken to fail must fail; lo = 0.0 needs no probe,
       the bound being 0.0 whether or not 0.0 passes.  lo only rises and top
       only falls, so every decision, and the result, was the all-probe
       search's.  Otherwise the search runs again unbanded.
    Raises RuntimeError when no k22 up to _LAST_DOUBLING fails.
    """
    below, above = -math.inf, math.inf
    if K > 0.0:
        k = math.sqrt(K)
        below, above = k * (1.0 - _BRACKET), k * (1.0 + _BRACKET)
    try:
        lo, top = _sup_feasible(probe, hi, tol, below, above)
    except RuntimeError:
        if _LAST_DOUBLING > below or probe(_LAST_DOUBLING):
            raise
    else:
        if (lo == 0.0 or lo > below or probe(lo)) and (
            top == math.inf or top < above or not probe(top)
        ):
            return lo
    return _sup_feasible(probe, hi, tol)[0]


def _require_tol(tol: float) -> None:
    """The check both k22 bounds run first: tol is a nonnegative number."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")


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


def _cubics(rw: Tuple[int, ...], b22: float) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The integer cubics (base, step) of a plant's rw at b22 >= 0, lowest degree first.

    At b22 = bn/bd, base = 4*r*bn*bd - x*w*bn**2 and step = -w*bd**2 in
    rw's scale L, so at k22 = kn/kd, _at_k22(base, step, kn**2, kd**2) is
    the determinant cubic t times L*bd**2*kd**2 > 0.  as_integer_ratio reads
    an int b22 or k22 exactly, and a positive factor changes no coefficient
    sign and no closed-form verdict.
    """
    bn, bd = b22.as_integer_ratio()
    bb, bnd, dd = bn * bn, bn * bd, bd * bd
    r0, r1, r2, r3, w0, w1, w2 = rw
    base = (r0 * bnd, r1 * bnd - w0 * bb, r2 * bnd - w1 * bb, r3 * bnd - w2 * bb)
    return base, (-w0 * dd, -w1 * dd, -w2 * dd, 0)


def _at_k22(base: Tuple[int, ...], step: Tuple[int, ...], n2: int, d2: int) -> Tuple[int, ...]:
    """base*d2 + step*n2, highest degree first: the cubic at k22**2 = n2/d2, scaled."""
    b0, b1, b2, b3 = base
    s0, s1, s2, _ = step  # w has no x**3 term
    return b3 * d2, b2 * d2 + s2 * n2, b1 * d2 + s1 * n2, b0 * d2 + s0 * n2


def _determinant_cubic(params: SystemParams, coupler: VirtualCoupler) -> Tuple[int, int, int, int]:
    """(t3, t2, t1, t0) of condition (c-ii), times one positive integer."""
    base, step = _cubics(_plant_analysis(params).kernel.rw, coupler.b22)
    kn, kd = coupler.k22.as_integer_ratio()
    return _at_k22(base, step, kn * kn, kd * kd)


def _round_down(cubic: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """cubic shifted right (floor) by shift = bits - _ROUND_BITS, bits its longest length.

    None when no coefficient is longer than _ROUND_BITS.  The longest
    coefficient keeps _ROUND_BITS bits, or _ROUND_BITS + 1 when it is
    negative and floors to -2**_ROUND_BITS.  Each rounded coefficient is
    at most the exact one over 2**shift and x**i >= 0 on x >= 0, so the
    rounded cubic is at most the exact one over 2**shift there: when it is
    nonnegative on x >= 0, so is the exact one.
    """
    c3, c2, c1, c0 = cubic
    bits = max(c3.bit_length(), c2.bit_length(), c1.bit_length(), c0.bit_length())
    shift = bits - _ROUND_BITS
    if shift <= 0:
        return None
    return c3 >> shift, c2 >> shift, c1 >> shift, c0 >> shift


def _witnesses(
    base: Tuple[int, ...], step: Tuple[int, ...], x: Optional[float]
) -> Tuple[Tuple[int, int], ...]:
    """_probe's witnesses (B, S) of the cubics base and step.

    base(0) and step(0); the x**2 coefficients when base[3] = 0 leaves a
    quadratic, whose sign decides as x -> inf; and xd**3 times base(x) and
    step(x) at x = xn/xd > 0, when x is given.
    """
    witnesses: Tuple[Tuple[int, int], ...] = ((base[0], step[0]),)
    if base[3] == 0:
        witnesses += ((base[2], step[2]),)
    if x is not None:
        xn, xd = x.as_integer_ratio()
        witnesses += ((_homogeneous(base, xn, xd), _homogeneous(step, xn, xd)),)
    return witnesses


def _probe(
    base: Tuple[int, ...],
    step: Tuple[int, ...],
    witnesses: Tuple[Tuple[int, int], ...],
    k22: float,
) -> bool:
    """Exact verdict of base*kd**2 + step*kn**2 >= 0 on x >= 0 at k22 = kn/kd.

    The cheapest rule that can decide runs first, and each is exact:
    1. a witness (B, S), base(x) and step(x) times one positive factor at
       some x >= 0, fails the probe when B*kd**2 + S*kn**2 < 0;
    2. when _round_down shortens the cubic and cubic_nonneg_closed_form
       passes the short one, the probe passes;
    3. cubic_nonneg_closed_form on the full integers decides the rest.
    """
    kn, kd = k22.as_integer_ratio()
    n2, d2 = kn * kn, kd * kd
    for wb, ws in witnesses:
        if wb * d2 + ws * n2 < 0:
            return False
    cubic = _at_k22(base, step, n2, d2)
    rounded = _round_down(cubic)
    if rounded is not None and cubic_nonneg_closed_form(*rounded):
        return True
    return cubic_nonneg_closed_form(*cubic)


class _DeterminantBound:
    """sup{k22 >= 0 : condition (c-ii) holds} for one plant, at any b22.

    The determinant cubic is t = 4*b22*r - (k22**2 + b22**2*x)*w, so an
    instance keeps the plant's integer vector rw of 4*r and w (see
    _PlantAnalysis), the one check_condition_c_ii reads, and _cubics turns
    each b22 into the integer cubics base and step with t proportional to
    base + k22**2*step.  Beyond its plant, an instance keeps only start,
    the stationary point of the last b22 whose estimate found a minimum (or
    the one a caller passed in, such as that of a neighbouring plant): a
    Newton start that changes the cost of the next call and never its
    result.  A caller keeps an instance for one search.

    Feasibility is downward-closed in k22: x**2*w = |N12 - D|**2 >= 0, so
    w >= 0 on x >= 0 and t decreases pointwise in K = k22**2.  bound()
    estimates the frontier K* = min over x >= 0 of (4*b22*r - b22**2*x*w)/w
    in floats (_frontier_k2) and runs the search shared with _LlewellynBound
    (_certified_sup) from the static probe sqrt(4*b22*r0)/(Im + alpha*Kf),
    or by doubling when that is not a finite float, so the bound is the
    all-exact search's, bit for bit.  Each probe is _probe's exact verdict,
    witnessed at x = 0, at the estimate's stationary point x0 (where a probe
    just above the frontier turns negative) and as x -> inf when t3 = 0.

    admits(b22, k22) is one such probe, witnessed at x = 0 and at start.
    bound() returns 0.0 or a k22 that passed an exact probe, so a failing
    admits(b22, k) with k > 0 proves bound(b22) < k: the pruned sweep of
    maximize_k22_over_alpha skips such a b22 without calling bound().
    """

    def __init__(self, params: SystemParams, start: Optional[float] = None) -> None:
        k = _plant_analysis(params).kernel
        self._rw = k.rw
        self._ia = _dyadic_float(k.ia, 2 * k.shift)  # Im + alpha*Kf
        self._r0x4 = max(_dyadic_float(k.rw[0], k.rw_shift), 0.0)  # 4*r0
        self.start = start

    def admits(self, b22: float, k22: float) -> bool:
        """Exact verdict of condition (c-ii) at a finite b22 > 0 and k22 >= 0.

        One _probe, witnessed at x = 0 and at the current start; by
        downward closure a failure proves bound(b22) < k22 for k22 > 0.
        """
        base, step = _cubics(self._rw, b22)
        return _probe(base, step, _witnesses(base, step, self.start), k22)

    def bound(self, b22: float, tol: float = 1e-3) -> float:
        _require_tol(tol)
        if b22 <= 0 or not _isfinite(b22):
            return 0.0

        base, step = _cubics(self._rw, b22)
        if base[3] < 0:  # t3 < 0 at every k22: b22 > 4*Bf
            return 0.0
        hi = math.sqrt(self._r0x4 * b22) / self._ia if self._ia > 0 else None
        if hi is not None and not math.isfinite(hi):  # r0 or Im + alpha*Kf beyond float range
            hi = None
        K, x = _frontier_k2(base, step, self.start)
        if x is not None:
            self.start = x
        probe = functools.partial(_probe, base, step, _witnesses(base, step, x))

        try:
            return _certified_sup(probe, hi, tol, K)
        except RuntimeError:
            raise InvalidParams(_UNBOUNDED_C_II) from None


def k22_upper_bound(params: SystemParams, b22: float, tol: float = 1e-3) -> float:
    """sup{k22 >= 0 : determinant condition (c-ii) holds}, to tolerance tol.

    The feasible set is an interval [0, k*], found to absolute tolerance
    tol or, when no float lies strictly inside the bracket, to the float
    (tol = 0).  Returns 0.0 when no positive k22 is feasible (including
    b22 <= 0 and b22 > 4*Bf).  Raises ValueError for a negative or NaN tol,
    and InvalidParams when every k22 up to the 1e15 search ceiling passes.
    The search is described at _DeterminantBound; to bound many b22 of one
    plant, keep one _DeterminantBound, as the optimizer does.
    """
    return _DeterminantBound(params).bound(b22, tol)


# --------------------------------------------------------------------------
# grid margins (sampling routes)


def two_port_grid_margins(
    params: SystemParams, coupler: VirtualCoupler, omegas: np.ndarray
):
    """Normalized sampled margins of the two-port passivity conditions.

    Returns (m11, m22, mdet): dimensionless arrays in [-1, 1] whose signs
    match Re h11, Re h22 and the real-part determinant
    Re h11 * Re h22 - |(conj(h12) + h21)/2|**2 with h21 = -1.
    Non-finite samples (exactly at a pole) come back as NaN.  h12 - 1 is
    taken from sampled h12, so near DC, where h12 -> 1, mdet loses digits
    to cancellation; the margins report and decide nothing.
    """
    h11, h12 = (h.eval_grid(omegas) for h in _plant_analysis(params).entries)
    h22 = _coupler_port(coupler).eval_grid(omegas)
    with np.errstate(all="ignore"):
        m11 = h11.real / (np.abs(h11) + _TINY)
        m22 = h22.real / (np.abs(h22) + _TINY)
        cross = 0.25 * np.abs(h12 - 1.0) ** 2
        det = h11.real * h22.real - cross
        scale = np.abs(h11.real * h22.real) + cross + _TINY
        return m11, m22, det / scale


def llewellyn_grid_margins(
    params: SystemParams, coupler: VirtualCoupler, omegas: np.ndarray
):
    """Normalized sampled margin of the Llewellyn real-part condition.

    2*Re h11*Re h22 - Re(h12*h21) - |h12*h21| with h21 = -1, i.e.
    2*Re h11*Re h22 + Re h12 - |h12|, divided by the sum of the magnitudes
    of its terms; see _LlewellynBound.margins.  Raises InvalidParams when
    no grid point has finite h11 and h12 samples.
    """
    return _LlewellynBound(params, omegas).margins(coupler.k22, coupler.b22)


def _least_margin(margins: np.ndarray) -> Tuple[float, bool]:
    """The least non-NaN margin (NaN when all are NaN), and whether it is >= -_LLEWELLYN_TOL."""
    least = float(np.fmin.reduce(margins))
    return least, least >= -_LLEWELLYN_TOL


def _llewellyn_margin(k22: float, b22: float, re11, re12, abs12, w2):
    """Llewellyn margins of (k22, b22) at samples, as arrays or np.float64 scalars.

    One formula for the grid and for _LlewellynBound's witness sample, so a
    sample's margin is its grid element's, bit for bit.  NaN at a pole.
    """
    with np.errstate(all="ignore"):
        # at k22 = 0 the k22 term is 0 at every sample, w = 0 included (not 0*(0/0))
        re22 = 1.0 / (b22 + (k22 * (k22 / (b22 * w2)) if k22 else 0.0))
        prod = re11 * re22
        L = 2.0 * prod + re12 - abs12
        scale = 2.0 * np.abs(prod) + 2.0 * abs12 + _TINY
        return L / scale


class _LlewellynBound:
    """Largest k22 at which the sampled Llewellyn margin holds, per b22.

    h11 and h12 do not depend on the coupler, so their grid samples are
    computed once.  margins(k22, b22) is the one sampled margin, and
    check_absolute_stability reads it through llewellyn_grid_margins on
    the same default grid (4000 points) with the same tolerance, so
    feasible(k22, b22) is that check's llewellyn_ok.  Re h22 is the
    coupler port's 1/(b22 + k22*(k22/(b22*w^2))): exactly 1/b22 at k22 = 0,
    at every sample (w = 0 too), and 0 at b22 = 0, with no b22**2 to
    underflow.

    bound(b22) returns what bisecting feasible(., b22) returns, by the
    search shared with _DeterminantBound (_certified_sup).  The estimate:
    at a sample with Re h11 > 0, margin >= -tol reads
    Re h22 = b22*w^2/(k22^2 + b22^2*w^2) >= g with
        g = (|h12| - Re h12 - 2*tol*|h12| - tol*_TINY) / (2*Re h11*(1 + tol)),
    i.e. k22^2 <= b22*(c - b22*w^2) with c = w^2/g if g > 0 (else no bound).
    K is the least over the samples, and a probe first evaluates the sample
    attaining it, failing without the grid when its margin is below -tol.
    The certificate needs feasible downward-closed in floats.  A non-finite
    sample is NaN at every k22, and fmin skips it.  At the others, when
    Re h11 >= 0 and 4*(max Re h11/b22 + max |h12|) is finite, each float
    step of the margin is finite and monotone in k22: Re h22 does not rise,
    so neither does L = 2*Re h11*Re h22 + Re h12 - |h12|; L >= 0 passes, and
    where L < 0 the margin L/scale does not rise as scale > 0 falls too.
    Otherwise (say a subnormal b22, whose 1/b22 overflows) the grid decides
    every probe.

    Raises InvalidParams when no grid point has finite h11 and h12 samples;
    bound() raises it when no k22 below the doubling search's 1e15 ceiling
    fails the margin, and ValueError for a negative or NaN tol.
    """

    def __init__(self, params: SystemParams, grid: Optional[np.ndarray] = None) -> None:
        grid = default_grid(_LLEWELLYN_POINTS) if grid is None else grid
        omegas = np.asarray(grid, dtype=float)
        h11, h12 = (h.eval_grid(omegas) for h in _plant_analysis(params).entries)
        if not np.any(np.isfinite(h11) & np.isfinite(h12)):
            # a Llewellyn verdict would be drawn from no data
            raise InvalidParams("h11 and h12 overflow double precision at every grid point")
        self._re11 = h11.real
        self._re12 = h12.real
        self._abs12 = np.abs(h12)
        with np.errstate(all="ignore"):
            self._w2 = omegas ** 2

    def margins(self, k22: float, b22: float) -> np.ndarray:
        """Normalized Llewellyn margins of the coupler (k22, b22) on the grid; NaN at a pole."""
        return _llewellyn_margin(k22, b22, self._re11, self._re12, self._abs12, self._w2)

    @functools.cached_property
    def _estimate(self) -> Optional[Tuple[np.ndarray, np.ndarray, float, float]]:
        """(c, w^2) with c = w^2/g at the finite samples where g > 0 and c is finite, and
        (inf, 0.0) elsewhere, so b22*(c - b22*w^2) is never NaN; then max Re h11 and
        max |h12| over the finite samples.  None when a finite sample has Re h11 < 0."""
        finite = np.isfinite(self._re11) & np.isfinite(self._re12) & np.isfinite(self._abs12)
        if np.any(self._re11[finite] < 0.0):
            return None
        tol = _LLEWELLYN_TOL
        with np.errstate(all="ignore"):
            num = self._abs12 - self._re12 - 2.0 * tol * self._abs12 - tol * _TINY
            g = num / (2.0 * self._re11 * (1.0 + tol))
            c = self._w2 / g
        bounds = finite & (g > 0.0) & (c < math.inf)
        peaks = (float(np.max(a[finite], initial=0.0)) for a in (self._re11, self._abs12))
        return (np.where(bounds, c, math.inf), np.where(bounds, self._w2, 0.0), *peaks)

    def feasible(self, k22: float, b22: float) -> bool:
        return _least_margin(self.margins(k22, b22))[1]

    def bound(self, b22: float, tol: float = 1e-3) -> float:
        _require_tol(tol)
        if not (b22 > 0.0 and _isfinite(b22)):
            return 0.0
        K, witness = math.nan, None
        est = self._estimate
        if est is not None and 4.0 * (est[2] * (1.0 / b22) + est[3]) < math.inf:
            with np.errstate(all="ignore"):
                Ks = b22 * (est[0] - b22 * est[1])
            i = int(np.argmin(Ks))
            K, witness = float(Ks[i]), (self._re11[i], self._re12[i], self._abs12[i], self._w2[i])

        def probe(k22: float) -> bool:
            if witness is not None and _llewellyn_margin(k22, b22, *witness) < -_LLEWELLYN_TOL:
                return False
            return self.feasible(k22, b22)

        try:
            return _certified_sup(probe, None, tol, K)
        except RuntimeError:
            raise InvalidParams(_UNBOUNDED) from None


# --------------------------------------------------------------------------
# top-level checks


def check_two_port_passivity(
    params: SystemParams,
    coupler: VirtualCoupler,
    grid: Optional[np.ndarray] = None,
) -> PassivityReport:
    """Full two-port passivity verdict: the four exact condition checks.

    The verdict is their conjunction, and nothing sampled enters it.  When
    (a) and (b) pass, the report adds the sampled grid margins of
    two_port_grid_margins: the least determinant and Re h11 margins over the
    grid and the omega where the smaller of the two is least.  They report
    how close the two-port comes to the boundary and decide nothing; near
    DC the sampled determinant margin can dip slightly below zero under an
    exact pass (see two_port_grid_margins).
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
        m11, _, mdet = two_port_grid_margins(params, coupler, omegas)
        ok = np.isfinite(mdet) & np.isfinite(m11)
        if np.any(ok):
            worst = np.minimum(m11[ok], mdet[ok])
            idx = int(np.argmin(worst))
            grid_min_det = float(np.min(mdet[ok]))
            grid_min_re11 = float(np.min(m11[ok]))
            grid_argmin = float(omegas[ok][idx])

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
    # the coefficients in the report's order, each times a positive integer
    rw = _plant_analysis(params).kernel.rw
    values = (*rw[:3], *reversed(_determinant_cubic(params, coupler)))
    failed = [r.name for r in (a, b) if not r.passed]
    failed += [n for n, v in zip(("r0", "r1", "r2", "t0", "t1", "t2", "t3"), values) if v < 0]
    return ConditionReport(
        name="sufficient_conditions",
        passed=not failed,
        failing=",".join(failed) if failed else None,
    )


def check_absolute_stability(
    params: SystemParams,
    coupler: VirtualCoupler,
    grid: Optional[np.ndarray] = None,
) -> AbsoluteStabilityReport:
    """Absolute stability: (a), (b), (c-i) exact plus sampled Llewellyn margin.

    The Llewellyn condition is evaluated on the grid (default: 4000
    log-spaced points over [1e-3, 1e6] rad/s) and passes when the minimum
    normalized margin stays at or above -1e-8.  Raises InvalidParams, as
    the absolute optimizer does, when no grid point has finite h11 and h12
    samples.
    """
    a = check_condition_a(params)
    b = check_condition_b(params)
    ci = check_condition_c_i(params)

    omegas = default_grid(_LLEWELLYN_POINTS) if grid is None else np.asarray(grid, dtype=float)
    margins = llewellyn_grid_margins(params, coupler, omegas)
    least, llewellyn_ok = _least_margin(margins)
    min_margin, argmin_omega = None, None
    if not math.isnan(least):
        idx = int(np.argmax(margins == least))  # the first least margin
        min_margin, argmin_omega = float(margins[idx]), float(omegas[idx])
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
