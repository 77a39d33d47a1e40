"""Root-location tests and positive realness of rational impedances.

Three layers:

1. Closed-form tests for quartic denominators with positive coefficients:
   a single margin expression decides open-right-half-plane root freedom,
   the boundary case yields one simple conjugate pole pair on the imaginary
   axis at a closed-form frequency, and the residue at that pair is real
   and positive iff two closed-form coefficient conditions hold.

2. A generic exact root-location analysis for arbitrary denominators:
   the even/odd-part gcd isolates imaginary-axis root pairs (exactly, via
   Sturm counts on the gcd), and the Routh-Hurwitz count through the Cauchy
   index of the even and odd parts, read off a signed remainder chain,
   counts the right-half-plane roots of the remaining factor.  A numeric
   root finder only reports the frequencies of the axis pairs counted.

3. positive_real combines both with an exact nonnegativity test of the
   real part along the imaginary axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import NoImaginaryPole, NonPositiveCoefficient, ZeroPolynomial
from .poly import (
    NEG_INF,
    POS_INF,
    Number,
    Polynomial,
    _exact,
    count_real_roots,
    is_nonnegative_on,
    remainder_chain,
    sign_variations,
)

__all__ = [
    "RationalFunction",
    "QuarticHurwitz",
    "quartic_hurwitz",
    "imaginary_axis_pole",
    "residues_positive_real",
    "DenominatorAnalysis",
    "analyze_denominator",
    "axis_residue_fault",
    "PositiveRealVerdict",
    "positive_real",
]

# Relative tolerance of the float-input tests: a vanishing Hurwitz margin,
# a real residue.
_REL_TOL = 1e-9


# --------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Ratio of two exact polynomials in the Laplace variable s.

    Construction trims leading zeros only; poles/zeros shared between
    numerator and denominator are cancelled by reduced(), which callers use
    whenever true pole locations matter.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num if isinstance(num, Polynomial) else Polynomial(num)
        self.den = den if isinstance(den, Polynomial) else Polynomial(den)
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def reduced(self) -> "RationalFunction":
        """Cancel the exact gcd of numerator and denominator.

        The result's denominator keeps its original leading coefficient's
        sign convention (gcd is monic, so signs are unchanged).
        """
        if self.num.is_zero:
            return RationalFunction(Polynomial([]), Polynomial([1]))
        g = self.num.gcd(self.den)
        if g.degree <= 0:
            return self
        return RationalFunction(self.num.exact_div(g), self.den.exact_div(g))

    def eval(self, s: complex) -> complex:
        return self.num.eval(complex(s)) / self.den.eval(complex(s))

    def eval_grid(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at s = j*omega over a frequency array.

        Points landing exactly on a pole come back as inf or nan, and points
        where the float evaluation of the numerator or the denominator
        overflows come back as nan; callers filter with isfinite.
        """
        with np.errstate(all="ignore"):
            s = 1j * np.asarray(omegas, dtype=float)
            num = np.polyval(self.num.float_coeffs()[::-1] or [0.0], s)
            den = np.polyval(self.den.float_coeffs()[::-1], s)
            return np.where(np.isfinite(num) & np.isfinite(den), num / den, np.nan)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + RationalFunction(-other.num, other.den)


# --------------------------------------------------------------------------
# quartic closed forms


@dataclass(frozen=True)
class QuarticHurwitz:
    """Verdict and margin of the quartic open-RHP root test."""

    no_open_rhp: bool
    margin: Fraction


def _quartic_coeffs(coeffs: Sequence[Number]) -> Tuple[Fraction, ...]:
    if len(coeffs) != 5:
        raise ValueError("expected five coefficients (a4, a3, a2, a1, a0)")
    cs = tuple(_exact(c) for c in coeffs)
    if any(c <= 0 for c in cs):
        raise NonPositiveCoefficient(
            "quartic tests require strictly positive coefficients"
        )
    return cs


def quartic_hurwitz(coeffs: Sequence[Number]) -> QuarticHurwitz:
    """Open-RHP root freedom of a4*s^4 + ... + a0 with all a_i > 0.

    The single margin a1*(a2*a3 - a1*a4) - a0*a3**2 is >= 0 iff the quartic
    has no root with positive real part; at zero the quartic has exactly one
    conjugate root pair on the imaginary axis.
    """
    margin = _hurwitz_margin(_quartic_coeffs(coeffs))
    return QuarticHurwitz(no_open_rhp=margin >= 0, margin=margin)


def _hurwitz_margin(cs: Tuple[Fraction, ...]) -> Fraction:
    """a1*(a2*a3 - a1*a4) - a0*a3**2 for cs = (a4, a3, a2, a1, a0)."""
    a4, a3, a2, a1, a0 = cs
    return a1 * (a2 * a3 - a1 * a4) - a0 * a3 * a3


def _margin_vanishes(cs: Tuple[Fraction, ...]) -> bool:
    """|Hurwitz margin| within _REL_TOL of the sum of its terms' magnitudes."""
    a4, a3, a2, a1, a0 = cs
    scale = a1 * a2 * a3 + a1 * a1 * a4 + a0 * a3 * a3
    return abs(_hurwitz_margin(cs)) <= _exact(_REL_TOL) * scale


def imaginary_axis_pole(coeffs: Sequence[Number]) -> Optional[float]:
    """Frequency of the simple imaginary-axis root pair, if one exists.

    For a positive-coefficient quartic, a root pair +/-j*p exists iff the
    Hurwitz margin vanishes; the test is relative (margin against the sum of
    its constituent magnitudes) with tolerance _REL_TOL.  Returns p > 0, or
    None when the margin is bounded away from zero.
    """
    cs = _quartic_coeffs(coeffs)
    if not _margin_vanishes(cs):
        return None
    a4, a3, a2, a1, a0 = cs
    pivot = a2 * a3 - a1 * a4
    if pivot <= 0:
        # impossible when margin ~ 0 with positive coefficients
        return None
    return math.sqrt(float(a0 * a3 / pivot))


def residues_positive_real(
    num_cubic: Sequence[Number], den_quartic: Sequence[Number]
) -> bool:
    """Residue conditions at the imaginary-axis pole pair of Z = s*N3 / D4.

    num_cubic = (b3, b2, b1, b0) are the coefficients of the cubic factor N3
    (the full numerator is s*(b3*s^3 + b2*s^2 + b1*s + b0)); den_quartic =
    (a4, ..., a0) must have positive coefficients and a vanishing Hurwitz
    margin (otherwise NoImaginaryPole is raised).

    With beta = a3*b1 - a1*b3, the residue at the pole pair is real iff

        beta * (a2*a3 - 2*a1*a4) == (a3*b0 - a1*b2) * a3**2

    and positive iff beta > 0.  The multiplied-through form stays valid when
    a2*a3 == 2*a1*a4 (it reduces to a3*b0 == a1*b2, exactly what a real
    residue requires there).  Equality is tested relative to the magnitudes
    of its terms because inputs are generally floats.
    """
    if len(num_cubic) != 4:
        raise ValueError("expected four numerator coefficients (b3, b2, b1, b0)")
    den = _quartic_coeffs(den_quartic)
    if not _margin_vanishes(den):
        raise NoImaginaryPole(
            "denominator has no imaginary-axis pole (Hurwitz margin is nonzero)"
        )
    a4, a3, a2, a1, a0 = den
    b3, b2, b1, b0 = (_exact(c) for c in num_cubic)
    beta = a3 * b1 - a1 * b3
    lhs = beta * (a2 * a3 - 2 * a1 * a4)
    rhs = (a3 * b0 - a1 * b2) * a3 * a3
    scale = (
        abs(beta) * abs(a2 * a3 - 2 * a1 * a4)
        + (abs(a3 * b0) + abs(a1 * b2)) * a3 * a3
    )
    real_ok = abs(lhs - rhs) <= _exact(_REL_TOL) * scale if scale > 0 else lhs == rhs
    return bool(real_ok and beta > 0)


# --------------------------------------------------------------------------
# generic denominator analysis


@dataclass(frozen=True)
class ImaginaryAxisPair:
    """A conjugate root pair +/-j*omega of the denominator."""

    omega: float
    multiplicity: int


@dataclass(frozen=True)
class DenominatorAnalysis:
    """Exact root-location summary of a real polynomial."""

    open_rhp_free: bool
    zero_root_multiplicity: int
    imaginary_pairs: Tuple[ImaginaryAxisPair, ...]


def _rhp_root_count(p: Polynomial) -> int:
    """Number of open-right-half-plane roots of p, which has none on the axis.

    Routh-Hurwitz through the Cauchy index (Gantmacher, Theory of Matrices
    vol. II ch. XV): for p(s) = E(s**2) + s*O(s**2) of even degree n, with
    V the sign variations of the signed remainder chain of E(-u) and O(-u),
    the count is n/2 + V(0) - V(+inf).  An odd-degree p is first multiplied
    by s + 1, which adds one left-half-plane root.
    """
    if p.degree % 2:
        p = p * Polynomial([1, 1])
    even, odd = p.even_odd_parts()
    chain = remainder_chain(even.reflect(), odd.reflect())
    return p.degree // 2 + sign_variations(chain, 0) - sign_variations(chain, POS_INF)


def _axis_frequencies(factor: Polynomial, count: int) -> List[float]:
    """sqrt(-u) for the count negative real roots u of factor (reporting only).

    The count is exact; numpy.roots supplies the values, taking the count
    roots nearest the negative real half-line.
    """
    if count == 0:
        return []
    roots = sorted(
        np.roots(factor.float_coeffs()[::-1]),
        key=lambda u: abs(u.imag) if u.real < 0 else abs(u),
    )
    return [math.sqrt(abs(u.real)) for u in roots[:count]]


def analyze_denominator(p: Polynomial) -> DenominatorAnalysis:
    """Locate roots of p relative to the imaginary axis, exactly.

    Writes p = s**k * g(s**2) * p1(s) where g = gcd of the even/odd parts
    (in u = s**2) after stripping the root at 0.  Roots of g with u < 0 are
    the imaginary-axis pairs of p, counted by Sturm chains; any other root
    of g gives roots of p placed symmetrically about the axis, one of them in
    the right half plane.  p1 has coprime even/odd parts, hence no
    imaginary-axis roots, and _rhp_root_count counts its right-half-plane
    roots.  No decision depends on floating point.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot analyze the zero polynomial")

    k = p.valuation()
    q = p.shift_down(k)
    even, odd = q.even_odd_parts()
    # gcd handles odd == 0 (purely even q) by returning even itself, monic
    g = even.gcd(odd)

    pairs: List[ImaginaryAxisPair] = []
    rhp_free = True
    for factor, mult in g.squarefree_decomposition():
        on_axis = count_real_roots(factor, NEG_INF, 0)
        rhp_free = rhp_free and on_axis == factor.degree
        pairs += [ImaginaryAxisPair(w, mult) for w in _axis_frequencies(factor, on_axis)]

    # p1 = q / g(s**2)
    g_s2 = Polynomial([g.coeffs[i // 2] if i % 2 == 0 else 0 for i in range(2 * g.degree + 1)])
    p1 = q.exact_div(g_s2)
    if rhp_free and p1.degree > 0:
        rhp_free = _rhp_root_count(p1) == 0

    pairs.sort(key=lambda pr: pr.omega)
    return DenominatorAnalysis(
        open_rhp_free=rhp_free,
        zero_root_multiplicity=k,
        imaginary_pairs=tuple(pairs),
    )


def axis_residue_fault(
    num: Polynomial, den: Polynomial, pairs: Sequence[ImaginaryAxisPair]
) -> Optional[Tuple[str, float]]:
    """First imaginary-axis pole pair of num/den that breaks positive realness.

    Returns ("multiple-pole", omega) for a pair of multiplicity above one,
    ("residue", omega) for a simple pair whose residue num(j*omega) /
    den'(j*omega) is not real (within _REL_TOL of its modulus) and
    positive, and None when every pair passes.
    """
    slope = den.derivative()
    for pair in pairs:
        if pair.multiplicity > 1:
            return "multiple-pole", pair.omega
        s0 = 1j * pair.omega
        r = num.eval(s0) / slope.eval(s0)
        if not (abs(r.imag) <= _REL_TOL * (abs(r) + 1e-300) and r.real > 0):
            return "residue", pair.omega
    return None


# --------------------------------------------------------------------------
# positive realness


@dataclass(frozen=True)
class PositiveRealVerdict:
    """Decomposed positive-realness verdict for a rational impedance.

    stable            no poles in the open right half plane
    imaginary_axis_poles  pole frequencies on the axis (omega >= 0; 0 for s=0)
    residues_ok       axis poles (incl. s=0 and s=inf) simple with real
                      positive residues
    real_part_nonneg  Re Z(j*omega) >= 0 for all omega
    witness_frequency omega with Re Z(j*omega) < 0 when the above fails
    margin            min over the probe grid of Re Z / |Z| (dimensionless)
    """

    stable: bool
    imaginary_axis_poles: Tuple[float, ...]
    residues_ok: bool
    real_part_nonneg: bool
    witness_frequency: Optional[float]
    margin: float

    @property
    def passive(self) -> bool:
        return self.stable and self.residues_ok and self.real_part_nonneg


def real_part_even_polynomial(num: Polynomial, den: Polynomial) -> Polynomial:
    """f with f(omega**2) = Re[num(j*omega) * conj(den(j*omega))].

    Since |den|**2 > 0 away from poles, Re Z(j*omega) and f(omega**2) share
    their sign, turning the real-part test into polynomial nonnegativity on
    x = omega**2 >= 0.
    """
    prod = num * den.reflect()  # N(s) * D(-s); at s=j*omega: N * conj(D)
    coeffs = []
    for m in range(0, prod.degree + 1, 2):
        c = prod.coeffs[m]
        coeffs.append(c if (m // 2) % 2 == 0 else -c)
    return Polynomial(coeffs)


def positive_real(rf: RationalFunction) -> PositiveRealVerdict:
    """Positive realness of the impedance rf, decided exactly where possible.

    Pole-side checks run on the gcd-reduced function (true poles only), by
    the generic exact root-location analysis (analyze_denominator) of its
    denominator, whatever its degree.  The real-part condition is an exact
    Sturm nonnegativity test; the reported margin and (on failure) witness
    come from a 400-point log-spaced probe grid over [1e-3, 1e6] rad/s
    augmented with the exact witness.
    """
    red = rf.reduced()
    num, den = red.num, red.den

    if num.is_zero:
        return PositiveRealVerdict(True, (), True, True, None, 0.0)

    stable = True
    residues_ok = True
    pole_freqs: List[float] = []

    # pole at infinity (improper impedance)
    excess = num.degree - den.degree
    if excess >= 2:
        residues_ok = False
    elif excess == 1:
        if num.leading_coeff / den.leading_coeff <= 0:
            residues_ok = False

    analysis = analyze_denominator(den)
    stable = analysis.open_rhp_free

    if analysis.zero_root_multiplicity > 0:
        pole_freqs.append(0.0)
        if analysis.zero_root_multiplicity > 1:
            residues_ok = False
        else:
            den1 = den.shift_down(1)
            r0 = num.eval_exact(0) / den1.eval_exact(0)
            if r0 <= 0:
                residues_ok = False

    pole_freqs += [pair.omega for pair in analysis.imaginary_pairs]
    if axis_residue_fault(num, den, analysis.imaginary_pairs) is not None:
        residues_ok = False

    # real part along the axis, exact
    f = real_part_even_polynomial(num, den)
    nonneg, witness_x = is_nonnegative_on(f, (0, POS_INF))
    witness_omega = math.sqrt(witness_x) if (not nonneg and witness_x is not None) else None

    # dimensionless margin over a probe grid
    z = red.eval_grid(np.logspace(-3, 6, 400))
    finite = np.isfinite(z)
    margin = float("inf")
    if np.any(finite):
        zf = z[finite]
        margin = float(np.min(zf.real / (np.abs(zf) + 1e-300)))
    if witness_omega is not None and witness_omega > 0:
        zw = red.eval(1j * witness_omega)
        if np.isfinite(zw.real) and np.isfinite(zw.imag):
            margin = min(margin, zw.real / (abs(zw) + 1e-300))

    return PositiveRealVerdict(
        stable=stable,
        imaginary_axis_poles=tuple(sorted(pole_freqs)),
        residues_ok=residues_ok,
        real_part_nonneg=nonneg,
        witness_frequency=witness_omega,
        margin=margin,
    )
