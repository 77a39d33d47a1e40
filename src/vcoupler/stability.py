"""Root-location tests and positive realness of rational impedances.

Three layers:

1. Exact closed forms for quartic denominators with a4, a3, a2 > 0 and
   a1, a0 >= 0, the shapes of the drive's characteristic quartic for every
   pair of integral gains: the Hurwitz margin decides open-right-half-plane
   root freedom, it vanishes with a1 > 0 exactly when the quartic has one
   conjugate pole pair on the imaginary axis, at a closed-form frequency,
   and two closed-form coefficient conditions decide whether the residue at
   that pair is real and positive.

2. A generic exact root-location analysis for arbitrary denominators:
   the even/odd-part gcd isolates imaginary-axis root pairs (exactly, via
   Sturm counts on the gcd), and the Routh-Hurwitz count through the Cauchy
   index of the even and odd parts, read off a signed remainder chain,
   counts the right-half-plane roots of the remaining factor.  A numeric
   root finder only reports the frequencies of the axis pairs counted.

3. positive_real decides positive realness exactly with two tests: layer 2
   finds num + den strictly Hurwitz, and a Sturm test finds the real part
   along the imaginary axis nonnegative.  No residue is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

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
    "residues_positive_real",
    "DenominatorAnalysis",
    "analyze_denominator",
    "PositiveRealVerdict",
    "positive_real",
]

# --------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Ratio of two exact polynomials in the Laplace variable s.

    Construction trims leading zeros only; poles/zeros shared between
    numerator and denominator are cancelled by reduced(), which only
    positive_real calls, since its Hurwitz test of num + den needs lowest
    terms.  There is no rational arithmetic: each composition
    (perf.transmitted_impedance, perf.z_width) multiplies the Polynomial
    numerators and denominators in its own closed form and returns the
    result unreduced.
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


# --------------------------------------------------------------------------
# quartic closed forms


@dataclass(frozen=True)
class QuarticHurwitz:
    """Verdict and margin of the quartic open-RHP root test."""

    no_open_rhp: bool
    margin: Union[int, Fraction]


def _quartic_coeffs(coeffs: Sequence[Number]) -> Tuple[Union[int, Fraction], ...]:
    """The five coefficients, exact: ints stay ints, and the rest become Fractions."""
    if len(coeffs) != 5:
        raise ValueError("expected five coefficients (a4, a3, a2, a1, a0)")
    cs = tuple(c if type(c) is int else _exact(c) for c in coeffs)
    if any(c <= 0 for c in cs[:3]) or any(c < 0 for c in cs[3:]):
        raise NonPositiveCoefficient(
            "quartic tests require a4, a3, a2 > 0 and a1, a0 >= 0"
        )
    return cs


def quartic_hurwitz(coeffs: Sequence[Number]) -> QuarticHurwitz:
    """Open-RHP root freedom of a4*s^4 + ... + a0, with a4, a3, a2 > 0 and a1, a0 >= 0.

    The margin a1*(a2*a3 - a1*a4) - a0*a3**2 is >= 0 iff the quartic has no
    root with positive real part (Routh-Hurwitz).  With a0 = 0 it is a1
    times the Hurwitz margin of the cubic left after the root s = 0; with
    a1 = a0 = 0 it is 0, and the quadratic a4*s^2 + a3*s + a2 left after s**2
    has no root off the open left half plane.  A zero margin with a1 > 0
    means exactly one conjugate root pair on the imaginary axis, at
    s = +/-j*sqrt(a1/a3).  Exact for exact (int, Fraction, float) inputs;
    on five ints the margin is an int, formed with no Fraction.
    """
    a4, a3, a2, a1, a0 = _quartic_coeffs(coeffs)
    margin = a1 * (a2 * a3 - a1 * a4) - a0 * a3 * a3
    return QuarticHurwitz(no_open_rhp=margin >= 0, margin=margin)


def residues_positive_real(
    num_cubic: Sequence[Number], den_quartic: Sequence[Number]
) -> bool:
    """Residue conditions at the imaginary-axis pole pair of Z = s*N3 / D4.

    num_cubic = (b3, b2, b1, b0) are the coefficients of the cubic factor N3
    (the full numerator is s*(b3*s^3 + b2*s^2 + b1*s + b0)); den_quartic =
    (a4, ..., a0) takes quartic_hurwitz's shapes and must have a zero margin
    with a1 > 0, i.e. a simple pole pair at s = +/-j*sqrt(a1/a3) (otherwise
    NoImaginaryPole is raised).  a0 = 0 is allowed: the root s = 0 that the
    numerator's factor s cancels leaves the residue at the pair unchanged.

    With beta = a3*b1 - a1*b3, the residue at the pole pair is real iff

        beta * (a2*a3 - 2*a1*a4) == (a3*b0 - a1*b2) * a3**2

    and positive iff beta > 0: on the zero-margin surface, Im(N(jw)*conj(D'(jw)))
    is the difference of the two sides times 2*a1**1.5/a3**3.5, and a real
    residue has real part beta times 2*a1*((2*a1*a4 - a2*a3)**2 + a1*a3**3)/a3**5
    over |D'(jw)|**2.  Both tests are exact, ints are read as ints, and both
    are unchanged when the quartic or the cubic is scaled by a positive number.
    """
    if len(num_cubic) != 4:
        raise ValueError("expected four numerator coefficients (b3, b2, b1, b0)")
    den = a4, a3, a2, a1, _ = _quartic_coeffs(den_quartic)
    if a1 == 0 or quartic_hurwitz(den).margin != 0:
        raise NoImaginaryPole(
            "denominator has no imaginary-axis pole pair (a1 = 0 or a nonzero Hurwitz margin)"
        )
    b3, b2, b1, b0 = (c if type(c) is int else _exact(c) for c in num_cubic)
    beta = a3 * b1 - a1 * b3
    return beta > 0 and beta * (a2 * a3 - 2 * a1 * a4) == (a3 * b0 - a1 * b2) * a3 * a3


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


# --------------------------------------------------------------------------
# positive realness


@dataclass(frozen=True)
class PositiveRealVerdict:
    """Decomposed positive-realness verdict for a rational impedance Z = num/den.

    Z in lowest terms is positive real iff num + den is strictly Hurwitz and
    Re Z(j*omega) >= 0 for every omega (Anderson & Vongpanitlerd, Network
    Analysis and Synthesis, 1973).  S = (num - den)/(num + den) is then
    analytic on the closed right half plane with |S(j*omega)| <= 1, so
    |S| <= 1 there by the maximum principle and Z = (1 + S)/(1 - S) has
    Re Z >= 0.  Conversely a positive-real Z has Re(Z + 1) > 0 on Re s > 0,
    and coprimality keeps num + den nonzero at its axis poles.  No residue
    at an axis pole, s = 0 or infinity needs checking.

    stable            no poles in the open right half plane
    sum_hurwitz       every root of num + den in the open left half plane
                      (False for num + den = 0, i.e. Z = -1)
    real_part_nonneg  Re Z(j*omega) >= 0 for all omega
    witness_frequency omega with Re Z(j*omega) < 0 when the above fails
    margin            min over the probe grid of Re Z / |Z| (dimensionless)
    """

    stable: bool
    sum_hurwitz: bool
    real_part_nonneg: bool
    witness_frequency: Optional[float]
    margin: float

    @property
    def passive(self) -> bool:
        return self.sum_hurwitz and self.real_part_nonneg


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
    """Positive realness of the impedance rf, decided exactly.

    Both conditions of PositiveRealVerdict's theorem run on the gcd-reduced
    function: analyze_denominator(num + den) decides strict Hurwitz, and an
    exact Sturm nonnegativity test decides the real part along the axis.  A
    positive-real function has no pole in the open right half plane, so
    analyze_denominator(den) runs only to report stable on a failure.  The
    margin and (on failure) witness come from a 400-point log-spaced probe
    grid over [1e-3, 1e6] rad/s augmented with the exact witness.
    """
    red = rf.reduced()
    num, den = red.num, red.den

    if num.is_zero:
        return PositiveRealVerdict(True, True, True, None, 0.0)

    total = num + den
    sum_hurwitz = False
    if not total.is_zero:
        a = analyze_denominator(total)
        sum_hurwitz = a.open_rhp_free and not a.imaginary_pairs and not a.zero_root_multiplicity

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
        stable=(sum_hurwitz and nonneg) or analyze_denominator(den).open_rhp_free,
        sum_hurwitz=sum_hurwitz,
        real_part_nonneg=nonneg,
        witness_frequency=witness_omega,
        margin=margin,
    )
