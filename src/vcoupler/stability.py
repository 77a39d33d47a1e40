"""Root-location tests and positive realness of rational impedances.

Three layers:

1. Closed-form tests for quartic denominators with positive coefficients:
   a single margin expression decides open-right-half-plane root freedom,
   the boundary case yields one simple conjugate pole pair on the imaginary
   axis at a closed-form frequency, and the residue at that pair is real
   and positive iff two closed-form coefficient conditions hold.

2. A generic exact root-location analysis for arbitrary denominators:
   the even/odd-part gcd isolates imaginary-axis root pairs (exactly, via
   Sturm counts on the gcd), and an exact Routh recursion settles the
   remaining factor.  A numeric root finder is used only as a fallback when
   the Routh table hits a zero pivot, and to report pole frequencies.

3. positive_real combines both with an exact nonnegativity test of the
   real part along the imaginary axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NoImaginaryPole, NonPositiveCoefficient, ZeroPolynomial
from .poly import POS_INF, Number, Polynomial, _exact, is_nonnegative_on

__all__ = [
    "RationalFunction",
    "QuarticHurwitz",
    "quartic_hurwitz",
    "imaginary_axis_pole",
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

        Points landing exactly on a pole come back as inf/nan; callers
        filter with isfinite.
        """
        s = 1j * np.asarray(omegas, dtype=float)
        num = np.polyval(self.num.float_coeffs()[::-1] or [0.0], s)
        den = np.polyval(self.den.float_coeffs()[::-1], s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

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

    def scale(self, factor: Number) -> "RationalFunction":
        return RationalFunction(self.num.scale(factor), self.den)


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


def _margin_vanishes(cs: Tuple[Fraction, ...], rel_tol: float) -> bool:
    """|Hurwitz margin| within rel_tol of the sum of its terms' magnitudes."""
    a4, a3, a2, a1, a0 = cs
    scale = a1 * a2 * a3 + a1 * a1 * a4 + a0 * a3 * a3
    return abs(_hurwitz_margin(cs)) <= _exact(rel_tol) * scale


def imaginary_axis_pole(
    coeffs: Sequence[Number], rel_tol: float = 1e-9
) -> Optional[float]:
    """Frequency of the simple imaginary-axis root pair, if one exists.

    For a positive-coefficient quartic, a root pair +/-j*p exists iff the
    Hurwitz margin vanishes; the test is relative (margin against the sum of
    its constituent magnitudes) with tolerance rel_tol.  Returns p > 0, or
    None when the margin is bounded away from zero.
    """
    cs = _quartic_coeffs(coeffs)
    if not _margin_vanishes(cs, rel_tol):
        return None
    a4, a3, a2, a1, a0 = cs
    pivot = a2 * a3 - a1 * a4
    if pivot <= 0:
        # impossible when margin ~ 0 with positive coefficients
        return None
    return math.sqrt(float(a0 * a3 / pivot))


def residues_positive_real(
    num_cubic: Sequence[Number],
    den_quartic: Sequence[Number],
    rel_tol: float = 1e-9,
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
    if not _margin_vanishes(den, rel_tol):
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
    real_ok = abs(lhs - rhs) <= _exact(rel_tol) * scale if scale > 0 else lhs == rhs
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
    method: str  # "routh-exact" or "roots-fallback"

    @property
    def all_imaginary_simple(self) -> bool:
        return all(pair.multiplicity == 1 for pair in self.imaginary_pairs)


def _routh_sign_changes(p: Polynomial) -> Optional[int]:
    """Sign changes of the exact Routh first column; None on a zero pivot.

    Precondition: p has no imaginary-axis roots (even/odd parts coprime), so
    a full zero row cannot occur; a zero pivot with a nonzero row signals a
    singular table and triggers the numeric fallback.
    """
    cs = list(reversed(p.coeffs))  # highest degree first
    row0 = [cs[i] for i in range(0, len(cs), 2)]
    row1 = [cs[i] for i in range(1, len(cs), 2)]
    first_col = [row0[0]]
    while row1:
        if row1[0] == 0:
            return None
        first_col.append(row1[0])
        width = len(row1)
        nxt = []
        for i in range(width - 1 if len(row0) == width else width):
            a = row0[i + 1] if i + 1 < len(row0) else Fraction(0)
            b = row1[i + 1] if i + 1 < len(row1) else Fraction(0)
            nxt.append((row1[0] * a - row0[0] * b) / row1[0])
        while nxt and nxt[-1] == 0:
            nxt.pop()
        if not nxt and len(row1) > 1:
            # proportional rows => common factor; excluded by precondition
            return None
        row0, row1 = row1, nxt
    changes = 0
    for u, v in zip(first_col, first_col[1:]):
        if (u > 0) != (v > 0):
            changes += 1
    return changes


def _real_negative_roots_only(g: Polynomial) -> bool:
    """True iff every root of square-free g is real and negative."""
    from .poly import count_real_roots

    return count_real_roots(g, float("-inf"), 0) == g.degree and g.eval_exact(0) != 0


def analyze_denominator(p: Polynomial) -> DenominatorAnalysis:
    """Locate roots of p relative to the imaginary axis, exactly.

    Writes p = s**k * g(s**2) * p1(s) where g = gcd of the even/odd parts
    (in u = s**2) after stripping the root at 0.  Roots of g with u < 0 are
    the imaginary-axis pairs of p; any other root of g lies off the axis in
    a right-half-plane-symmetric set.  p1 has coprime even/odd parts, hence
    no imaginary-axis roots, and an exact Routh recursion counts its RHP
    roots; numpy.roots is the fallback when the table is singular.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot analyze the zero polynomial")
    if p.degree == 0:
        return DenominatorAnalysis(True, 0, (), "routh-exact")

    k = p.valuation()
    q = p.shift_down(k)
    even, odd = q.even_odd_parts()
    # gcd handles odd == 0 (purely even q) by returning even itself, monic
    g = even.gcd(odd)

    pairs: List[ImaginaryAxisPair] = []
    rhp_free = True
    method = "routh-exact"

    if g.degree > 0:
        for factor, mult in g.squarefree_decomposition():
            if not _real_negative_roots_only(factor):
                rhp_free = False
                # still report whatever imaginary pairs exist numerically
                for u in np.roots(factor.float_coeffs()[::-1]):
                    if abs(u.imag) < 1e-9 * max(1.0, abs(u)) and u.real < 0:
                        pairs.append(
                            ImaginaryAxisPair(math.sqrt(-u.real), mult)
                        )
                continue
            for u in sorted(np.roots(factor.float_coeffs()[::-1]).real):
                pairs.append(ImaginaryAxisPair(math.sqrt(-u), mult))
        # g(s**2): interleave coefficients with zeros
        interleaved: List[Fraction] = []
        for i, c in enumerate(g.coeffs):
            interleaved.append(c)
            if i < g.degree:
                interleaved.append(Fraction(0))
        gs2 = Polynomial(interleaved)
        p1 = q.exact_div(gs2)
    else:
        p1 = q

    if rhp_free and p1.degree > 0:
        changes = _routh_sign_changes(p1)
        if changes is None:
            method = "roots-fallback"
            roots = np.roots(p1.float_coeffs()[::-1])
            scale = max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
            rhp_free = bool(np.all(roots.real < 1e-9 * scale))
        else:
            rhp_free = changes == 0

    pairs.sort(key=lambda pr: pr.omega)
    return DenominatorAnalysis(
        open_rhp_free=rhp_free,
        zero_root_multiplicity=k,
        imaginary_pairs=tuple(pairs),
        method=method,
    )


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


def _numeric_residue(num: Polynomial, den: Polynomial, s0: complex) -> complex:
    """Residue of num/den at a simple pole s0: num(s0) / den'(s0)."""
    return num.eval(complex(s0)) / den.derivative().eval(complex(s0))


def positive_real(
    rf: RationalFunction,
    rel_tol: float = 1e-9,
    grid: Optional[np.ndarray] = None,
) -> PositiveRealVerdict:
    """Positive realness of the impedance rf, decided exactly where possible.

    Pole-side checks run on the gcd-reduced function (true poles only); the
    quartic closed forms are dispatched when the reduced denominator is a
    positive quartic, with the generic exact analysis otherwise.  The
    real-part condition is an exact Sturm nonnegativity test; the reported
    margin and (on failure) witness come from a log-spaced probe grid
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

    for pair in analysis.imaginary_pairs:
        pole_freqs.append(pair.omega)
        if pair.multiplicity > 1:
            residues_ok = False
            continue
        r = _numeric_residue(num, den, 1j * pair.omega)
        if not (abs(r.imag) <= rel_tol * (abs(r) + 1e-300) and r.real > 0):
            residues_ok = False

    # real part along the axis, exact
    f = real_part_even_polynomial(num, den)
    nonneg, witness_x = is_nonnegative_on(f, (0, POS_INF))
    witness_omega = math.sqrt(witness_x) if (not nonneg and witness_x is not None) else None

    # dimensionless margin over a probe grid
    if grid is None:
        grid = np.logspace(-3, 6, 400)
    z = red.eval_grid(grid)
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
