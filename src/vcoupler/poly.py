"""Exact polynomial arithmetic, Sturm chains, and sign-based root tools.

Coefficients are stored lowest degree first and converted to
fractions.Fraction on construction.  Floats are expanded to their exact
binary value rather than rounded, so every computation in this module
except the complex sampling Polynomial.eval is exact: two algebraically
identical expressions evaluate to identical rationals regardless of
operation order.  That determinism is what lets the rest of the package
compare independently derived formulas with zero tolerance.

The root-counting machinery is the classical Sturm theory: for a square-free
polynomial q, the sign-variation count V of its Sturm chain satisfies
V(a) - V(b) = number of real roots in the half-open interval (a, b], with
zeros skipped when counting variations.  (The half-open convention holds
even when a or b is itself a root, because V is right-continuous.)

Sign queries run on integers, not Fractions.  Each chain polynomial is
scaled once by the positive lcm of its denominators, and its sign at a
finite point n/d (d > 0) is read from the integer d**deg * q(n/d), a
homogeneous Horner sum.  Root isolation bisects on dyadic points
n / (B * 2**e) held as int pairs.  Both scalings are positive, so every
sign, verdict, root count and witness equals the one exact Fraction
evaluation gives (Rouillier and Zimmermann, "Efficient isolation of
polynomial's real roots", J. Comput. Appl. Math. 2004, use the same
integer evaluation).

Polynomial.gcd runs on integers too: a primitive remainder sequence on the
operands' primitive integer vectors, made monic only at the end.  The monic
gcd is unique, so it is the one Euclid's algorithm on Fractions returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import InvalidInterval, ZeroPolynomial

Number = Union[int, float, Fraction]

NEG_INF = float("-inf")
POS_INF = float("inf")

# Hard cap on bisection steps during root isolation.  Rational root gaps are
# always resolvable in finitely many halvings; this guard only trips on a
# logic error, never on legitimate input.
_MAX_BISECTIONS = 200_000


def _exact(value: Number) -> Fraction:
    """Convert a number to Fraction exactly (floats via binary expansion)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("coefficients and points must be finite")
        return Fraction(value)
    raise TypeError(f"unsupported numeric type: {type(value).__name__}")


def _witness_float(value: Fraction) -> float:
    """Lossy conversion for reporting and float sampling: rationals beyond
    float range clamp to signed infinity instead of raising (no exact
    verdict depends on this)."""
    try:
        return float(value)
    except OverflowError:
        return POS_INF if value > 0 else NEG_INF


def _dyadic_float(n: int, shift: int) -> float:
    """_witness_float(Fraction(n, 2**shift)) with no Fraction: int true division
    rounds correctly too, and raises OverflowError where float(Fraction) does."""
    try:
        return n / (1 << shift)
    except OverflowError:
        return POS_INF if n > 0 else NEG_INF


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs are lowest degree first; trailing (highest-degree) zeros are
    trimmed, and the zero polynomial is stored as an empty tuple with
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Number]):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coeff(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial([0])"
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"

    # -- evaluation ------------------------------------------------------

    def eval_exact(self, x: Number) -> Fraction:
        """Horner evaluation in exact rational arithmetic."""
        xf = _exact(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xf + c
        return acc

    def eval(self, s: complex) -> complex:
        """Horner evaluation at a complex point, in double precision."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * s + _witness_float(c)
        return acc

    def float_coeffs(self) -> List[float]:
        """Coefficients as floats, lowest degree first; those beyond the
        float range clamp to signed infinity."""
        return [_witness_float(c) for c in self.coeffs]

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __divmod__(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), Polynomial(rem)
        quot = [Fraction(0)] * (dq + 1)
        dlead = other.leading_coeff
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / dlead
            quot[k] = c
            if c != 0:
                for j, d in enumerate(other.coeffs):
                    rem[k + j] -= c * d
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("division was expected to be exact")
        return q

    # -- calculus and standard forms --------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading_coeff
        return Polynomial([c / lead for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor, by a primitive remainder sequence.

        Both operands become primitive integer vectors (_integer_vector,
        then the content divided out), and a, b = b, primitive(prem(a, b))
        runs on Python ints until b is zero (Collins, JACM 1967; Brown,
        JACM 1971).  Each step keeps the gcd up to a constant factor, and
        the last nonzero vector, divided by its leading entry, is the monic
        gcd; that is unique, so the result equals the one Euclid on
        Fractions gives.  gcd(a, 0) is a.monic() and gcd(0, 0) is zero.
        """
        if other.is_zero:
            return self.monic()
        a = _primitive(_integer_vector(self.coeffs))
        b = _primitive(_integer_vector(other.coeffs))
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return Polynomial([Fraction(c, a[-1]) for c in a])

    def squarefree_decomposition(self) -> List[Tuple["Polynomial", int]]:
        """Yun's algorithm: [(factor_i, multiplicity_i)] with factors square-free.

        The factors are monic; the product of factor_i**multiplicity_i equals
        self up to the leading coefficient.
        """
        if self.degree <= 0:
            return []
        p = self.monic()
        d = p.derivative()
        g = p.gcd(d)
        if g.degree == 0:
            return [(p, 1)]
        out: List[Tuple[Polynomial, int]] = []
        a = p.exact_div(g)
        b = d.exact_div(g)
        c = b - a.derivative()
        i = 1
        while a.degree > 0:
            f = a.gcd(c)
            if f.degree > 0:
                out.append((f, i))
            if f.degree == 0:
                a_next = a
            else:
                a_next = a.exact_div(f)
            b = c if f.degree == 0 else c.exact_div(f)
            a = a_next
            c = b - a.derivative()
            i += 1
        return out

    # -- structure helpers -------------------------------------------------

    def valuation(self) -> int:
        """Multiplicity of the root at 0 (count of leading zero coefficients)."""
        if self.is_zero:
            return 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return k

    def shift_down(self, k: int) -> "Polynomial":
        """Exact division by x**k."""
        if k == 0:
            return self
        if any(c != 0 for c in self.coeffs[:k]):
            raise ArithmeticError("polynomial is not divisible by x**k")
        return Polynomial(self.coeffs[k:])

    def reflect(self) -> "Polynomial":
        """p(-x)."""
        return Polynomial([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def even_odd_parts(self) -> Tuple["Polynomial", "Polynomial"]:
        """E, O with p(s) = E(s**2) + s * O(s**2)."""
        return Polynomial(self.coeffs[0::2]), Polynomial(self.coeffs[1::2])

    def cauchy_bound(self) -> Fraction:
        """R = 1 + max|c_i / c_n|: every real root lies in [-R, R]."""
        if self.degree <= 0:
            return Fraction(1)
        lead = abs(self.leading_coeff)
        m = max(abs(c) for c in self.coeffs[:-1])
        return 1 + m / lead


def _integer_vector(coeffs: Sequence[Fraction]) -> Tuple[int, ...]:
    """L*coeffs as ints, L the positive lcm of their denominators."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs)


def _primitive(ints: Sequence[int]) -> List[int]:
    """ints divided by their content, the positive gcd of the entries."""
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _pseudo_remainder(a: List[int], b: List[int]) -> List[int]:
    """A nonzero integer multiple of a mod b; b is nonzero, both int vectors.

    Each step scales the running remainder by lc(b)/g and subtracts
    lc(r)/g times the shifted b, g = gcd(lc(r), lc(b)), which cancels the
    leading term on ints.  Highest-degree zeros are trimmed.
    """
    r = list(a)
    lb = b[-1]
    n = len(b) - 1
    while len(r) > n:
        lr = r.pop()
        if lr:
            g = math.gcd(lr, lb)
            u, v = lb // g, lr // g
            k = len(r) - n
            r = [u * c for c in r]
            for j in range(n):
                r[k + j] -= v * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def _homogeneous(ints: Tuple[int, ...], num: int, den: int) -> int:
    """den**deg * q(num/den) for q with coefficient vector ints; den > 0.

    A positive multiple of q(num/den), so it has the same sign, computed as
    the homogeneous Horner sum of c_i * num**i * den**(deg - i) on ints.
    """
    if not ints:
        return 0
    acc = ints[-1]
    dpow = den
    for c in reversed(ints[:-1]):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _variations(values: Iterable[Number]) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


@dataclass(frozen=True)
class SturmChain:
    """Signed remainder chain of a pair of polynomials.

    sturm_sequence builds it from a square-free polynomial and its
    derivative; the Routh-Hurwitz count in stability builds it from the
    even and odd parts of a polynomial.  polys is the exact Fraction chain;
    ints holds each of its polynomials scaled once by the positive lcm of
    its denominators, which every sign query at a finite point evaluates.
    """

    polys: Tuple[Polynomial, ...]
    ints: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ints", tuple(_integer_vector(q.coeffs) for q in self.polys))

    def values_at(self, num: int, den: int) -> List[int]:
        """den**deg_i * q_i(num/den) for each chain polynomial q_i; den > 0."""
        return [_homogeneous(v, num, den) for v in self.ints]


def remainder_chain(a: Polynomial, b: Polynomial) -> SturmChain:
    """Chain {a, b, -rem(a, b), ...} down to a constant, kept exactly as produced.

    The chain stops early at a zero remainder, which only happens when a
    and b share a nonconstant factor.
    """
    seq = [a, b]
    while seq[-1].degree >= 1:
        r = seq[-2] % seq[-1]
        if r.is_zero:
            break
        seq.append(-r)
    return SturmChain(tuple(seq))


def sturm_sequence(p: Polynomial) -> SturmChain:
    """Sturm chain {q, q', -rem, ...} of the square-free part q of p.

    Remainders are kept exactly as produced (no rescaling), so e.g.
    x**2 - 2 yields {x**2 - 2, 2x, 2} and x**3 yields {x, 1}.  The chain of
    p itself is built first: its remainders are those of Euclid's
    gcd(p, p') up to sign, so it ends on a constant iff p is square-free,
    and otherwise its last element is that gcd up to a constant factor.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial is undefined")
    if p.degree < 1:
        return SturmChain((p,))
    chain = remainder_chain(p, p.derivative())
    g = chain.polys[-1]
    if g.degree < 1:
        return chain
    q = p.exact_div(g.monic())
    return remainder_chain(q, q.derivative())


def sign_variations(chain: SturmChain, at) -> int:
    """Sign-variation count of the chain at a point or at +/-infinity.

    Zero values are skipped.  `at` may be any finite number or
    +/-math.inf (leading-coefficient signs).  A finite point is taken
    exactly as num/den with den > 0, and each polynomial's sign is read
    from its integer multiple den**deg * q(num/den) (see SturmChain.ints),
    so no Fraction arithmetic runs.
    """
    if isinstance(at, float) and math.isinf(at):
        flip = 1 if at > 0 else -1
        return _variations(q.leading_coeff * flip ** q.degree for q in chain.polys if q.coeffs)
    x = _exact(at)
    return _variations(chain.values_at(x.numerator, x.denominator))


def _validate_interval(a, b) -> None:
    a_ninf = isinstance(a, float) and math.isinf(a) and a < 0
    b_pinf = isinstance(b, float) and math.isinf(b) and b > 0
    if isinstance(a, float) and math.isinf(a) and a > 0:
        raise InvalidInterval("left endpoint is +inf")
    if isinstance(b, float) and math.isinf(b) and b < 0:
        raise InvalidInterval("right endpoint is -inf")
    if not a_ninf and not b_pinf and not (_exact(a) < _exact(b)):
        raise InvalidInterval(f"empty interval ({a}, {b})")


def count_real_roots(p: Polynomial, a=NEG_INF, b=POS_INF) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if p.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial is undefined")
    _validate_interval(a, b)
    if p.degree == 0:
        return 0
    chain = sturm_sequence(p)
    n = sign_variations(chain, a) - sign_variations(chain, b)
    # V(a) - V(b) counts roots in (a, b]; drop b itself if it is a root.
    if not (isinstance(b, float) and math.isinf(b)):
        x = _exact(b)
        if _homogeneous(chain.ints[0], x.numerator, x.denominator) == 0:
            n -= 1
    return n


def _gap_points(chain: SturmChain, lo: Fraction, hi: Fraction) -> List[Fraction]:
    """Sample points meeting every root-free gap of chain.polys[0] in [lo, hi].

    Returns points (including lo and hi) such that each maximal open
    subinterval of (lo, hi) free of roots of chain.polys[0] contains at least
    one of them.  A polynomial with the same distinct roots is therefore
    nonnegative on [lo, hi] iff it is nonnegative at all returned points.

    Bisection runs on dyadic points over den, the lcm of the denominators
    of lo and hi: a point n / (den * 2**e) is held as the int pair (n, e),
    reduced so that n is odd or e == 0, which makes the pair canonical and
    lets it key the cache of sign variations.  Signs come from the chain's
    integer vectors (SturmChain.values_at); only the returned points become
    Fractions, and they are the same rationals exact bisection would give.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    probes = {}

    def probe(x: Tuple[int, int]) -> Tuple[int, bool]:
        """(sign variations at x, whether x is a root of chain.polys[0])."""
        if x not in probes:
            values = chain.values_at(x[0], den << x[1])
            probes[x] = (_variations(values), values[0] == 0)
        return probes[x]

    def V(x: Tuple[int, int]) -> int:
        return probe(x)[0]

    def is_root(x: Tuple[int, int]) -> bool:
        return probe(x)[1]

    def mid(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
        e = max(x[1], y[1])
        n = (x[0] << (e - x[1])) + (y[0] << (e - y[1]))
        if n == 0:
            return 0, 0
        k = min((n & -n).bit_length() - 1, e + 1)
        return n >> k, e + 1 - k

    def fraction(x: Tuple[int, int]) -> Fraction:
        return Fraction(x[0], den << x[1])

    lo_x = (lo.numerator * (den // lo.denominator), 0)
    hi_x = (hi.numerator * (den // hi.denominator), 0)
    pts: List[Fraction] = [lo, hi]
    if V(lo_x) - V(hi_x) <= 0:
        return pts

    # Bisect (lo, hi] into half-open cells each holding at most one root.
    budget = _MAX_BISECTIONS
    work = [(lo_x, hi_x)]
    cells: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    while work:
        budget -= 1
        if budget <= 0:
            raise RuntimeError("root isolation exceeded its bisection budget")
        l, h = work.pop()
        c = V(l) - V(h)
        if c == 0:
            continue
        if c == 1:
            cells.append((l, h))
            continue
        m = mid(l, h)
        work.append((m, h))
        work.append((l, m))  # popped first, so the cells come out in ascending order

    # Each cell (l, h] holds one root r.  If l is itself a root (the previous
    # cell's root, or a root exactly at lo), refine until we find a clean
    # point strictly between that root and r; otherwise l already lies in the
    # gap left of r.
    for l, h in cells:
        if not is_root(l):
            pts.append(fraction(l))
            continue
        while True:
            budget -= 1
            if budget <= 0:
                raise RuntimeError("gap refinement exceeded its bisection budget")
            m = mid(l, h)
            if is_root(m):
                pts.append(fraction(mid(l, m)))
                break
            if V(l) - V(m) == 1:
                h = m  # root in (l, m]
            else:
                pts.append(fraction(m))  # root in (m, h]; m sits in the gap
                break
    return pts


def is_nonnegative_on(p: Polynomial, interval) -> Tuple[bool, Optional[float]]:
    """Decide p >= 0 on the closure of the interval; return (verdict, witness).

    interval is a pair (a, b) with a < b; either end may be +/-math.inf.
    On failure the witness is a point (float of an exact sample) where
    p < 0.  The decision is exact: sign-constant gaps between the distinct
    real roots are enumerated with a Sturm chain (_gap_points), and p's
    sign at each sample n/d is that of d**deg * L * p(n/d), computed on
    p's integer vector (L the lcm of its denominators).
    """
    a, b = interval
    _validate_interval(a, b)
    a_ninf = isinstance(a, float) and math.isinf(a)
    b_pinf = isinstance(b, float) and math.isinf(b)
    A = None if a_ninf else _exact(a)
    B = None if b_pinf else _exact(b)

    if p.is_zero:
        return True, None
    if p.degree == 0:
        if p.coeffs[0] >= 0:
            return True, None
        w = A if A is not None else (B - 1 if B is not None else Fraction(0))
        return False, _witness_float(w)

    lead = p.leading_coeff
    R = p.cauchy_bound()

    if b_pinf and lead < 0:
        w = R + 1 if A is None else max(A, R) + 1
        return False, _witness_float(w)
    if a_ninf:
        s_neg_inf = lead if p.degree % 2 == 0 else -lead
        if s_neg_inf < 0:
            w = -(R + 1) if B is None else min(B, -R) - 1
            return False, _witness_float(w)

    lo = A if A is not None else -(R + 1)
    hi = B if B is not None else R + 1
    if lo >= hi:
        # The finite window lies entirely beyond the root bound and the
        # relevant asymptotic sign was already checked above.
        return True, None

    chain = sturm_sequence(p)
    ints = _integer_vector(p.coeffs)
    for t in _gap_points(chain, lo, hi):
        if _homogeneous(ints, t.numerator, t.denominator) < 0:
            return False, _witness_float(t)
    return True, None


def first_clause(c3: Number, c2: Number, c1: Number) -> bool:
    """Clause (a) of cubic_nonneg_closed_form: c1 >= 0 and c2 >= -sqrt(3*c1*c3)."""
    return c1 >= 0 and (c2 >= 0 or c2 * c2 <= 3 * c1 * c3)


def cubic_nonneg_closed_form(p3: Number, p2: Number, p1: Number, p0: Number) -> bool:
    """Decide p3*x**3 + p2*x**2 + p1*x + p0 >= 0 for all x >= 0, in closed form.

    Exact rational reformulation (no square roots, no divisions):
    with p3 > 0 and p0 >= 0 the cubic is nonnegative on [0, inf) iff

      (a)  p1 >= 0 and (p2 >= 0 or p2**2 <= 3*p1*p3), or
      (b)  sigma = p2**2 - 3*p1*p3 > 0, sigma3 = p1*p2 - 9*p0*p3 < 0, and
           4*p2*sigma3*sigma <= 4*p1*sigma**2 + 3*p3*sigma3**2.

    Branch (a) is the "no real critical dip" case (p2 >= -sqrt(3*p1*p3)
    squared out); branch (b) places the value at the interior minimum above
    zero, with equality admitted because equality corresponds to a touching
    double root, which does not break nonnegativity.  p3 < 0 or p0 < 0 is
    an immediate failure (behaviour at x -> inf, resp. at x = 0).  sigma is
    formed once: with p3 > 0, sigma <= 0 forces p1 >= 0, so once p1 >= 0
    and p2 >= 0 has not passed, clause (a) reads sigma <= 0, and clause (b)
    reuses the same sigma.

    A degenerate leading coefficient (p3 == 0) leaves the quadratic
    p2*x**2 + p1*x + p0, nonnegative on [0, inf) iff p2 >= 0, p0 >= 0 and
    (p1 >= 0 or (p2 > 0 and p1**2 <= 4*p0*p2)): with p1 < 0 its vertex lies
    at x > 0, and equality in the discriminant is a touching double root.

    Every clause compares terms of equal degree in the coefficients, so a
    positive common scale never changes the verdict.  Python ints are used
    as they are, without conversion to Fraction: a caller holding a
    rational cubic can clear its denominators once and decide on integers.
    """
    if type(p3) is int and type(p2) is int and type(p1) is int and type(p0) is int:
        c3, c2, c1, c0 = p3, p2, p1, p0
    else:
        c3, c2, c1, c0 = (p if type(p) is int else _exact(p) for p in (p3, p2, p1, p0))
    if c3 == 0:
        return c2 >= 0 and c0 >= 0 and (c1 >= 0 or (c2 > 0 and c1 * c1 <= 4 * c0 * c2))
    if c3 < 0 or c0 < 0:
        return False
    if c1 >= 0 and c2 >= 0:
        return True
    sigma = c2 * c2 - 3 * c1 * c3
    if sigma <= 0:
        return True
    sigma3 = c1 * c2 - 9 * c0 * c3
    return sigma3 < 0 and (
        4 * c2 * sigma3 * sigma <= 4 * c1 * sigma * sigma + 3 * c3 * sigma3 * sigma3
    )
