"""Exact polynomial machinery: Sturm chains, root counting, cubic nonnegativity."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_plant
from oracle import plant_coefficients
from vcoupler import poly, stability
from vcoupler.errors import InvalidInterval, ZeroPolynomial
from vcoupler.model import (
    VirtualCoupler,
    derive_coefficients,
    nominal_coupler,
    nominal_params,
)
from vcoupler.poly import (
    Polynomial,
    count_real_roots,
    cubic_nonneg_closed_form,
    is_nonnegative_on,
    remainder_chain,
    sign_variations,
    sturm_sequence,
)


def poly_from_roots(roots) -> Polynomial:
    coeffs = [Fraction(1)]
    for r in roots:
        # multiply by (x - r)
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= Fraction(r) * coeffs[i + 1]
    return Polynomial(coeffs)


def exact_divmod(a, b):
    """Polynomial long division on ascending Fraction tuples."""
    a = list(a)
    b = list(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = Fraction(a[-1]) / Fraction(b[-1])
        q[shift] += factor
        for i, bc in enumerate(b):
            a[shift + i] -= factor * Fraction(bc)
        a.pop()
    return q, a


def _fraction_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Oracle: the monic gcd by Euclid's algorithm on Fraction coefficients."""
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a.monic()


# ---------------------------------------------------------------------------
# construction and evaluation basics
# ---------------------------------------------------------------------------


def test_coefficients_are_trimmed_and_degree_reported():
    assert Polynomial([1, 2, 0, 0]).degree == 1
    assert Polynomial([5]).degree == 0
    assert Polynomial([]).degree == -1
    assert Polynomial([0, 0]).degree == -1


def test_eval_is_exact_on_rational_input():
    p = Polynomial([Fraction(1, 3), 1])
    out = p.eval_exact(Fraction(1, 2))
    assert out == Fraction(5, 6)
    assert isinstance(out, Fraction)


def test_zero_polynomial_is_rejected():
    with pytest.raises(ZeroPolynomial):
        sturm_sequence(Polynomial([]))
    with pytest.raises(ZeroPolynomial):
        count_real_roots(Polynomial([0, 0])    )


def test_reversed_interval_is_rejected():
    with pytest.raises(InvalidInterval):
        is_nonnegative_on(Polynomial([1, 1]), (2.0, 1.0))


# ---------------------------------------------------------------------------
# root counting against constructed ground truth
# ---------------------------------------------------------------------------


def test_constructed_root_counts_degree_up_to_six():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        n_real = int(rng.integers(0, 7))
        pool = set()
        while len(pool) < n_real:
            pool.add(Fraction(int(rng.integers(-100, 101)), int(rng.integers(1, 11))))
        roots = sorted(pool)
        p = poly_from_roots(roots)
        if n_real < 6 and rng.random() < 0.5 and n_real <= 4:
            # pad with a rootless even factor to reach higher degree
            a = int(rng.integers(1, 10))
            p = Polynomial(
                [c * a * a for c in p.coeffs]
                + [Fraction(0)] * 0
            )
            # multiply by (x^2 + a^2): no new real roots
            base = list(p.coeffs)
            lifted = [Fraction(0)] * (len(base) + 2)
            for i, c in enumerate(base):
                lifted[i] += c * a * a
                lifted[i + 2] += c
            p = Polynomial(lifted)
        assert count_real_roots(p) == len(roots)


def test_root_count_on_positive_axis_with_known_roots():
    # roots at -2, -1, 1/2, 3 plus a complex pair: two of them lie in (0, inf)
    p = poly_from_roots([-2, -1, Fraction(1, 2), 3])
    lifted = [Fraction(0)] * (len(p.coeffs) + 2)
    for i, c in enumerate(p.coeffs):
        lifted[i] += c
        lifted[i + 2] += c
    p6 = Polynomial(lifted)  # multiplied by (x^2 + 1)
    assert p6.degree == 6
    assert count_real_roots(p6, 0, math.inf) == 2
    assert count_real_roots(p6) == 4


def test_root_count_on_subintervals():
    p = poly_from_roots([-3, 1, 4])
    assert count_real_roots(p, 0, 10) == 2
    assert count_real_roots(p, -10, 0) == 1
    assert count_real_roots(p, 2, 3) == 0


# ---------------------------------------------------------------------------
# Sturm chain structure
# ---------------------------------------------------------------------------


def test_chain_satisfies_euclidean_recurrence_exactly():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = [Fraction(int(c)) for c in rng.integers(-9, 10, size=int(rng.integers(3, 8)))]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = Fraction(1)
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        chain = sturm_sequence(Polynomial(coeffs)).polys
        for i in range(2, len(chain)):
            lhs = list(chain[i - 2].coeffs)
            # remainder of chain[i-2] by chain[i-1] must equal -chain[i]
            _, rem = exact_divmod(lhs, list(chain[i - 1].coeffs))
            rem = [Fraction(r) for r in rem]
            neg = [-c for c in chain[i].coeffs]
            while rem and rem[-1] == 0:
                rem.pop()
            assert rem == list(neg)


def _square_free_part(p: Polynomial) -> Polynomial:
    """Oracle: p / gcd(p, p'), with the same distinct roots, all simple."""
    if p.degree <= 0:
        return p
    g = _fraction_gcd(p, p.derivative())
    return p if g.degree <= 0 else p.exact_div(g)


def _two_pass_sturm_sequence(p: Polynomial):
    """Oracle: the square-free part by its own Euclid pass, then its chain."""
    q = _square_free_part(p)
    if q.degree < 1:
        return (q,)
    return remainder_chain(q, q.derivative()).polys


def test_one_pass_chain_matches_the_two_pass_route():
    rng = np.random.default_rng(2975)

    def rational():
        return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))

    square_free = repeated = 0
    for _ in range(200):
        # a constant times up to four random rational linear or quadratic
        # factors, each raised to a power 1..3: most products have repeated roots
        p = Polynomial([rational() or Fraction(5, 7)])
        for _ in range(int(rng.integers(0, 5))):
            lower = [rational() for _ in range(int(rng.integers(1, 3)))]
            factor = Polynomial(lower + [rational() or 1])
            for _ in range(int(rng.integers(1, 4))):
                p = p * factor
        expected = _two_pass_sturm_sequence(p)
        got = sturm_sequence(p).polys
        assert [q.coeffs for q in got] == [q.coeffs for q in expected]
        if p.degree >= 1:
            if _square_free_part(p).degree < p.degree:
                repeated += 1
            else:
                square_free += 1
    assert repeated >= 100 and square_free >= 10


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda c: any(c)),
    st.floats(-20, 20),
    st.floats(-20, 20),
)
def test_sign_variations_never_increase_left_to_right(coeffs, a, b):
    chain = sturm_sequence(Polynomial([Fraction(c) for c in coeffs]))
    lo, hi = min(a, b), max(a, b)
    assert sign_variations(chain, lo) >= sign_variations(chain, hi)


# ---------------------------------------------------------------------------
# cubic nonnegativity: three independent routes must agree
# ---------------------------------------------------------------------------


def _cubic_sampling_oracle(p3, p2, p1, p0) -> bool:
    """Verdict by brute force: dense samples plus evaluation at every critical
    point of the cubic on [0, inf), plus the sign of the dominant term."""
    desc = [p3, p2, p1, p0]
    lead = next((c for c in desc if c != 0.0), 0.0)
    if lead == 0.0:
        return True
    if lead < 0.0:
        return False
    xs = np.linspace(0.0, 100.0, 20001)
    vals = np.polyval(desc, xs)
    if np.min(vals) < -1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        return False
    crit = np.roots(np.polyder(desc))
    for x in crit:
        if abs(x.imag) < 1e-9 and x.real > 0:
            v = float(np.polyval(desc, x.real))
            if v < -1e-9 * max(1.0, abs(p0)):
                return False
    return float(np.polyval(desc, 0.0)) >= -1e-12 * max(1.0, abs(p0))


def test_cubic_routes_agree_on_random_coefficients():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        p3, p2, p1, p0 = rng.uniform(-10, 10, size=4)
        closed = cubic_nonneg_closed_form(p3, p2, p1, p0)
        sturm_route, _ = is_nonnegative_on(Polynomial([p0, p1, p2, p3]), (0.0, math.inf))
        oracle = _cubic_sampling_oracle(p3, p2, p1, p0)
        assert closed == sturm_route == oracle, (p3, p2, p1, p0)


def test_cubic_examples():
    assert cubic_nonneg_closed_form(1, 1, 1, 1) is True
    assert cubic_nonneg_closed_form(1, -3, 1, 1) is False
    assert cubic_nonneg_closed_form(1, -1, 1, 1) is True
    # degenerate degrees
    assert cubic_nonneg_closed_form(0, 0, 0, 0) is True
    assert cubic_nonneg_closed_form(0, 1, -2, 1) is True     # (x-1)^2 touches zero
    assert cubic_nonneg_closed_form(0, 0, 1, 0) is True      # x on [0, inf)
    assert cubic_nonneg_closed_form(0, 0, -1, 1) is False    # 1 - x
    assert cubic_nonneg_closed_form(-1, 0, 0, 1) is False    # dominant term negative


def test_nonnegativity_witness_is_a_real_violation():
    rng = np.random.default_rng(31337)
    seen_witness = 0
    for _ in range(300):
        coeffs = rng.uniform(-10, 10, size=4)
        p = Polynomial([coeffs[3], coeffs[2], coeffs[1], coeffs[0]])
        ok, witness = is_nonnegative_on(p, (0.0, math.inf))
        if not ok and witness is not None and math.isfinite(witness):
            seen_witness += 1
            scale = max(1.0, float(max(abs(c) for c in coeffs)))
            assert witness >= 0.0
            assert float(p.eval_exact(witness)) < 1e-6 * scale * max(1.0, witness) ** 3
    assert seen_witness > 50


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
)
def test_closed_form_matches_chain_route(p3, p2, p1, p0):
    closed = cubic_nonneg_closed_form(p3, p2, p1, p0)
    chained, _ = is_nonnegative_on(Polynomial([p0, p1, p2, p3]), (0.0, math.inf))
    assert closed == chained


# dyadic rationals, as every float is; small numerators hit the touching and
# equality cases of the closed form often
_DYADIC = st.one_of(
    st.floats(-10, 10).map(Fraction),
    st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-12, 12), st.integers(0, 70)),
)


@settings(max_examples=300, deadline=None)
@given(_DYADIC, _DYADIC, _DYADIC, _DYADIC, st.integers(0, 200))
def test_closed_form_verdict_is_unchanged_by_integer_scaling(p3, p2, p1, p0, shift):
    cubic = (p3, p2, p1, p0)
    scale = math.lcm(*(c.denominator for c in cubic)) << shift
    ints = tuple(c.numerator * (scale // c.denominator) for c in cubic)
    assert all(type(c) is int for c in ints)
    assert cubic_nonneg_closed_form(*ints) == cubic_nonneg_closed_form(*cubic)


def test_closed_form_decides_integers_without_fractions(monkeypatch):
    def refuse(value):
        raise AssertionError(f"{value!r} converted to Fraction")

    monkeypatch.setattr(poly, "_exact", refuse)
    assert cubic_nonneg_closed_form(1, -3, 1, 1) is False
    assert cubic_nonneg_closed_form(1, -1, 1, 1) is True
    assert cubic_nonneg_closed_form(4, -12, 9, 0) is True  # x*(2x - 3)**2 touches zero
    assert cubic_nonneg_closed_form(0, 4, -12, 9) is True  # (2x - 3)**2 touches zero
    assert cubic_nonneg_closed_form(0, 4, -12, 8) is False


def test_quadratic_closed_form_matches_chain_route_on_integers():
    # c3 = 0: the closed form decides the quadratic itself; the Sturm route is
    # the oracle, on exact integers and on positive multiples of each case
    rng = np.random.default_rng(4242)
    cases = [tuple(int(v) for v in rng.integers(-6, 7, size=3)) for _ in range(300)]
    cases += [(0, c1, c0) for c1 in (-2, 0, 3) for c0 in (-1, 0, 5)]
    cases += [(c2, 0, c0) for c2 in (-3, 0, 2) for c0 in (-4, 0, 1)]
    for _ in range(100):
        # a*(q*x - p)**2 touches zero at x = p/q; c0 +/- 1 moves off the touch
        a, p, q = int(rng.integers(-5, 6)), int(rng.integers(-9, 10)), int(rng.integers(1, 8))
        c2, c1, c0 = a * q * q, -2 * a * p * q, a * p * p
        assert c1 * c1 == 4 * c0 * c2
        cases += [(c2, c1, c0), (c2, c1, c0 + 1), (c2, c1, c0 - 1)]
    seen = {"c2 = 0": 0, "c1 = 0": 0, "touching, c1 < 0": 0, "pass": 0, "fail": 0}
    for c2, c1, c0 in cases:
        expected, _ = is_nonnegative_on(Polynomial([c0, c1, c2]), (0, math.inf))
        for scale in (1, 3, 2**200 + 1, int(rng.integers(1, 10**6))):
            assert cubic_nonneg_closed_form(0, scale * c2, scale * c1, scale * c0) is expected, (
                c2, c1, c0, scale,
            )
        seen["c2 = 0"] += c2 == 0
        seen["c1 = 0"] += c1 == 0
        seen["touching, c1 < 0"] += c1 < 0 and c1 * c1 == 4 * c0 * c2
        seen["pass" if expected else "fail"] += 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# integer sign evaluation against the Fraction route it replaced
# ---------------------------------------------------------------------------


def _sgn(value) -> int:
    return (value > 0) - (value < 0)


def _fraction_sign_variations(chain, at) -> int:
    """Oracle: signs of the Fraction chain by Fraction Horner evaluation."""
    if isinstance(at, float) and math.isinf(at):
        signs = [
            _sgn(q.leading_coeff) * (-1 if at < 0 and q.degree % 2 else 1)
            for q in chain.polys
            if not q.is_zero
        ]
    else:
        x = Fraction(at)
        signs = [_sgn(q.eval_exact(x)) for q in chain.polys]
    signs = [v for v in signs if v]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _fraction_gap_points(chain, lo, hi):
    """Oracle: root-gap sampling by Fraction bisection, Fraction-keyed cache."""
    cache = {}

    def V(x):
        if x not in cache:
            cache[x] = _fraction_sign_variations(chain, x)
        return cache[x]

    def is_root(x):
        return chain.polys[0].eval_exact(x) == 0

    pts = [lo, hi]
    if V(lo) - V(hi) <= 0:
        return pts
    work, cells = [(lo, hi)], []
    while work:
        l, h = work.pop()
        c = V(l) - V(h)
        if c == 1:
            cells.append((l, h))
        elif c > 1:
            m = (l + h) / 2
            work += [(l, m), (m, h)]
    for l, h in sorted(cells):
        if not is_root(l):
            pts.append(l)
            continue
        while True:
            m = (l + h) / 2
            if is_root(m):
                pts.append((l + m) / 2)
                break
            if V(l) - V(m) == 1:
                h = m
            else:
                pts.append(m)
                break
    return pts


def _fraction_count_real_roots(p, a, b) -> int:
    if p.degree == 0:
        return 0
    chain = sturm_sequence(p)
    n = _fraction_sign_variations(chain, a) - _fraction_sign_variations(chain, b)
    if not (isinstance(b, float) and math.isinf(b)) and chain.polys[0].eval_exact(b) == 0:
        n -= 1
    return n


def _fraction_is_nonnegative_on(p, interval):
    """Oracle: is_nonnegative_on with every sign taken by Fraction Horner."""
    a, b = interval
    A = None if isinstance(a, float) and math.isinf(a) else Fraction(a)
    B = None if isinstance(b, float) and math.isinf(b) else Fraction(b)
    if p.is_zero:
        return True, None
    if p.degree == 0:
        if p.coeffs[0] >= 0:
            return True, None
        w = A if A is not None else (B - 1 if B is not None else Fraction(0))
        return False, poly._witness_float(w)
    lead, R = p.leading_coeff, p.cauchy_bound()
    if B is None and lead < 0:
        return False, poly._witness_float(R + 1 if A is None else max(A, R) + 1)
    if A is None and (lead if p.degree % 2 == 0 else -lead) < 0:
        return False, poly._witness_float(-(R + 1) if B is None else min(B, -R) - 1)
    lo = A if A is not None else -(R + 1)
    hi = B if B is not None else R + 1
    if lo >= hi:
        return True, None
    for t in _fraction_gap_points(sturm_sequence(p), lo, hi):
        if p.eval_exact(t) < 0:
            return False, poly._witness_float(t)
    return True, None


def _fraction_rhp_root_count(p) -> int:
    if p.degree % 2:
        p = p * Polynomial([1, 1])
    even, odd = p.even_odd_parts()
    chain = remainder_chain(even.reflect(), odd.reflect())
    return p.degree // 2 + _fraction_sign_variations(chain, 0) - _fraction_sign_variations(
        chain, math.inf
    )


def _plant_polynomials(seed: int):
    """Float-expanded plant polynomials of 300-600-bit coefficients."""
    params = draw_plant(np.random.default_rng(seed))
    pc = plant_coefficients(params)
    r = Polynomial([pc.r0, pc.r1, pc.r2, pc.r3])
    out = [r, Polynomial([pc.w0, pc.w1, pc.w2])]
    for k22, b22 in ((50.0, 0.1), (400.0, 0.17), (3000.0, 0.5)):
        c = derive_coefficients(params, VirtualCoupler(k22, b22))
        t = Polynomial([c.t0, c.t1, c.t2, c.t3])
        out += [t, -t]
    return out + [r * t], Polynomial([pc.a0, pc.a1, pc.a2, pc.a3, pc.a4])


def _midpoint_root_polynomials(rng, lo: Fraction, hi: Fraction):
    """Polynomials whose roots sit at lo, hi and dyadic bisection midpoints."""
    grid = [lo + (hi - lo) * Fraction(k, 8) for k in range(9)]
    for _ in range(20):
        roots = [grid[int(i)] for i in rng.integers(0, 9, size=int(rng.integers(1, 4)))]
        if rng.random() < 0.4:
            roots.append(lo)
        p = Polynomial([int(rng.choice([-3, -1, 1, 2]))])
        for root in roots:
            factor = Polynomial([-root, 1])
            p = p * (factor * factor if rng.random() < 0.5 else factor)
        if rng.random() < 0.3:
            p = p * Polynomial([1, 0, 1])
        yield p


def _oracle_cases():
    rng = np.random.default_rng(8080)
    big = 3**200 + 7
    points = [
        0, 1, -2, 0.5, -1e-300, 5e-324, 1.5e300, Fraction(1, 3),
        Fraction(int(rng.integers(-10**6, 10**6)), big), Fraction(big, 2**400 + 1),
    ]
    intervals = [
        (0, math.inf), (-math.inf, math.inf), (-math.inf, 0.25), (-0.75, 3.0),
        (Fraction(1, big), Fraction(7, 3)),
    ]
    cases = []
    for seed in range(3):
        plant_polys, quartic = _plant_polynomials(seed)
        cases += [(p, intervals) for p in plant_polys]
        cases.append((quartic, intervals))
    for _ in range(120):
        deg = int(rng.integers(0, 7))
        p = Polynomial([float(c) for c in rng.uniform(-10, 10, size=deg + 1)])
        if not p.is_zero:
            cases.append((p, intervals))
    for lo, hi in ((0, 8), (Fraction(1, 3), Fraction(25, 3)), (Fraction(-5, 7), 1)):
        lo, hi = Fraction(lo), Fraction(hi)
        cases += [
            (p, [(lo, hi), (lo, math.inf)]) for p in _midpoint_root_polynomials(rng, lo, hi)
        ]
    return cases, points


def test_integer_sign_route_matches_the_fraction_route_bit_for_bit():
    cases, points = _oracle_cases()
    seen = {
        "degree <= 1 chain": 0, "lead < 0": 0, "root at lo": 0, "root at a midpoint": 0,
        "root at a finite right end": 0, "fails": 0,
    }
    for p, intervals in cases:
        chain = sturm_sequence(p)
        seen["degree <= 1 chain"] += len(chain.polys) <= 2
        seen["lead < 0"] += p.leading_coeff < 0
        seen["root at a finite right end"] += any(
            math.isfinite(b) and p.eval_exact(Fraction(b)) == 0 for _, b in intervals
        )
        for at in points + [math.inf, -math.inf]:
            assert sign_variations(chain, at) == _fraction_sign_variations(chain, at), (p, at)
        for a, b in [(-math.inf, math.inf), (0, math.inf), (points[8], points[9]), (-2, 0.5)]:
            assert count_real_roots(p, a, b) == _fraction_count_real_roots(p, a, b), (p, a, b)
        for interval in intervals:
            got = is_nonnegative_on(p, interval)
            want = _fraction_is_nonnegative_on(p, interval)
            assert (got[0], repr(got[1])) == (want[0], repr(want[1])), (p, interval)
            seen["fails"] += not got[0]
            if p.degree >= 1 and all(math.isfinite(end) for end in interval):
                lo, hi = map(Fraction, interval)
                assert count_real_roots(p, lo, hi) == _fraction_count_real_roots(p, lo, hi)
                assert poly._gap_points(chain, lo, hi) == _fraction_gap_points(chain, lo, hi)
                seen["root at lo"] += p.eval_exact(lo) == 0
                seen["root at a midpoint"] += p.eval_exact((lo + hi) / 2) == 0
        if p.degree >= 1 and p.coeffs[0] != 0:
            assert stability._rhp_root_count(p) == _fraction_rhp_root_count(p), p
    assert min(seen.values()) >= 10, seen


def test_degenerate_chains_match_the_fraction_route():
    chains = [
        sturm_sequence(Polynomial([3])),
        sturm_sequence(Polynomial([-2.5])),
        sturm_sequence(Polynomial([Fraction(1, 3), -7])),
        remainder_chain(Polynomial([3]), Polynomial([-2])),
        remainder_chain(Polynomial([-1, 0, 2]), Polynomial([])),
        remainder_chain(Polynomial([Fraction(5, 9)]), Polynomial([0, Fraction(-1, 6)])),
    ]
    for chain in chains:
        for at in (0, Fraction(1, 21), -4.25, 1e300, math.inf, -math.inf):
            assert sign_variations(chain, at) == _fraction_sign_variations(chain, at)


def test_sign_queries_run_no_fraction_horner(monkeypatch):
    params = nominal_params()
    nominal = derive_coefficients(params, nominal_coupler())
    failing = derive_coefficients(params, VirtualCoupler(800.0, 0.15))
    c_i = Polynomial([nominal.r0, nominal.r1, nominal.r2, nominal.r3])
    c_ii = Polynomial([nominal.t0, nominal.t1, nominal.t2, nominal.t3])
    c_ii_failing = Polynomial([failing.t0, failing.t1, failing.t2, failing.t3])
    chain = sturm_sequence(c_ii_failing)

    def queries():
        return [
            is_nonnegative_on(c_i, (0, math.inf)),
            is_nonnegative_on(c_ii, (0, math.inf)),
            is_nonnegative_on(c_ii_failing, (0.5, math.inf)),
            count_real_roots(c_ii_failing, 0, 1e6),
            sign_variations(chain, Fraction(3, 7)),
            sign_variations(chain, 1234.5),
        ]

    expected = queries()
    assert expected[:2] == [(True, None), (True, None)]
    assert expected[2][0] is False and expected[3] > 0

    def refuse(self, x):
        raise AssertionError(f"Fraction Horner evaluation at {x!r}")

    monkeypatch.setattr(Polynomial, "eval_exact", refuse)
    with pytest.raises(AssertionError):
        c_i.eval_exact(1)
    assert queries() == expected


# ---------------------------------------------------------------------------
# gcd on primitive integer remainder sequences against the Fraction Euclid
# ---------------------------------------------------------------------------


def _random_polynomial(rng, degree: int) -> Polynomial:
    """Non-dyadic rational coefficients; the leading one is often negative."""
    lower = [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13))) for _ in range(degree)]
    lead = Fraction(int(rng.choice([-7, -3, -1, 1, 2, 5])), int(rng.integers(1, 10)))
    return Polynomial(lower + [lead])


def _power(p: Polynomial, k: int) -> Polynomial:
    out = Polynomial([1])
    for _ in range(k):
        out = out * p
    return out


def test_gcd_matches_the_fraction_euclid_on_planted_factors():
    rng = np.random.default_rng(1967)
    seen = {"nontrivial": 0, "repeated factor": 0, "negative lead": 0, "non-dyadic": 0}
    for _ in range(300):
        f = _random_polynomial(rng, int(rng.integers(1, 4)))
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = _power(f, m) * _random_polynomial(rng, int(rng.integers(0, 4)))
        b = _power(f, n) * _random_polynomial(rng, int(rng.integers(0, 4)))
        got = a.gcd(b)
        assert got == _fraction_gcd(a, b) == b.gcd(a), (a, b)
        assert got.leading_coeff == 1 and got.degree >= min(m, n) * f.degree
        a.exact_div(got), b.exact_div(got)
        seen["nontrivial"] += got.degree > 0
        seen["repeated factor"] += min(m, n) >= 2
        seen["negative lead"] += a.leading_coeff < 0 or b.leading_coeff < 0
        seen["non-dyadic"] += any(c.denominator & (c.denominator - 1) for c in a.coeffs)
    assert min(seen.values()) >= 50, seen


def test_gcd_matches_the_fraction_euclid_on_random_pairs():
    # mostly coprime: integer, rational and float coefficients
    rng = np.random.default_rng(1971)
    for _ in range(200):
        a = _random_polynomial(rng, int(rng.integers(0, 7)))
        b = Polynomial([float(c) for c in rng.uniform(-10, 10, size=int(rng.integers(1, 8)))])
        c = Polynomial([int(c) for c in rng.integers(-9, 10, size=int(rng.integers(1, 8)))])
        for x, y in ((a, b), (b, c), (c, a), (a, a), (a, -a), (c, c.derivative())):
            assert x.gcd(y) == _fraction_gcd(x, y), (x, y)


def test_gcd_with_zero_and_constant_operands():
    zero, one = Polynomial([]), Polynomial([1])
    p = Polynomial([Fraction(-3, 7), 2, Fraction(-5, 3)])
    assert zero.gcd(zero) == zero == _fraction_gcd(zero, zero)
    assert p.gcd(zero) == zero.gcd(p) == p.monic() == _fraction_gcd(p, zero) == _fraction_gcd(zero, p)
    for c in (Polynomial([Fraction(-2, 9)]), Polynomial([4]), Polynomial([-1.5])):
        assert c.gcd(zero) == zero.gcd(c) == one == _fraction_gcd(c, zero)
        assert c.gcd(p) == p.gcd(c) == one == _fraction_gcd(c, p) == _fraction_gcd(p, c)
        assert c.gcd(c) == one


def test_gcd_of_plant_polynomials_matches_the_fraction_euclid():
    # float-expanded coefficients of 300-600 bits, with planted common factors:
    # t and -t, and r * t with each of r and t
    for seed in range(3):
        plant_polys, quartic = _plant_polynomials(seed)
        polys = plant_polys + [quartic]
        assert max(abs(c.numerator).bit_length() for q in polys for c in q.coeffs) >= 300
        for i, a in enumerate(polys):
            for b in polys[i + 1:]:
                assert a.gcd(b) == _fraction_gcd(a, b), (seed, a, b)
        r, t, rt = plant_polys[0], plant_polys[-3], plant_polys[-1]
        assert rt.gcd(t) == t.monic() and rt.gcd(r) == r.monic()
        assert t.gcd(-t) == t.monic()


def _fraction_squarefree_decomposition(p: Polynomial):
    """Oracle: Yun's algorithm on the Fraction Euclid gcd."""
    if p.degree <= 0:
        return []
    p = p.monic()
    g = _fraction_gcd(p, p.derivative())
    a, b = p.exact_div(g), p.derivative().exact_div(g)
    out, i = [], 1
    while a.degree > 0:
        c = b - a.derivative()
        f = _fraction_gcd(a, c)
        if f.degree > 0:
            out.append((f, i))
        a, b = a.exact_div(f), c.exact_div(f)
        i += 1
    return out


def test_squarefree_decomposition_matches_the_yun_oracle():
    rng = np.random.default_rng(1976)
    repeated = 0
    for _ in range(150):
        p = _random_polynomial(rng, 0)
        for _ in range(int(rng.integers(0, 4))):
            p = p * _power(_random_polynomial(rng, int(rng.integers(1, 3))), int(rng.integers(1, 4)))
        got = p.squarefree_decomposition()
        assert got == _fraction_squarefree_decomposition(p), p
        product = Polynomial([1])
        for factor, mult in got:
            product = product * _power(factor, mult)
        assert p.degree <= 0 or product == p.monic()
        repeated += any(mult > 1 for _, mult in got)
    assert repeated >= 50
