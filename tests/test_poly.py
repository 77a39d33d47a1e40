"""Exact polynomial machinery: Sturm chains, root counting, cubic nonnegativity."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcoupler import poly
from vcoupler.errors import InvalidInterval, ZeroPolynomial
from vcoupler.poly import (
    Polynomial,
    count_real_roots,
    cubic_nonneg_closed_form,
    eval as poly_eval,
    is_nonnegative_on,
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
    out = poly_eval(p, Fraction(1, 2))
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
            assert float(poly_eval(p, witness)) < 1e-6 * scale * max(1.0, witness) ** 3
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
