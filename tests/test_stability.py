"""Rational-function stability and positive-realness checks."""
from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcoupler.model import derive_coefficients, nominal_coupler, nominal_params
from vcoupler.poly import Polynomial
from vcoupler.stability import (
    RationalFunction,
    analyze_denominator,
    imaginary_axis_pole,
    positive_real,
    quartic_hurwitz,
    real_part_even_polynomial,
    residues_positive_real,
)


# ---------------------------------------------------------------------------
# quartic stability test against a numeric root oracle
# ---------------------------------------------------------------------------


def test_quartic_verdict_matches_root_locations_on_random_draws():
    rng = np.random.default_rng(4242)
    compared = 0
    for _ in range(1000):
        desc = 10.0 ** rng.uniform(-2, 2, size=5)  # positive coefficients
        q = quartic_hurwitz(list(desc))
        roots = np.roots(desc)
        scale = float(np.max(np.abs(roots)))
        margin_scale = abs(desc[1] * desc[2] * desc[3]) + desc[1] ** 2 * desc[0] + desc[4] * desc[3] ** 2
        if abs(float(q.margin)) < 1e-9 * margin_scale:
            continue  # numerically on the boundary: the oracle cannot arbitrate
        if float(np.max(roots.real)) > -1e-9 * scale and float(np.max(roots.real)) < 1e-9 * scale:
            continue
        compared += 1
        assert q.no_open_rhp == bool(np.all(roots.real < 0.0)), desc
    assert compared > 900


def test_quartic_margin_value_for_bundled_parameters():
    c = derive_coefficients(nominal_params(), nominal_coupler())
    q = quartic_hurwitz([c.a4, c.a3, c.a2, c.a1, c.a0])
    assert q.no_open_rhp
    assert float(q.margin) == pytest.approx(5912620206.042, rel=1e-9)


# ---------------------------------------------------------------------------
# imaginary-axis pole detection
# ---------------------------------------------------------------------------


def test_axis_pole_found_on_constructed_quartics():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        w0 = 10.0 ** rng.uniform(-2, 3)
        a, b = 10.0 ** rng.uniform(-1, 1, size=2)
        # (s^2 + w0^2)(s^2 + a s + b), ascending then reversed to descending
        asc = npoly.polymul([w0 * w0, 0.0, 1.0], [b, a, 1.0])
        found = imaginary_axis_pole(list(asc[::-1]))
        assert found is not None
        assert found == pytest.approx(w0, rel=1e-6)
        roots = np.roots(asc[::-1])
        nearest = roots[np.argmin(np.abs(roots - 1j * found))]
        assert abs(nearest - 1j * found) <= 1e-6 * max(1.0, abs(found))


def test_no_axis_pole_on_strictly_stable_quartic():
    assert imaginary_axis_pole([1.0, 3.0, 3.0, 2.0, 1.0]) is None


# ---------------------------------------------------------------------------
# residue checks at constructed boundary poles
# ---------------------------------------------------------------------------


def test_residues_on_constructed_axis_poles():
    # Impedances of the form s*N3/D4 with D4 = (s^2+p^2)(s+a)(s+b).  Writing
    # N3 = q(s)(s^2+p^2) + (u s + v), the residue at jp is
    # (u jp + v) / (2 Q(jp)); choosing u = 2 rho (a+b), v = 2 rho (ab - p^2)
    # makes it exactly the real number rho.
    rng = np.random.default_rng(2718)
    decisive = 0
    for i in range(500):
        p = 10.0 ** rng.uniform(-1, 2)
        a, b = 10.0 ** rng.uniform(-1, 1, size=2)
        Q = npoly.polymul([a, 1.0], [b, 1.0])
        D = npoly.polymul([p * p, 0.0, 1.0], Q)
        q_lin = rng.uniform(-2.0, 2.0, size=2)
        case = i % 3
        if case == 2:
            u, v = rng.uniform(0.5, 3.0, size=2)  # generic: complex residue
        else:
            rho = float(rng.uniform(0.1, 10.0)) * (1.0 if case == 0 else -1.0)
            u = 2.0 * rho * (a + b)
            v = 2.0 * rho * (a * b - p * p)
        N3 = npoly.polyadd(npoly.polymul(q_lin, [p * p, 0.0, 1.0]), [v, u])
        N3 = list(np.pad(N3, (0, 4 - len(N3))))
        # numeric residue oracle on the full numerator s*N3
        Nfull = npoly.polymul([0.0, 1.0], N3)
        res = npoly.polyval(1j * p, Nfull) / npoly.polyval(1j * p, npoly.polyder(D))
        if case == 2:
            if abs(res.imag) < 1e-3 * abs(res):
                continue  # accidentally near-real: not a decisive rejection case
            expect = False
        else:
            assert res == pytest.approx(rho, rel=1e-9)
            expect = rho > 0
        decisive += 1
        assert residues_positive_real(list(N3[::-1]), list(D[::-1])) is expect
    assert decisive >= 450


# ---------------------------------------------------------------------------
# positive-real verdicts on canonical one-ports
# ---------------------------------------------------------------------------


CANONICAL = [
    ("resistor-lag", RationalFunction([1], [1, 1]), True),
    ("lossless resonator", RationalFunction([0, 1], [1, 0, 1]), True),
    ("integrator", RationalFunction([1], [0, 1]), True),
    ("differentiator", RationalFunction([0, 1], [1]), True),
    ("series spring-inertia", RationalFunction([1, 0, 1], [0, 1]), True),
    ("sign-flipped lag", RationalFunction([-1], [1, 1]), False),
    ("non-minimum phase", RationalFunction([-1, 1], [1, 1]), False),
    ("unstable pole", RationalFunction([1, 1], [-1, 1]), False),
    ("double boundary pole", RationalFunction([1], [1, 0, 2, 0, 1]), False),
]


@pytest.mark.parametrize("label,rf,expected", CANONICAL, ids=[c[0] for c in CANONICAL])
def test_positive_real_canonical_cases(label, rf, expected):
    v = positive_real(rf)
    assert v.passive is expected


def test_positive_real_failure_details():
    v = positive_real(RationalFunction([-1, 1], [1, 1]))
    assert not v.passive and v.stable and v.residues_ok and not v.real_part_nonneg
    assert v.witness_frequency == pytest.approx(0.0, abs=1e-6)
    assert v.margin < -0.9  # Re at dc is -1 on a unit scale

    v2 = positive_real(RationalFunction([1, 1], [-1, 1]))
    assert not v2.passive and not v2.stable

    v3 = positive_real(RationalFunction([1], [1, 0, 2, 0, 1]))
    assert not v3.passive and v3.stable and not v3.residues_ok

    v4 = positive_real(RationalFunction([1], [-25, -5, 12, 12, 5, 1]))  # root at s = 1
    assert not v4.passive and not v4.stable


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(-5.0, 5.0),
    st.floats(-3, 3),
)
def test_positive_real_is_scale_invariant(a, b, gain, log_c):
    # Z = gain/(s+a) + 1/(s+b): passive iff gain is not too negative
    num = npoly.polyadd(npoly.polymul([gain], [b, 1.0]), [a, 1.0])
    den = npoly.polymul([a, 1.0], [b, 1.0])
    rf = RationalFunction(list(num), list(den))
    c = 10.0 ** log_c
    scaled = RationalFunction([c * x for x in num], list(den))
    assert positive_real(rf).passive == positive_real(scaled).passive


# ---------------------------------------------------------------------------
# denominator analysis and the even real-part polynomial
# ---------------------------------------------------------------------------


def test_denominator_analysis_classifies_roots():
    d = analyze_denominator(Polynomial([0, 1, 1]))  # s(s+1)
    assert d.open_rhp_free and d.zero_root_multiplicity == 1 and not d.imaginary_pairs

    d = analyze_denominator(Polynomial([4, 4, 1, 1]))  # (s^2+4)(s+1)
    assert d.open_rhp_free and d.zero_root_multiplicity == 0
    assert [(p.omega, p.multiplicity) for p in d.imaginary_pairs] == [(2.0, 1)]

    d = analyze_denominator(Polynomial([-2, -1, 1]))  # (s-2)(s+1)
    assert not d.open_rhp_free

    d = analyze_denominator(Polynomial([1, 2, 3, 2, 1, 1]))  # quintic, has rhp roots
    assert not d.open_rhp_free

    # (s - 1)(s^2 + 4s + 5)(s^2 + 2s + 5): s = 1 is a root.  A Routh table that sizes
    # each row from the previous one after popping its trailing zeros drops
    # entries and sees no sign change here.
    d = analyze_denominator(Polynomial([-25, -5, 12, 12, 5, 1]))
    assert not d.open_rhp_free and not d.imaginary_pairs


# Descending coefficients whose Routh table has a zero pivot; each has two
# right-half-plane roots.
ZERO_PIVOT_TABLES = [[1, 2, 2, 4, 11, 10], [1, 1, 2, 2, 3, 5], [1, 2, 3, 6, 5, 3]]


@pytest.mark.parametrize("desc", ZERO_PIVOT_TABLES, ids=str)
def test_zero_pivot_tables_are_decided_without_numeric_roots(desc, monkeypatch):
    assert int(np.sum(np.roots(desc).real > 0)) == 2

    def no_roots(*args, **kwargs):
        raise AssertionError("numpy.roots called")

    monkeypatch.setattr(np, "roots", no_roots)
    d = analyze_denominator(Polynomial(desc[::-1]))
    assert not d.open_rhp_free and not d.imaginary_pairs


def _from_roots(real_roots, axis_freqs, complex_pairs):
    """Integer polynomial with the given real roots, +/-j*w pairs and a +/- j*b pairs."""
    p = Polynomial([1])
    for r in real_roots:
        p = p * Polynomial([-r, 1])
    for w in axis_freqs:
        p = p * Polynomial([w * w, 0, 1])
    for a, b in complex_pairs:
        p = p * Polynomial([a * a + b * b, -2 * a, 1])
    return p


def test_denominator_analysis_matches_integer_root_oracle():
    rng = np.random.default_rng(90210)
    parities = set()
    for _ in range(400):
        real_roots = [int(r) for r in rng.integers(-5, 6, size=int(rng.integers(0, 6)))]
        if rng.random() < 0.3:  # a pair at +/-r
            r = int(rng.integers(1, 5))
            real_roots += [r, -r]
        axis = [int(w) for w in rng.integers(1, 4, size=int(rng.integers(0, 3)))]
        pairs = [
            (int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(0, 2)))
        ]
        p = _from_roots(real_roots, axis, pairs)
        if p.degree < 1:
            continue
        parities.add(p.degree % 2)
        if rng.random() < 0.5:
            p = p.scale(-3)

        d = analyze_denominator(p)
        rhp = any(r > 0 for r in real_roots) or any(a > 0 for a, _ in pairs)
        assert d.open_rhp_free is (not rhp), (real_roots, axis, pairs)
        assert d.zero_root_multiplicity == real_roots.count(0)
        expected = sorted((w, axis.count(w)) for w in set(axis))
        got = [(p.omega, p.multiplicity) for p in d.imaginary_pairs]
        assert [m for _, m in got] == [m for _, m in expected]
        assert [w for w, _ in got] == pytest.approx([w for w, _ in expected], rel=1e-6)
    assert parities == {0, 1}


def test_real_part_polynomial_matches_sampled_real_part():
    rng = np.random.default_rng(1234)
    omegas = np.logspace(-2, 2, 41)
    for _ in range(100):
        num = list(rng.uniform(-3, 3, size=int(rng.integers(1, 5))))
        den = list(rng.uniform(0.2, 3, size=int(rng.integers(2, 6))))
        rp = real_part_even_polynomial(Polynomial(num), Polynomial(den))
        nv = npoly.polyval(1j * omegas, np.asarray(num, dtype=complex))
        dv = npoly.polyval(1j * omegas, np.asarray(den, dtype=complex))
        expected = (nv * np.conj(dv)).real
        got = np.array([float(sum(float(c) * (w * w) ** k for k, c in enumerate(rp.coeffs)))
                        for w in omegas])
        scale = np.maximum(1e-30, np.abs(nv) * np.abs(dv))
        assert np.all(np.abs(got - expected) <= 1e-8 * np.maximum(scale, np.abs(expected)) + 1e-12)


# ---------------------------------------------------------------------------
# rational-function plumbing
# ---------------------------------------------------------------------------


def test_reduction_cancels_common_factors():
    base_num, base_den = [1.0, 2.0], [3.0, 1.0, 4.0]
    lifted = RationalFunction(
        list(npoly.polymul([5.0, 1.0], base_num)),
        list(npoly.polymul([5.0, 1.0], base_den)),
    ).reduced()
    w = 3.7j
    direct = npoly.polyval(w, base_num) / npoly.polyval(w, base_den)
    got = npoly.polyval(w, [float(c) for c in lifted.num.coeffs]) / npoly.polyval(
        w, [float(c) for c in lifted.den.coeffs]
    )
    assert got == pytest.approx(direct, rel=1e-12)
    assert lifted.num.degree == 1 and lifted.den.degree == 2


def test_eval_grid_matches_pointwise_eval():
    rf = RationalFunction([1.0, 0.5], [2.0, 1.0, 1.0])
    omegas = np.logspace(-1, 1, 7)
    grid = rf.eval_grid(omegas)
    for w, g in zip(omegas, grid):
        assert g == pytest.approx(rf.eval(1j * w), rel=1e-12)
