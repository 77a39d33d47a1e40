"""Two-port passivity and coupled-stability verdicts, bounds, and oracles."""
from __future__ import annotations

import collections
import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import KERNEL_EDGES, PLANT_FIELDS, draw_coupler, draw_plant, zero_gain_axis_family
from oracle import axis_residue_fault, h11_numerator_cubic, plant_coefficients, unreduced_entries
from vcoupler import model, passivity, poly, stability
from vcoupler.model import SystemParams, VirtualCoupler, derive_coefficients, nominal_params
from vcoupler.optimize import maximize_k22, maximize_k22_over_alpha
from vcoupler.passivity import (
    ConditionReport,
    check_absolute_stability,
    check_condition_a,
    check_condition_b,
    check_condition_c_i,
    check_condition_c_ii,
    check_sufficient_conditions,
    check_two_port_passivity,
    default_grid,
    k22_upper_bound,
    llewellyn_grid_margins,
    two_port_grid_margins,
)
from vcoupler.poly import Polynomial, cubic_nonneg_closed_form, is_nonnegative_on
from vcoupler.stability import analyze_denominator, real_part_even_polynomial

NOM = nominal_params()


def vc(k22: float, b22: float) -> VirtualCoupler:
    return VirtualCoupler(k22, b22)


# ---------------------------------------------------------------------------
# the passivity frontier in (k22, b22): frozen reference values
# ---------------------------------------------------------------------------

# Independently computed upper bounds on the coupler stiffness at fixed
# damping for the bundled parameter set (bisection tolerance 1e-3).
FROZEN_BOUNDS = {
    0.13: 356.825,
    0.14: 370.295,
    0.15: 383.291,
    0.16: 395.861,
    0.17: 408.0448,
    0.1704: 407.844,
    0.18: 390.583,
    0.19: 358.385,
    0.20: 234.134,
}


@pytest.mark.parametrize("b22,expected", sorted(FROZEN_BOUNDS.items()))
def test_stiffness_bound_frozen_values(b22, expected):
    assert k22_upper_bound(NOM, b22) == pytest.approx(expected, abs=2e-3)


def test_bound_is_zero_outside_the_damping_window():
    assert k22_upper_bound(NOM, 0.0) == 0.0
    assert k22_upper_bound(NOM, 0.21) == 0.0
    assert k22_upper_bound(NOM, 5.0) == 0.0


@pytest.mark.parametrize(
    "b22",
    [1e300, 10**400, 10**5000, -(10**400), math.inf, math.nan],
    ids=["1e300", "10**400", "10**5000", "-10**400", "inf", "nan"],
)
def test_bound_is_zero_for_a_b22_beyond_the_float_range(b22):
    # an int beyond the float range takes model._isfinite, not math.isfinite,
    # which raises OverflowError on it
    assert k22_upper_bound(NOM, b22) == 0.0
    assert passivity._LlewellynBound(NOM).bound(b22) == 0.0


def test_bound_window_boundary_is_four_times_the_elastic_damping():
    # verdict exists exactly for 0 < b22 <= 4*Bf = 0.20 with the bundled plant
    for b22 in (1e-3, 0.02, 0.05, 0.10, 0.15, 0.20):
        assert k22_upper_bound(NOM, b22) > 0.0, b22


def test_bound_decreases_when_force_filter_lag_grows():
    bounds = [
        k22_upper_bound(dataclasses.replace(NOM, If=If), 0.17)
        for If in (60.0, 70.0, 80.0)
    ]
    assert bounds[0] > bounds[1] > bounds[2]


def test_zero_motor_integral_gain_leaves_no_passive_stiffness():
    assert k22_upper_bound(dataclasses.replace(NOM, Im=0.0), 0.15) == 0.0


def _fraction_bisection_bound(params, b22, tol=1e-3):
    """Reference: the k22 bisection on Fraction coefficients, coupler by coupler."""
    if b22 <= 0 or not math.isfinite(b22):
        return 0.0
    cA = derive_coefficients(params, VirtualCoupler(0.0, b22))
    cB = derive_coefficients(params, VirtualCoupler(1.0, b22))
    base = (cA.t0, cA.t1, cA.t2, cA.t3)
    step = (cB.t0 - cA.t0, cB.t1 - cA.t1, cB.t2 - cA.t2, cB.t3 - cA.t3)

    def feasible(k22):
        K = Fraction(k22) * Fraction(k22)
        t0, t1, t2, t3 = (b + s * K for b, s in zip(base, step))
        if t3 == 0:  # b22 = 4*Bf: decided apart from the closed form's quadratic rule
            return is_nonnegative_on(Polynomial([t0, t1, t2]), (0, math.inf))[0]
        return cubic_nonneg_closed_form(t3, t2, t1, t0)

    if not feasible(0.0):
        return 0.0
    ia = float(Fraction(params.Im) + Fraction(params.alpha) * Fraction(params.Kf))
    if ia > 0:
        hi = math.sqrt(max(float(4 * cA.r0), 0.0) * b22) / ia
        if hi == 0.0:
            return 0.0
        if feasible(hi):
            return hi
    else:
        hi = 1.0
        while feasible(hi):
            hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize(
    "params",
    [NOM, dataclasses.replace(NOM, alpha=0.3), dataclasses.replace(NOM, Im=0.0, alpha=0.0)],
    ids=["nominal", "alpha0.3", "no-static-bracket"],
)
@pytest.mark.parametrize("b22", [0.013, 0.1, 0.17, 0.1999, 0.2, 0.2000001])
def test_bound_is_bit_identical_to_fraction_bisection(params, b22):
    assert k22_upper_bound(params, b22) == _fraction_bisection_bound(params, b22)


# seeded plants whose frontier at b22 = 4*Bf is set by the discriminant of
# the quadratic, not by its end coefficients
@pytest.mark.parametrize("seed", [21, 52])
def test_bound_is_bit_identical_to_fraction_bisection_at_the_window_edge(seed):
    # b22 = 4*Bf makes t3 vanish exactly, so every probe decides a quadratic
    params = draw_plant(np.random.default_rng(seed))
    b22 = 4.0 * params.Bf
    assert derive_coefficients(params, vc(0.0, b22)).t3 == 0
    bound = k22_upper_bound(params, b22)
    assert bound > 0.0
    assert bound == _fraction_bisection_bound(params, b22)


def _sweep_b22(params):
    """14 damping values from 1e-300 to 1e300, three of them at the 4*Bf edge."""
    f = 4.0 * params.Bf
    return (
        1e-300, 1e-30, 1e-6, 1e-3, 0.05 * f, 0.25 * f, 0.5 * f, 0.75 * f, 0.9 * f,
        0.99 * f, f * (1 - 1e-15), f, f * (1 + 1e-15), 1e300,
    )


def _sweep_plants(count):
    rng = np.random.default_rng(2024)
    plants = [draw_plant(rng, spread=0.6) for _ in range(count)]
    plants[0] = dataclasses.replace(plants[0], Im=0.0, alpha=0.0)  # no static bracket
    plants[1] = dataclasses.replace(plants[1], alpha=0.0)
    return [NOM] + plants


# at tol = 1e-9 the bisection probes strictly inside the 1e-9 relative
# bracket many times, so its exact probes there are checked too; after the
# sorted sweep, shuffled orders with repeats hand each call another Newton
# start, which may change what a call costs but never what it returns
@pytest.mark.parametrize("tol", [1e-3, 1e-9])
def test_certified_bound_equals_fraction_bisection_on_seeded_plants(tol):
    rng = np.random.default_rng(11)
    for params in _sweep_plants(30):
        sweep = _sweep_b22(params)
        expected = {b22: _fraction_bisection_bound(params, b22, tol) for b22 in sweep}
        order = list(sweep)
        for _ in range(3):
            order += rng.permutation(sweep + sweep).tolist()
        bounds = passivity._DeterminantBound(params)
        for b22 in order:
            assert bounds.bound(b22, tol) == expected[b22], (params, b22)


@pytest.mark.parametrize(
    "distort",
    [lambda K: K * 1.1, lambda K: K * 0.9, lambda K: math.nan, lambda K: -1.0,
     lambda K: math.inf],
    ids=["high", "low", "nan", "negative", "inf"],
)
def test_a_wrong_frontier_estimate_falls_back_to_exact_probes(monkeypatch, distort):
    # the simulated bisection stands only when the last k22 it took to pass
    # does pass and the last it took to fail does fail; otherwise the static
    # probe and an all-exact bisection decide
    estimate = passivity._frontier_k2
    distorted = []

    def wrong(base, step, start):
        K, x = estimate(base, step, start)
        distorted.append(K)
        return distort(K), x

    monkeypatch.setattr(passivity, "_frontier_k2", wrong)
    for params in _sweep_plants(4):
        bounds = passivity._DeterminantBound(params)
        for b22 in _sweep_b22(params)[2:12]:
            distorted.clear()
            assert bounds.bound(b22) == _fraction_bisection_bound(params, b22), (params, b22)
            assert len(distorted) == 1, (params, b22)


@pytest.fixture
def probes(monkeypatch):
    """probes(bounds, b22) -> (bound, exact probes, full-precision closed-form calls).

    An exact probe is a k22 decided exactly, by any route (passivity._probe);
    a full-precision call is a cubic_nonneg_closed_form call with a
    coefficient above the 128 bits that an exact probe first rounds to.
    """
    exact, full = [], []
    probe = passivity._probe

    def counted_probe(*args):
        exact.append(args[-1])
        return probe(*args)

    def counted_closed_form(*coeffs):
        # the plant analysis decides Fraction cubics through the same name
        if any(type(c) is int and c.bit_length() > passivity._ROUND_BITS for c in coeffs):
            full.append(coeffs)
        return cubic_nonneg_closed_form(*coeffs)

    monkeypatch.setattr(passivity, "_probe", counted_probe)
    monkeypatch.setattr(passivity, "cubic_nonneg_closed_form", counted_closed_form)

    def run(bounds, b22):
        exact.clear()
        full.clear()
        return bounds.bound(b22), len(exact), len(full)

    return run


def test_certificate_leaves_at_most_two_exact_probes_per_b22(probes):
    bounds = passivity._DeterminantBound(NOM)
    # the static bound is the frontier: one passing static probe
    static = (0.13, 0.15, 0.17)
    assert {b22: probes(bounds, b22)[1] for b22 in static} == dict.fromkeys(static, 1)
    # elsewhere: the failing static probe and the last k22 taken to pass, or,
    # when the estimate places the static probe above its bracket, the last
    # k22 taken to pass and the last taken to fail (the all-exact bisection
    # took 19-24 probes here)
    for b22 in (0.01, 0.05, 0.1, 0.19, 0.1999, 4.0 * NOM.Bf):
        assert probes(bounds, b22)[1] <= 2, b22


def test_every_b22_of_the_seeded_sweep_takes_at_most_two_exact_probes(probes):
    # from 1e-30 up each b22 gets an estimate: its integer cubics, up to 571
    # bits on the plant without a static bracket, are scaled by a power of
    # two before the stationarity polynomial is formed in floats; a frontier
    # set at x = 0 whose static probe rounds just above it needs the x = 0
    # candidate
    for params in _sweep_plants(30):
        bounds = passivity._DeterminantBound(params)
        for b22 in _sweep_b22(params)[1:]:
            assert probes(bounds, b22)[1] <= 2, (params, b22)


# at b22 = 4*Bf the stationarity polynomial loses its two leading terms and
# n/w tends to n2/w2 as x -> inf; both are estimate candidates there
@pytest.mark.parametrize("edge", [1.0 - 1e-15, 1.0, 1.0 + 1e-15], ids=["below", "at", "above"])
def test_window_edge_certifies_with_at_most_two_exact_probes(probes, edge):
    b22 = 4.0 * NOM.Bf * edge
    bound, count, _ = probes(passivity._DeterminantBound(NOM), b22)
    assert bound == _fraction_bisection_bound(NOM, b22)
    assert count <= 2


def test_exact_probes_rarely_need_the_full_precision_closed_form(probes):
    # along the optimizer's sweep on the nominal plant every exact probe is
    # decided by a witness or by the cubic rounded to 128 bits; at 4*Bf the
    # estimate has no stationary point, and a failing probe is witnessed by
    # the negative x**2 coefficient of its quadratic
    bounds = passivity._DeterminantBound(NOM)
    edge = 4.0 * NOM.Bf
    for i in range(1, 50):
        assert probes(bounds, edge * i / 50)[2] == 0, i
    assert probes(bounds, edge)[2] == 0


def test_the_call_after_the_window_edge_polishes_the_previous_minimum(monkeypatch):
    # at b22 = 4*Bf the positive stationary point of n/w is a maximum; it must
    # not become the next call's Newton start, or Newton fails at once and
    # the estimate falls back to the eigenvalue route
    trace = [b22 for b22, _, _ in maximize_k22(NOM).trace]
    edge = trace.index(4.0 * NOM.Bf)
    roots = []
    stationary_roots = passivity._stationary_roots
    monkeypatch.setattr(
        passivity, "_stationary_roots", lambda q: roots.append(q) or stationary_roots(q)
    )
    bounds = passivity._DeterminantBound(NOM)
    for b22 in trace[: edge + 1]:
        bounds.bound(b22)
    start = bounds.start
    assert start is not None
    roots.clear()
    bounds.bound(trace[edge + 1])
    assert roots == []
    assert bounds.start != start


def _touching_cubic(an, e, p, q):
    """2**(2e) * (x - an/2**e)**2 * (p*x + q), highest degree first."""
    s = 1 << e
    return (s * s * p, s * s * q - 2 * s * an * p, an * an * p - 2 * s * an * q, an * an * q)


@st.composite
def _probe_cubics(draw):
    """(cubic, x): an integer cubic of up to about 700 bits and a point x >= 0."""
    big = st.integers(0, 2**600)
    an, e = draw(st.integers(1, 2**53)), draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["touching", "quadratic", "spread"]))
    if kind == "spread":  # independent lengths, often more than 128 bits apart
        bits = draw(st.lists(st.integers(0, 700), min_size=4, max_size=4))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4))
        cubic = tuple(
            sign * draw(st.integers(0, 2**n)) for sign, n in zip(signs, bits)
        )
        if draw(st.booleans()):
            cubic = (0,) + cubic[1:]
    else:  # touches zero at x = an/2**e; c3 = 0 for a quadratic
        p = 0 if kind == "quadratic" else draw(big)
        cubic = _touching_cubic(an, e, p, draw(big))
        cubic = cubic[:3] + (cubic[3] + draw(st.sampled_from([-1, 0, 1])),)
    x = draw(st.one_of(
        st.just(an / 2**e), st.just(0.0), st.floats(0.0, 1e300, allow_nan=False)
    ))
    return cubic, x


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_probe_cubics(), st.floats(1e-3, 1e6))
def test_a_negative_witness_fails_the_closed_form(case, k22):
    # base and step are split so that the probe cubic at k22 = kn/kd is
    # kd**2 * cubic: step = kd**2 * t, base = cubic - kn**2 * t
    cubic, x = case
    kn, kd = k22.as_integer_ratio()
    t = (2, 3, -5, 0)  # step has no x**3 term
    base = tuple(c - kn * kn * ti for c, ti in zip(reversed(cubic), t))
    step = tuple(kd * kd * ti for ti in t)
    xn, xd = x.as_integer_ratio()
    witnesses = (
        (base[0], step[0]),
        (poly._homogeneous(base, xn, xd), poly._homogeneous(step, xn, xd)),
    )
    if base[3] == 0:  # a quadratic falls to -inf when its x**2 coefficient is negative
        witnesses += ((base[2], step[2]),)
    exact = cubic_nonneg_closed_form(*cubic)
    for wb, ws in witnesses:
        if wb * kd * kd + ws * kn * kn < 0:
            assert not exact
    assert passivity._probe(base, step, witnesses, k22) is exact


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_probe_cubics())
# a negative longest coefficient floors to -2**128, which is 129 bits long
@example(((0, 2**599 - 1, -(2**600 - 1), 2**599 - 1), 0.0))
def test_a_rounded_pass_implies_the_exact_pass(case):
    cubic, _ = case
    rounded = passivity._round_down(cubic)
    if rounded is None:
        assert max(c.bit_length() for c in cubic) <= passivity._ROUND_BITS
    else:
        bits = max(c.bit_length() for c in rounded)
        assert passivity._ROUND_BITS <= bits <= passivity._ROUND_BITS + 1
        if cubic_nonneg_closed_form(*rounded):
            assert cubic_nonneg_closed_form(*cubic)


def _threshold(c):
    """(feasible, calls): feasible(k) is k <= c, and calls records each k."""
    calls = []

    def feasible(k):
        calls.append(k)
        return k <= c

    return feasible, calls


def test_search_returns_a_passing_hi_after_one_call():
    feasible, calls = _threshold(3.0)
    assert passivity._sup_feasible(feasible, 2.5, 1e-3) == (2.5, math.inf)
    assert calls == [2.5]


@pytest.mark.parametrize("hi", [2.5, None])
def test_search_without_a_feasible_zero_returns_at_once(hi):
    feasible, calls = _threshold(-1.0)
    assert passivity._sup_feasible(feasible, hi, 1e-3) == (0.0, 0.0)
    assert calls == [k for k in (hi, 0.0) if k is not None]


def test_search_within_tol_of_zero_leaves_zero_unprobed():
    feasible, calls = _threshold(-1.0)
    assert passivity._sup_feasible(feasible, 1e-4, 1e-3) == (0.0, 1e-4)
    assert calls == [1e-4]


def test_search_doubling_raises_past_1e15():
    feasible, calls = _threshold(math.inf)
    with pytest.raises(RuntimeError, match="failed to close"):
        passivity._sup_feasible(feasible, None, 1e-3)
    assert max(calls) == 2.0**49  # the next doubling passes 1e15 unprobed


def test_search_with_zero_tolerance_ends_on_adjacent_floats():
    feasible, _ = _threshold(1.0 / 3.0)
    lo, top = passivity._sup_feasible(feasible, 1.0, 0.0)
    assert lo == 1.0 / 3.0 and top == math.nextafter(lo, math.inf)


@pytest.mark.parametrize("c", [0.0, 0.3, 2.5, 1e6])
@pytest.mark.parametrize("hi", [None, 2.5, 10.0, 1e-4])
@pytest.mark.parametrize("width", [0.0, 1e-9, 1.0])
def test_a_band_consistent_with_feasible_leaves_the_bracket_unchanged(c, hi, width):
    # and the band decides every k22 outside it without calling feasible
    feasible, _ = _threshold(c)
    exact = passivity._sup_feasible(feasible, hi, 1e-3)
    below, above = c * (1.0 - width) - width, c * (1.0 + width) + width
    feasible, calls = _threshold(c)
    assert passivity._sup_feasible(feasible, hi, 1e-3, below, above) == exact
    assert all(below < k < above for k in calls)


@pytest.mark.parametrize(
    "tol", [0.0, 1e-300, -1.0, math.nan], ids=["zero", "tiny", "negative", "nan"]
)
def test_bound_tolerance_below_the_float_spacing_ends_or_raises(tol):
    # the determinant bound, then the absolute (Llewellyn) bound
    llewellyn = passivity._LlewellynBound(NOM)
    bounds = (
        ("k22_upper_bound", lambda b22: k22_upper_bound(NOM, b22, tol=tol),
         lambda k22: check_condition_c_ii(NOM, vc(k22, 0.1)).passed),
        ("_LlewellynBound.bound", lambda b22: llewellyn.bound(b22, tol),
         lambda k22: llewellyn.feasible(k22, 0.1)),
    )
    for name, bound, admits in bounds:
        outcome = []

        def run():
            try:
                outcome.append(bound(0.1))
            except ValueError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(1.0)
        assert not worker.is_alive(), f"{name} still running after a second"
        (result,) = outcome
        if not tol >= 0:
            assert isinstance(result, ValueError), name
            # before the early return of a b22 with no positive bound
            with pytest.raises(ValueError):
                bound(0.0)
            continue
        # bisected down to adjacent floats: the frontier at float resolution
        assert admits(result), name
        assert not admits(math.nextafter(result, math.inf)), name


def _integer_plant(rng, **fixed):
    """A plant with integer fields in [1, 2**50) and alpha = k/2**50, k in [1, 2**50)."""
    kw = {f: float(rng.integers(1, 2**50)) for f in PLANT_FIELDS}
    kw["alpha"] = float(rng.integers(1, 2**50)) / 2**50
    kw.update(fixed)
    return SystemParams(**kw)


def test_plant_identities_hold_for_all_parameters():
    """Re h11*|D|**2 == x*r(x) and |N12 - D|**2 == x**2*w(x), as identities.

    Both sides are computed from the Fraction formulas of tests/oracle.py,
    which the kernel tests tie to the library coefficient for coefficient:
    plant_coefficients and unreduced_entries, real_part_even_polynomial for
    the first identity and _verify_c_ii_identity (which raises on a
    mismatch) for the second.  Each coefficient of either side is a
    rational function of the nine parameters whose denominator divides
    Pm**2*Pf**2.  Times that, and with
    alpha = k/2**50 times 2**(50*9), each coefficient of the difference is
    a polynomial of total degree at most d = 9 in the eight plant fields
    and k.  By the Schwartz-Zippel lemma (Schwartz, JACM 1980) a nonzero
    one vanishes at a point drawn uniformly from S**9, S = {1, ..., 2**50 - 1},
    with probability at most d/|S|.  So code that breaks either identity
    passes the 20 random points with probability at most
    (9/(2**50 - 1))**20 < 1e-281.  Five more points, each with one random
    field replaced, run the degenerate shapes: Im = 0, If = 0, Bf = 0,
    alpha = 0 and alpha = 1.
    """
    rng = np.random.default_rng(1980)
    plants = [_integer_plant(rng) for _ in range(20)]
    plants += [
        _integer_plant(rng, **fixed)
        for fixed in ({"Im": 0.0}, {"If": 0.0}, {"Bf": 0.0}, {"alpha": 0.0}, {"alpha": 1.0})
    ]
    for params in plants:
        p = plant_coefficients(params)
        N11, N12, D = unreduced_entries(params, p)
        assert real_part_even_polynomial(N11, D) == Polynomial([0, p.r0, p.r1, p.r2, p.r3]), params
        passivity._verify_c_ii_identity(N12, D, p)
    # the oracle rejects a w quadratic off the two-port entries
    p = plant_coefficients(NOM)
    _, N12, D = unreduced_entries(NOM, p)
    with pytest.raises(RuntimeError, match="^internal: "):
        passivity._verify_c_ii_identity(N12, D, dataclasses.replace(p, w1=p.w1 + 1))


def test_a_closed_form_failure_that_the_sturm_chain_passes_raises(monkeypatch):
    # a failing closed form builds the chain for its witness; the chain's
    # verdict must agree, or the checker reports an internal error
    check_condition_c_i(NOM)  # the plant memo, filled before the patch
    monkeypatch.setattr(passivity, "cubic_nonneg_closed_form", lambda *cubic: False)
    with pytest.raises(RuntimeError, match=r"^internal: .* disagree for condition \(c-ii\)$"):
        check_condition_c_ii(NOM, vc(408.0, 0.17))
    passivity._plant_analysis.cache_clear()
    with pytest.raises(RuntimeError, match=r"^internal: .* disagree for condition \(c-i\)$"):
        check_condition_c_i(NOM)


def _determinant_polynomial(params, coupler):
    """Oracle: 4*b22*x*f11 - (k22**2 + b22**2*x)*|N12 - D|**2, built generically."""
    N11, N12, D = unreduced_entries(params, plant_coefficients(params))
    f11 = real_part_even_polynomial(N11, D)
    W = real_part_even_polynomial(N12 - D, N12 - D)
    k22, b22 = Fraction(coupler.k22), Fraction(coupler.b22)
    return Polynomial([0, 4 * b22]) * f11 - Polynomial([k22 * k22, b22 * b22]) * W


@pytest.mark.parametrize(
    "params",
    [
        NOM,
        dataclasses.replace(NOM, Im=0.0),
        dataclasses.replace(NOM, If=0.0),
        dataclasses.replace(NOM, Bf=0.0),
        dataclasses.replace(NOM, Im=0.0, If=0.0, Bf=0.0, alpha=0.0),
        draw_plant(np.random.default_rng(3)),
        draw_plant(np.random.default_rng(4)),
    ],
    ids=["nominal", "Im0", "If0", "Bf0", "all-zero", "seed3", "seed4"],
)
def test_determinant_cubic_matches_the_generic_two_port_polynomial(params):
    # x**2 * t(x) == 4*b22*x*f11 - (k22**2 + b22**2*x)*|N12 - D|**2 on every coupler
    rng = np.random.default_rng(11)
    couplers = [draw_coupler(rng, params.Bf) for _ in range(6)]
    couplers += [vc(408.0, 0.0), vc(0.0, 0.17), vc(250.0, 4.0 * params.Bf)]
    for coupler in couplers:
        c = derive_coefficients(params, coupler)
        assert _determinant_polynomial(params, coupler) == Polynomial(
            [0, 0, c.t0, c.t1, c.t2, c.t3]
        ), coupler


# ---------------------------------------------------------------------------
# verdicts at named operating points
# ---------------------------------------------------------------------------


def _exact_h12_dip(params, coupler):
    """(least margin, omega): min(m11, mdet) on default_grid() with h12 - 1 formed exactly.

    The oracle of the sampled two-port margins.  Near DC h12 -> 1, so
    h12 - 1 taken from sampled h12 loses its digits to cancellation and the
    determinant margin can dip below zero under an exact pass.  Forming
    h12 - 1 = (N12 - D)/D exactly and sampling it afterwards does not, so
    under an exact pass this margin stays at or above -1e-7 on the grid.
    """
    omegas = default_grid()
    h11, h12 = passivity._plant_analysis(params).entries
    s11 = h11.eval_grid(omegas)
    s22 = model._coupler_port(coupler).eval_grid(omegas)
    s12m1 = stability.RationalFunction(h12.num - h12.den, h12.den).eval_grid(omegas)
    with np.errstate(all="ignore"):
        m11 = s11.real / (np.abs(s11) + 1e-300)
        prod, cross = s11.real * s22.real, 0.25 * np.abs(s12m1) ** 2
        mdet = (prod - cross) / (np.abs(prod) + cross + 1e-300)
    worst = np.minimum(m11, mdet)
    ok = np.isfinite(worst)
    idx = int(np.argmin(worst[ok]))
    return float(worst[ok][idx]), float(omegas[ok][idx])


def test_sampled_cross_check_survives_h12_cancellation_near_dc():
    # near DC h12 -> 1; from sampled h12 the determinant margin dips to
    # -7.66e-07 at omega = 1.19e-3 rad/s, from h12 - 1 formed exactly it
    # stays positive
    p = SystemParams(
        Kf=353.0783219184373, Bf=0.046525951251330765, M=0.0006176012647941691,
        B=0.16943116692453286, Pm=0.30639309405417603, Im=106.55072135168415,
        Pf=38.359651364628526, If=77.18265782775515, alpha=0.8854381999831757,
    )
    coupler = vc(411.408757647875, 0.13738834038504244)
    rep = check_two_port_passivity(p, coupler)
    assert rep.overall
    assert rep.grid_min_determinant == pytest.approx(-7.659147e-07, rel=1e-6)
    assert _exact_h12_dip(p, coupler)[0] > 0.0


def test_exact_passes_on_the_frontier_keep_the_exact_h12_margin():
    # tol = 0 bounds put t0 near 0, where sampled h12 - 1 cancels near DC;
    # the grid margins decide nothing, and the oracle confirms every exact pass
    plants = [NOM] + [draw_plant(np.random.default_rng(seed)) for seed in (1, 2, 4, 6)]
    sampled_dips = 0
    for params in plants:
        for b22 in np.linspace(0.2, 4.0, 12) * params.Bf:
            coupler = vc(k22_upper_bound(params, float(b22), tol=0.0), float(b22))
            rep = check_two_port_passivity(params, coupler)
            assert rep.overall, (params, coupler)
            sampled_dips += min(rep.grid_min_determinant, rep.grid_min_re_h11) < -1e-7
            assert _exact_h12_dip(params, coupler)[0] >= -1e-7, (params, coupler)
            _, m22, _ = two_port_grid_margins(params, coupler, default_grid())
            assert np.all(m22 >= 0.0), (params, coupler)
    assert sampled_dips >= 20  # 30 of the 60 couplers: the frontier reaches the cancellation


def test_the_exact_h12_oracle_flags_a_real_dip(monkeypatch):
    # force an exact pass on a coupler far beyond the frontier: the report
    # still passes, since its grid margins decide nothing, and the oracle
    # flags the dip
    monkeypatch.setattr(
        passivity, "check_condition_c_ii",
        lambda params, coupler: ConditionReport(name="condition_c_ii", passed=True),
    )
    assert check_two_port_passivity(NOM, vc(600.0, 0.17)).overall
    dip, omega = _exact_h12_dip(NOM, vc(600.0, 0.17))
    assert dip == pytest.approx(-0.3675198, rel=1e-6) and omega == pytest.approx(1e-3)


def test_verdicts_straddle_the_bound_at_nominal_damping():
    assert check_two_port_passivity(NOM, vc(400.0, 0.17)).overall
    assert check_two_port_passivity(NOM, vc(408.0, 0.17)).overall
    assert not check_two_port_passivity(NOM, vc(409.0, 0.17)).overall
    assert not check_two_port_passivity(NOM, vc(450.0, 0.17)).overall


def test_static_violation_reports_the_constant_coefficient():
    rep = check_two_port_passivity(NOM, vc(450.0, 0.17))
    assert rep.condition_c_ii.failing == "t0"
    assert rep.condition_c_ii.witness_omega == 0.0
    assert rep.witnesses == (0.0,)

    rep2 = check_two_port_passivity(NOM, vc(357.0, 0.13))
    assert not rep2.overall and rep2.condition_c_ii.failing == "t0"


def test_overdamped_coupler_fails_through_the_cubic_coefficient():
    rep = check_two_port_passivity(NOM, vc(10.0, 0.21))
    assert not rep.overall
    assert rep.condition_c_ii.failing == "t3"
    assert rep.condition_c_ii.witness_omega > 1e6  # violation far out in frequency


def test_undamped_coupler_fails_for_any_stiffness():
    for k22 in (1.0, 100.0, 408.0):
        rep = check_two_port_passivity(NOM, vc(k22, 0.0))
        assert not rep.overall
        assert not rep.condition_c_ii.passed


def test_branch_labels_distinguish_the_two_interior_cases():
    assert check_two_port_passivity(NOM, vc(408.0, 0.17)).condition_c_ii.branch == "ii2"
    assert check_two_port_passivity(NOM, vc(300.0, 0.15)).condition_c_ii.branch == "ii1"


def test_first_conditions_pass_at_nominal():
    rep = check_two_port_passivity(NOM, vc(408.0, 0.17))
    assert rep.condition_a.passed and rep.condition_a.branch == "quartic-margin"
    assert rep.condition_b.passed and rep.condition_b.branch == "no-axis-pole"
    assert rep.condition_c_i.passed and rep.condition_c_i.branch == "i1"


def test_grid_statistics_frozen_at_nominal():
    rep = check_two_port_passivity(NOM, vc(408.0, 0.17))
    assert rep.grid_min_determinant == pytest.approx(1.089092718e-4, rel=1e-6)
    assert rep.grid_min_re_h11 == pytest.approx(5.69738479e-4, rel=1e-6)
    assert rep.grid_argmin_omega == pytest.approx(1.1324708e-3, rel=1e-6)


def test_force_filter_gain_threshold_for_input_resistance():
    # raising the force-filter integral gain eventually makes the input
    # resistance dip negative at an interior frequency; the flip happens
    # strictly below the static single-coefficient threshold Im*Pf/B
    assert check_condition_c_i(dataclasses.replace(NOM, If=17000.0)).passed
    failed = check_condition_c_i(dataclasses.replace(NOM, If=18000.0))
    assert not failed.passed and failed.failing == "interior"
    static_threshold = NOM.Im * NOM.Pf / NOM.B
    assert 17646.0 < static_threshold  # exact flip near 17646.13 comes first


def test_conditions_are_individually_addressable():
    a = check_condition_a(NOM)
    b = check_condition_b(NOM)
    ci = check_condition_c_i(NOM)
    cii = check_condition_c_ii(NOM, vc(408.0, 0.17))
    assert a.passed and b.passed and ci.passed and cii.passed
    assert cii.name == "condition_c_ii" and cii.branch == "ii2"
    assert cii.failing is None and cii.witness_omega is None


def test_condition_b_reads_the_exact_margin_of_condition_a():
    # the Hurwitz margin is 7.27e-6, within 1e-9 of the magnitudes of its
    # terms, yet not zero: there is no axis pole
    p = NOM.replace(Im=766.9530028852691)
    a = check_condition_a(p)
    assert a.passed and 0 < a.margin < 1e-5
    b = check_condition_b(p)
    assert b.passed and b.branch == "no-axis-pole" and b.witness_omega is None


def test_exact_axis_pole_pair_is_judged_by_its_residue():
    # characteristic quartic 2s^4 + 2s^3 + 3s^2 + 2s + 1 = (s^2 + 1)(2s^2 + 2s + 1):
    # Hurwitz margin exactly zero, and h11 has a real positive residue at s = j
    p = SystemParams(Kf=1.0, Bf=0.0, M=2.0, B=1.0, Pm=1.0, Im=1.0, Pf=1.0, If=1.0)
    a = check_condition_a(p)
    assert a.passed and a.margin == 0
    b = check_condition_b(p)
    assert b.passed and b.branch == "residue-closed-form" and b.margin == 4.0
    assert b.note == "axis pole pair at omega = 1 rad/s"


def test_axis_pole_branch_iff_the_margin_is_exactly_zero(corpus):
    for inst in corpus:
        a, b = inst.two_port.condition_a, inst.two_port.condition_b
        if a.branch == "quartic-margin":
            assert (b.branch == "residue-closed-form") == (a.margin == 0), inst.params


def test_plant_work_runs_once_for_the_three_checks(monkeypatch):
    calls = collections.Counter()
    names = (
        "analyze_denominator", "quartic_hurwitz", "derive_coefficients",
        "_plant_kernel", "_plant_entries", "real_part_even_polynomial", "is_nonnegative_on",
    )
    for module in (passivity, model, stability):
        for name in names:
            if name in vars(module):
                real = getattr(module, name)

                def counted(*args, _name=name, _real=real, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

    passivity._plant_analysis.cache_clear()
    coupler = vc(408.0, 0.17)
    check_two_port_passivity(NOM, coupler)
    check_absolute_stability(NOM, coupler)
    check_sufficient_conditions(NOM, coupler)
    assert calls["analyze_denominator"] == 0
    assert calls["quartic_hurwitz"] == 1
    # one integer kernel per plant, and its hybrid entries built once, for the grid
    assert calls["_plant_kernel"] == 1
    assert calls["_plant_entries"] == 1
    assert calls["derive_coefficients"] == 0
    # the (c-i) and (c-ii) identities are proved by tests, not per plant
    assert calls["real_part_even_polynomial"] == 0
    for k22 in (100.0, 200.0, 300.0, 350.0, 380.0):
        assert check_condition_c_ii(NOM, vc(k22, 0.15)).passed
    assert calls["real_part_even_polynomial"] == 0
    # a passing cubic is decided by its closed form alone; only a failing
    # one builds the Sturm chain, for its witness
    assert calls["is_nonnegative_on"] == 0
    assert not check_condition_c_ii(NOM, vc(400.0, 0.15)).passed
    assert calls["is_nonnegative_on"] == 1


def test_design_search_and_exact_checks_build_no_fraction_record(monkeypatch):
    # they read the integer kernel alone: neither the Fraction view of
    # derive_coefficients nor the Fraction hybrid entries of the grid margins
    def refuse(*args):
        raise AssertionError("a Fraction record was built")

    for module, name in ((model, "derive_coefficients"), (model, "_plant_entries"),
                         (passivity, "_plant_entries")):
        monkeypatch.setattr(module, name, refuse)
    passivity._plant_analysis.cache_clear()
    res = maximize_k22_over_alpha(NOM)
    assert (res.k22_max, res.b22_opt, res.alpha_opt) == (
        417.1094177087317, 0.14845824720006734, 0.8904631987238172
    )
    for rep in (
        check_condition_a(NOM), check_condition_b(NOM), check_condition_c_i(NOM),
        check_condition_c_ii(NOM, vc(408.0, 0.17)),
    ):
        assert rep.passed, rep.name
    passivity._plant_analysis.cache_clear()


def _kernel_reads(p: SystemParams):
    """What the plant analysis reads from the kernel, and the same from the Fraction record."""
    c = plant_coefficients(p)
    margin = stability.quartic_hurwitz((c.a4, c.a3, c.a2, c.a1, c.a0)).margin
    ia = Fraction(p.Im) + Fraction(p.alpha) * Fraction(p.Kf)
    bound = passivity._DeterminantBound(p)
    kernel = (check_condition_a(p).margin, bound._ia, bound._r0x4)
    fractions = (
        poly._witness_float(margin), poly._witness_float(ia),
        max(poly._witness_float(4 * c.r0), 0.0),
    )
    return kernel, fractions


def test_kernel_reads_equal_the_fraction_record_on_the_corpus(corpus):
    for inst in corpus:
        kernel, fractions = _kernel_reads(inst.params)
        assert kernel == fractions, inst.params


@pytest.mark.parametrize("fields", KERNEL_EDGES, ids=[repr(f) for f in KERNEL_EDGES])
def test_kernel_reads_equal_the_fraction_record_on_edge_plants(fields):
    kernel, fractions = _kernel_reads(dataclasses.replace(NOM, **fields))
    assert kernel == fractions


def _generic_verdicts(p: SystemParams):
    """(a) and (b) by the generic exact root analysis of the s-cancelled h11.

    The oracle of the quartic closed forms: (a) from analyze_denominator,
    (b) from axis_residue_fault's float residue test at the axis pairs.
    """
    h11 = model.hybrid_matrix(p, vc(1.0, 0.1)).h11
    analysis = analyze_denominator(h11.den)
    return analysis.open_rhp_free, axis_residue_fault(h11.num, h11.den, analysis.imaginary_pairs)


def test_quartic_margin_verdict_matches_the_generic_root_analysis(corpus):
    # the quartic's Hurwitz margin alone decides (a) and (b), for positive
    # gains (the corpus) and for zero ones, where the quartic loses a0 or
    # a0 and a1; the generic exact root location of h11's denominator and
    # its residue test must agree
    rng = np.random.default_rng(7)
    zero_gain = [
        draw_plant(rng, 1.0, **fixed)
        for fixed in ({"Im": 0.0}, {"If": 0.0}, {"Im": 0.0, "If": 0.0})
        for _ in range(100)
    ]
    verdicts = collections.Counter()
    for p in [inst.params for inst in corpus] + zero_gain:
        a, b = check_condition_a(p), check_condition_b(p)
        assert a.branch == "quartic-margin" and b.branch == "no-axis-pole"
        rhp_free, fault = _generic_verdicts(p)
        assert a.passed == rhp_free, p
        assert b.passed and fault is None, p
        verdicts[p.Im > 0 and p.If > 0, a.passed] += 1
    assert all(verdicts[gains, passed] for gains in (True, False) for passed in (True, False))


def test_zero_gain_axis_pole_pairs_match_the_generic_residue_test():
    verdicts = collections.Counter()
    for p in zero_gain_axis_family():
        c = plant_coefficients(p)
        a, b = check_condition_a(p), check_condition_b(p)
        assert a.passed and a.margin == 0 and b.branch == "residue-closed-form", p
        b3, _, b1, _ = h11_numerator_cubic(p)
        assert b.margin == float(c.a3 * b1 - c.a1 * b3), p
        rhp_free, fault = _generic_verdicts(p)
        assert rhp_free and b.passed == (fault is None), p
        if fault is not None:
            label, omega = fault
            assert label == b.failing == "residue"
            assert b.witness_omega == math.sqrt(c.a1 / c.a3)
            assert omega == pytest.approx(b.witness_omega, rel=1e-12)
        verdicts[b.passed] += 1
        # off the axis the margin's sign alone decides, as the root analysis does
        for scale in (0.5, 2.0):
            q = dataclasses.replace(p, M=p.M * scale)
            a, b = check_condition_a(q), check_condition_b(q)
            assert a.passed == (scale < 1) == _generic_verdicts(q)[0], q
            assert b.passed and b.branch == "no-axis-pole"
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def test_axis_pole_config_reports_its_residue_margin_and_witness():
    # the axis-pole plant that CI checks from a merged config: an exact pole
    # pair at sqrt(a1/a3) whose residue is not real
    p = dataclasses.replace(
        NOM, Kf=2.0, Bf=1.0, M=6.0, B=1.0, Pm=1.0, Im=1.0, Pf=1.0, If=0.0, alpha=0.0
    )
    b = check_condition_b(p)
    assert (b.passed, b.branch, b.failing) == (False, "residue-closed-form", "residue")
    assert b.margin == 3.0
    assert b.witness_omega == 0.816496580927726


# ---------------------------------------------------------------------------
# sufficient conditions and their gap to the exact test
# ---------------------------------------------------------------------------


def test_sufficient_conditions_pass_well_inside_the_region():
    assert check_sufficient_conditions(NOM, vc(150.0, 0.15)).passed


def test_sufficient_conditions_gap_witness():
    # coefficient-wise test fails on the quadratic term while the exact
    # verdict still passes: the stronger test is only sufficient
    s = check_sufficient_conditions(NOM, vc(300.0, 0.15))
    assert not s.passed and s.failing == "t2"
    assert check_two_port_passivity(NOM, vc(300.0, 0.15)).overall


# ---------------------------------------------------------------------------
# coupled (absolute) stability: grid verdicts and the relaxation gap
# ---------------------------------------------------------------------------


def test_absolute_verdicts_straddle_their_own_threshold():
    assert check_absolute_stability(NOM, vc(357.0, 0.13)).overall
    assert not check_absolute_stability(NOM, vc(358.0, 0.13)).overall
    assert check_absolute_stability(NOM, vc(408.0, 0.17)).overall
    assert not check_absolute_stability(NOM, vc(409.0, 0.17)).overall


def test_absolute_failure_details_far_above_threshold():
    rep = check_absolute_stability(NOM, vc(430.0, 0.13))
    assert not rep.overall and not rep.llewellyn_ok
    assert rep.min_margin == pytest.approx(-5.70e-5, rel=0.02)
    assert 50.0 < rep.argmin_omega < 300.0
    assert rep.grid_points == 4000

    rep2 = check_absolute_stability(NOM, vc(420.0, 0.17))
    assert not rep2.overall
    assert 1e3 < rep2.argmin_omega < 1e4  # deep notch near the coupler resonance


def test_relaxation_strictly_extends_the_passive_region():
    # points that fail the two-port test but pass the coupled-stability test
    for point in (vc(357.3, 0.13), vc(408.2, 0.17)):
        assert not check_two_port_passivity(NOM, point).overall, point
        assert check_absolute_stability(NOM, point).overall, point


def test_undamped_coupler_on_a_plant_without_static_stiffness_fails_at_x_squared():
    # Im = alpha = 0 zeroes w0, so t0 = 0; b22 = 0 zeroes t3; t2 = -k22**2*M**2
    rep = check_condition_c_ii(NOM.replace(Im=0.0, alpha=0.0), vc(100.0, 0.0))
    assert not rep.passed
    assert rep.failing == "t2"


def test_margin_tolerance_is_respected():
    strict = check_absolute_stability(NOM, vc(409.0, 0.17))
    assert not strict.llewellyn_ok
    assert strict.min_margin == pytest.approx(-3.894e-4, rel=0.02)


def test_undamped_coupler_is_never_absolutely_stable():
    for k22 in (50.0, 408.0):
        assert not check_absolute_stability(NOM, vc(k22, 0.0)).overall


def test_grid_margins_expose_the_violation_shape():
    grid = default_grid(4000)
    margins = llewellyn_grid_margins(NOM, vc(430.0, 0.13), grid)
    assert float(np.nanmin(margins)) < -1e-5
    ok = llewellyn_grid_margins(NOM, vc(408.0, 0.17), grid)
    assert float(np.nanmin(ok)) >= -1e-8

    m11, m22, mdet = two_port_grid_margins(NOM, vc(450.0, 0.17), grid)
    assert float(np.nanmin(mdet)) < -1e-3
    assert float(np.nanmin(m11)) >= -1e-8  # input resistance itself still fine


def test_grid_margins_at_a_pole_are_nan_without_a_warning():
    # the drive quartic is (s**2 + 1)*(2*s**2 + 2*s + 1): h11 has a pole pair at 1 rad/s
    pole = dataclasses.replace(NOM, Kf=1.0, Bf=0.0, M=2.0, B=1.0, Pm=1.0, Im=1.0, Pf=1.0, If=1.0)
    m11, m22, mdet = two_port_grid_margins(pole, vc(1.0, 0.1), np.array([0.1, 1.0, 10.0]))
    assert np.isnan(m11[1]) and np.isnan(mdet[1])
    assert np.all(np.isfinite(m11[[0, 2]])) and np.all(np.isfinite(m22))


def test_llewellyn_probe_with_no_finite_margin_is_infeasible_without_a_warning():
    # at the least subnormal b22, Re h22 = 1/b22 overflows at k22 = 0, so
    # every margin is NaN (inf/inf, or 0*inf where Re h11 = 0)
    plant = dataclasses.replace(NOM, Bf=1e-300, M=0.5, Pm=1e8)
    assert not passivity._LlewellynBound(plant).feasible(0.0, 5e-324)
    rep = check_absolute_stability(plant, vc(0.0, 5e-324))
    assert not rep.llewellyn_ok and rep.min_margin is None


@pytest.mark.parametrize("b22", [0.17, 1e-3, 2.0])
def test_llewellyn_margin_at_k22_zero_reads_re_h22_as_one_over_b22_at_every_sample(b22):
    # at omega = 0 the k22 term of Re h22 is 0, not 0*(0/0): h11(0) = 0 and
    # h12(0) = 1 give a margin of 0.0 there, and no sample is NaN
    grid = np.array([0.0, 1e-3, 1.0, 10.0, 1e6])
    h11, h12 = (h.eval_grid(grid) for h in passivity._plant_analysis(NOM).entries)
    prod = h11.real * (1.0 / b22)
    expected = (2.0 * prod + h12.real - np.abs(h12)) / (
        2.0 * np.abs(prod) + 2.0 * np.abs(h12) + passivity._TINY
    )
    margins = llewellyn_grid_margins(NOM, vc(0.0, b22), grid)
    assert margins.tolist() == expected.tolist()
    assert margins[0] == 0.0
    rep = check_absolute_stability(NOM, vc(0.0, b22), grid=grid)
    assert rep.min_margin is not None and not math.isnan(rep.min_margin)


@pytest.mark.parametrize("k22", [0.0, 1e-200])
def test_llewellyn_margin_at_a_tiny_b22_passes_the_check_and_the_bound(k22):
    # b22**2 = 1e-400 underflows, but Re h22 never squares b22
    rep = check_absolute_stability(NOM, vc(k22, 1e-200))
    assert rep.llewellyn_ok and rep.min_margin == pytest.approx(1.0)
    assert passivity._LlewellynBound(NOM).feasible(k22, 1e-200)


def test_default_grid_shape():
    g = default_grid(2000)
    assert g.shape == (2000,)
    assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e6)
    assert np.all(np.diff(np.log10(g)) > 0)


# ---------------------------------------------------------------------------
# randomized corpora: necessity, equivalence, hierarchy
# ---------------------------------------------------------------------------


def test_no_elastic_damping_is_never_passive():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        p = draw_plant(rng, Bf=0.0)
        coupler = draw_coupler(rng, NOM.Bf)
        assert not check_two_port_passivity(p, coupler).overall
        assert not check_absolute_stability(p, coupler).overall


def test_no_coupler_damping_fails_both_checks():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        p = draw_plant(rng)
        coupler = VirtualCoupler(10.0 ** rng.uniform(1.5, 3.0), 0.0)
        assert not check_two_port_passivity(p, coupler).overall
        assert not check_absolute_stability(p, coupler).overall


def test_exact_and_sampled_real_part_verdicts_agree(corpus, corpus_sampled_margins):
    disagreements = []
    for inst, sampled_min in zip(corpus, corpus_sampled_margins):
        exact = inst.two_port.condition_c_i.passed and inst.two_port.condition_c_ii.passed
        sampled = sampled_min >= -1e-8
        if sampled != exact and abs(sampled_min) > 1e-8:
            disagreements.append((inst.coupler, sampled_min, exact))
    assert disagreements == []


def test_verdict_hierarchy_over_the_corpus(corpus):
    for inst in corpus:
        if inst.sufficient.passed:
            assert inst.two_port.overall, inst.coupler
        if inst.two_port.overall:
            assert inst.absolute.overall, inst.coupler


def test_corpus_exercises_both_sides_of_every_verdict(corpus):
    n_two_port = sum(i.two_port.overall for i in corpus)
    n_absolute = sum(i.absolute.overall for i in corpus)
    n_sufficient = sum(i.sufficient.passed for i in corpus)
    assert 0 < n_sufficient < n_two_port < n_absolute < len(corpus)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_route_interior_test_never_disagrees(seed):
    # the checkers decide each cubic by its closed form; the exact Sturm
    # chain on the same cubic must give the same verdict, and its witness
    # on failure
    rng = np.random.default_rng(seed)
    p = draw_plant(rng)
    coupler = draw_coupler(rng, p.Bf)
    c = derive_coefficients(p, coupler)
    for report, cubic in (
        (check_condition_c_i(p), (c.r0, c.r1, c.r2, c.r3)),
        (check_condition_c_ii(p, coupler), (c.t0, c.t1, c.t2, c.t3)),
    ):
        ok, witness_x = is_nonnegative_on(Polynomial(cubic), (0, math.inf))
        assert report.passed == ok, (p, coupler)
        assert report.witness_omega == (None if ok else math.sqrt(witness_x))


def _fraction_reports(params, coupler):
    """check_condition_c_ii and check_sufficient_conditions rebuilt on the Fraction t."""
    c = derive_coefficients(params, coupler)
    passed, witness_x = passivity._decide_cubic(c.t3, c.t2, c.t1, c.t0, "oracle")
    branch = failing = None
    if passed:
        branch = "ii1" if poly.first_clause(c.t3, c.t2, c.t1) else "ii2"
    elif c.t0 < 0:
        failing = "t0"
    elif c.t3 < 0:
        failing = "t3"
    elif coupler.b22 == 0 and c.t2 < 0:
        failing = "t2"
    else:
        failing = "interior"
    c_ii = ConditionReport(
        name="condition_c_ii", passed=passed, branch=branch, failing=failing,
        witness_omega=None if witness_x is None else math.sqrt(witness_x),
    )
    plant = (check_condition_a(params), check_condition_b(params))
    failed = [r.name for r in plant if not r.passed]
    failed += [n for n in ("r0", "r1", "r2", "t0", "t1", "t2", "t3") if getattr(c, n) < 0]
    sufficient = ConditionReport(
        name="sufficient_conditions", passed=not failed, failing=",".join(failed) or None
    )
    return c_ii, sufficient


def test_integer_checkers_match_the_fraction_oracle(corpus):
    # the checkers decide on the plant's integer vector; each report must be
    # the one the Fraction coefficients of derive_coefficients give, also at
    # b22 = 0 and for int couplers, which are read exactly
    labels = collections.Counter()
    for inst in corpus:
        k22 = inst.coupler.k22
        for coupler in (inst.coupler, vc(k22, 0.0), vc(round(k22), 0), vc(round(k22), 1)):
            got = (
                check_condition_c_ii(inst.params, coupler),
                check_sufficient_conditions(inst.params, coupler),
            )
            assert got == _fraction_reports(inst.params, coupler), (inst.params, coupler)
            labels[got[0].branch or got[0].failing] += 1
    # 't2' needs t0 = 0 at b22 = 0, i.e. Im = alpha = 0, which no corpus plant has
    assert set(labels) == {"ii1", "ii2", "t0", "t3", "interior"}, labels


# ---------------------------------------------------------------------------
# bound consistency with the verdicts it summarizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b22", [0.13, 0.15, 0.17, 0.19])
def test_bound_is_the_verdict_frontier(b22):
    bound = k22_upper_bound(NOM, b22)
    assert check_two_port_passivity(NOM, vc(bound - 1e-3, b22)).overall
    assert not check_two_port_passivity(NOM, vc(bound + 1.0, b22)).overall


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("share", [0.3, 0.65, 0.85, 0.98])
def test_float_bound_is_the_exact_frontier(seed, share):
    # at tol = 0 the bound is the last float that (c-ii) admits; seed 3's
    # plant fails (c-i), so no k22 > 0 passes and its bound is 0.0
    params = NOM if seed is None else draw_plant(np.random.default_rng(seed))
    b22 = share * 4.0 * params.Bf
    k = k22_upper_bound(params, b22, tol=0.0)
    assert (k > 0.0) == (seed != 3)
    if k > 0.0:
        assert check_condition_c_ii(params, vc(k, b22)).passed
    assert not check_condition_c_ii(params, vc(math.nextafter(k, math.inf), b22)).passed


def test_absolute_frontier_sits_above_the_passivity_frontier():
    # sampled-criterion threshold is never below the exact-criterion one
    for b22 in (0.13, 0.17):
        k_pass = k22_upper_bound(NOM, b22)
        assert check_absolute_stability(NOM, vc(k_pass + 0.2, b22)).overall
