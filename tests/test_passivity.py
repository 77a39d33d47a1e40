"""Two-port passivity and coupled-stability verdicts, bounds, and oracles."""
from __future__ import annotations

import collections
import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_coupler, draw_plant
from vcoupler import model, passivity
from vcoupler.model import SystemParams, VirtualCoupler, derive_coefficients, nominal_params
from vcoupler.optimize import maximize_k22
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
from vcoupler.stability import real_part_even_polynomial

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
    start = bounds._start
    assert start is not None
    roots.clear()
    bounds.bound(trace[edge + 1])
    assert roots == []
    assert bounds._start != start


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
    witnesses = ((base[0], step[0]), passivity._witness(base, step, x))
    if base[3] == 0:  # a quadratic falls to -inf when its x**2 coefficient is negative
        witnesses += ((base[2], step[2]),)
    exact = cubic_nonneg_closed_form(*cubic)
    for wb, ws in witnesses:
        if wb * kd * kd + ws * kn * kn < 0:
            assert not exact
    assert passivity._probe(base, step, witnesses, k22) is exact


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_probe_cubics())
def test_a_rounded_pass_implies_the_exact_pass(case):
    cubic, _ = case
    rounded = passivity._round_down(cubic)
    if rounded is None:
        assert max(c.bit_length() for c in cubic) <= passivity._ROUND_BITS
    else:
        assert max(c.bit_length() for c in rounded) == passivity._ROUND_BITS
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
    outcome = []

    def run():
        try:
            outcome.append(k22_upper_bound(NOM, 0.1, tol=tol))
        except ValueError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), "k22_upper_bound still running after a second"
    (result,) = outcome
    if not tol >= 0:
        assert isinstance(result, ValueError)
        return
    # bisected down to adjacent floats: the exact frontier at float resolution
    assert check_condition_c_ii(NOM, vc(result, 0.1)).passed
    assert not check_condition_c_ii(NOM, vc(math.nextafter(result, math.inf), 0.1)).passed


def test_plant_analysis_rejects_a_w_quadratic_off_the_two_port_entries(monkeypatch):
    real = passivity.plant_coefficients

    def with_wrong_w1(params):
        p = real(params)
        return dataclasses.replace(p, w1=p.w1 + 1)

    monkeypatch.setattr(passivity, "plant_coefficients", with_wrong_w1)
    passivity._plant_analysis.cache_clear()
    with pytest.raises(RuntimeError, match="^internal: "):
        passivity._plant_analysis(NOM)


def _determinant_polynomial(params, coupler):
    """Oracle: 4*b22*x*f11 - (k22**2 + b22**2*x)*|N12 - D|**2, built generically."""
    N11, N12, D = model.unreduced_entries(params, model.plant_coefficients(params))
    f11 = real_part_even_polynomial(N11, D)
    W = real_part_even_polynomial(N12 - D, N12 - D)
    k22, b22 = Fraction(coupler.k22), Fraction(coupler.b22)
    return (Polynomial([0, 1]) * f11).scale(4 * b22) - Polynomial([k22 * k22, b22 * b22]) * W


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


def test_sampled_cross_check_survives_h12_cancellation_near_dc():
    # near DC h12 -> 1; from sampled h12 the determinant margin dips to
    # -7.66e-07 at omega = 1.19e-3 rad/s, from h12 - 1 formed exactly it
    # stays positive
    p = SystemParams(
        Kf=353.0783219184373, Bf=0.046525951251330765, M=0.0006176012647941691,
        B=0.16943116692453286, Pm=0.30639309405417603, Im=106.55072135168415,
        Pf=38.359651364628526, If=77.18265782775515, alpha=0.8854381999831757,
    )
    rep = check_two_port_passivity(p, vc(411.408757647875, 0.13738834038504244))
    assert rep.overall
    assert rep.grid_min_determinant == pytest.approx(-7.659147e-07, rel=1e-6)


def test_sampled_cross_check_still_raises_on_a_real_dip(monkeypatch):
    # force an exact pass on a coupler far beyond the frontier
    monkeypatch.setattr(
        passivity, "check_condition_c_ii",
        lambda params, coupler: ConditionReport(name="condition_c_ii", passed=True),
    )
    with pytest.raises(RuntimeError, match="sampled margins dip"):
        check_two_port_passivity(NOM, vc(600.0, 0.17))


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
    # the Hurwitz margin is 7.27e-6, within the relative tolerance of
    # stability.imaginary_axis_pole, yet not zero: there is no axis pole
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
        "plant_coefficients", "real_part_even_polynomial",
    )
    for module in (passivity, model):
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
    assert calls["analyze_denominator"] == 1
    assert calls["quartic_hurwitz"] == 1
    assert calls["plant_coefficients"] == 1
    assert calls["derive_coefficients"] == 0
    # the (c-i) and (c-ii) identities, once per plant, and none per coupler
    assert calls["real_part_even_polynomial"] == 2
    for k22 in (100.0, 200.0, 300.0, 400.0, 500.0):
        check_condition_c_ii(NOM, vc(k22, 0.15))
    assert calls["real_part_even_polynomial"] == 2


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


def test_margin_tolerance_is_respected():
    strict = check_absolute_stability(NOM, vc(409.0, 0.17))
    loose = check_absolute_stability(NOM, vc(409.0, 0.17), margin_tol=1e-2)
    assert not strict.llewellyn_ok and loose.llewellyn_ok
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
    # the coefficient test runs its closed form and its chain route together
    # and raises if they ever split; random draws must stay silent
    rng = np.random.default_rng(seed)
    p = draw_plant(rng)
    coupler = draw_coupler(rng, p.Bf)
    check_condition_c_ii(p, coupler)


# ---------------------------------------------------------------------------
# bound consistency with the verdicts it summarizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b22", [0.13, 0.15, 0.17, 0.19])
def test_bound_is_the_verdict_frontier(b22):
    bound = k22_upper_bound(NOM, b22)
    assert check_two_port_passivity(NOM, vc(bound - 1e-3, b22)).overall
    assert not check_two_port_passivity(NOM, vc(bound + 1.0, b22)).overall


def test_absolute_frontier_sits_above_the_passivity_frontier():
    # sampled-criterion threshold is never below the exact-criterion one
    for b22 in (0.13, 0.17):
        k_pass = k22_upper_bound(NOM, b22)
        assert check_absolute_stability(NOM, vc(k_pass + 0.2, b22)).overall
