"""Virtual-coupler tuning: maximize renderable stiffness over damping (and split)."""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import draw_plant
from vcoupler import passivity
from vcoupler.errors import BaselineNotPassive, InvalidParams
from vcoupler.model import VirtualCoupler, nominal_params
from vcoupler.optimize import maximize_k22, maximize_k22_over_alpha
from vcoupler.passivity import (
    _DeterminantBound,
    _LlewellynBound,
    _sup_feasible,
    check_absolute_stability,
    check_condition_a,
    check_condition_b,
    check_condition_c_i,
    check_two_port_passivity,
    default_grid,
)

NOM = nominal_params()


# ---------------------------------------------------------------------------
# frozen optima for the bundled parameter set
# ---------------------------------------------------------------------------


def test_passivity_optimum_full_feedback():
    t0 = time.perf_counter()
    r = maximize_k22(NOM)
    assert time.perf_counter() - t0 < 10.0
    assert r.criterion == "passivity"
    assert r.alpha_opt == 1.0
    assert r.b22_opt == pytest.approx(0.17014, abs=2e-3)
    assert r.k22_max == pytest.approx(408.201, abs=0.05)


def test_passivity_optimum_without_force_feedback():
    r = maximize_k22(dataclasses.replace(NOM, alpha=0.0))
    assert r.alpha_opt == 0.0
    assert r.b22_opt == pytest.approx(0.13626, abs=2e-3)
    assert r.k22_max == pytest.approx(360.535, abs=0.05)


def test_absolute_stability_optimum():
    t0 = time.perf_counter()
    r = maximize_k22(NOM, criterion="absolute")
    assert time.perf_counter() - t0 < 10.0
    assert r.criterion == "absolute"
    assert r.b22_opt == pytest.approx(0.16964, abs=2e-3)
    assert r.k22_max == pytest.approx(408.880, abs=0.05)
    # bit for bit, as the grid bisection found them
    assert r.k22_max == 408.8798828125
    assert r.b22_opt == 0.16964078649987382
    assert len(r.trace) == 62


def test_joint_optimum_over_the_feedback_split():
    t0 = time.perf_counter()
    r = maximize_k22_over_alpha(NOM)
    assert time.perf_counter() - t0 < 10.0
    assert r.alpha_opt == 0.8904631987238172
    assert r.b22_opt == 0.14845824720006734
    assert r.k22_max == 417.1094177087317
    assert len(r.trace) == 16


def test_absolute_joint_optimum_over_the_feedback_split():
    r = maximize_k22_over_alpha(NOM, criterion="absolute")
    assert (r.k22_max, r.b22_opt, r.alpha_opt) == (
        424.3310546875,
        0.13512077304004713,
        0.8215794912265513,
    )
    assert len(r.trace) == 16


def test_absolute_optimum_on_a_banded_grid():
    r = maximize_k22(NOM, criterion="absolute", grid=np.logspace(3, 6, 4000))
    assert r.b22_opt == pytest.approx(0.12935, abs=5e-3)
    assert r.k22_max == pytest.approx(434.056, abs=0.5)


# ---------------------------------------------------------------------------
# the reported maximum sits on the feasibility frontier
# ---------------------------------------------------------------------------


def test_passivity_maximum_brackets_the_frontier():
    r = maximize_k22(NOM)
    below = VirtualCoupler(r.k22_max - 1e-3, r.b22_opt)
    above = VirtualCoupler(r.k22_max + 1.0, r.b22_opt)
    assert check_two_port_passivity(NOM, below).overall
    assert not check_two_port_passivity(NOM, above).overall


def test_absolute_maximum_brackets_the_frontier():
    r = maximize_k22(NOM, criterion="absolute")
    below = VirtualCoupler(r.k22_max - 1e-3, r.b22_opt)
    above = VirtualCoupler(r.k22_max + 1.0, r.b22_opt)
    assert check_absolute_stability(NOM, below).overall
    assert not check_absolute_stability(NOM, above).overall


def test_relaxed_criterion_never_pays_a_stiffness_penalty():
    rp = maximize_k22(NOM)
    ra = maximize_k22(NOM, criterion="absolute")
    assert ra.k22_max >= rp.k22_max - 1e-6


# ---------------------------------------------------------------------------
# trace, notes, refinement guard, determinism
# ---------------------------------------------------------------------------


def test_trace_records_every_evaluation():
    r = maximize_k22(NOM)
    assert len(r.trace) == 62
    for b22, alpha, bound in r.trace:
        assert 0.0 < b22 <= 0.2
        assert alpha == 1.0
        assert bound >= 0.0
    assert r.trace[-1] == (r.b22_opt, r.alpha_opt, r.k22_max)
    assert "sweep 50 points" in r.notes


def test_refinement_stays_near_the_coarse_sweep_maximum():
    # guards against the local search wandering off to a different mode
    r = maximize_k22(NOM)
    sweep = r.trace[:50]
    coarse_best = max(sweep, key=lambda t: t[2])[0]
    spacing = 0.2 / 50
    assert abs(r.b22_opt - coarse_best) <= spacing + 1e-9


def test_optimizer_is_deterministic():
    a = maximize_k22(NOM)
    b = maximize_k22(NOM)
    assert a.trace == b.trace
    assert a.k22_max == b.k22_max
    assert a.b22_opt == b.b22_opt


# ---------------------------------------------------------------------------
# the joint search's pruned sweep returns maximize_k22's inner optima
# ---------------------------------------------------------------------------


def _joint_plants():
    rng = np.random.default_rng(2718)
    drawn = (draw_plant(rng, 0.3) for _ in range(40))
    return [NOM] + [p for p in drawn if _baseline_passes(p)][:5]


@pytest.mark.parametrize("index", range(6))
def test_joint_search_keeps_every_inner_optimum(index):
    params = _joint_plants()[index]
    r = maximize_k22_over_alpha(params)
    solved = [(b22, alpha, k22) for b22, alpha, k22 in r.trace if k22 > 0.0]
    assert solved
    for b22, alpha, k22 in solved:
        inner = maximize_k22(params.replace(alpha=alpha))
        assert (inner.b22_opt, inner.k22_max) == (b22, k22), alpha
    winner = maximize_k22(params.replace(alpha=r.alpha_opt))
    assert r.notes.endswith("; inner: " + winner.notes)


def test_failed_pruning_test_proves_a_lower_bound():
    # along the nominal sweep: admits() at the bound itself passes, and where
    # it fails at another point's bound k, this point's bound lies below k
    bounds = _DeterminantBound(NOM)
    pts = [4.0 * NOM.Bf * i / 50 for i in range(1, 51)]
    vals = [bounds.bound(b22) for b22 in pts]
    assert min(vals) > 0.0
    failed = 0
    for b22, k in zip(pts, vals):
        assert bounds.admits(b22, k), b22
        for top in vals + [math.nextafter(k, math.inf), k + 1e-3]:
            if not bounds.admits(b22, top):
                failed += 1
                assert k < top, (b22, top)
    assert failed > 1000


def test_joint_search_prunes_the_sweep(monkeypatch):
    # unpruned, 16 alphas at 50 sweep and 12 refinement points each would
    # make 992 bound calls; the pruned sweep evaluates a few points near the peak
    calls = []
    bound = _DeterminantBound.bound
    monkeypatch.setattr(
        _DeterminantBound, "bound", lambda self, *a: calls.append(a) or bound(self, *a)
    )
    assert maximize_k22_over_alpha(NOM).k22_max == 417.1094177087317
    assert len(calls) <= 300
    calls.clear()
    assert len(maximize_k22(NOM).trace) == len(calls) == 62


def test_joint_search_runs_the_eigenvalue_route_once(monkeypatch):
    # the first alpha starts one sweep point below 4*Bf, where the estimate
    # finds a minimum; every later estimate polishes a stationary point by Newton
    calls = []
    roots = passivity._stationary_roots
    monkeypatch.setattr(passivity, "_stationary_roots", lambda q: calls.append(q) or roots(q))
    assert maximize_k22_over_alpha(NOM).k22_max == 417.1094177087317
    assert len(calls) == 1


def test_joint_search_builds_no_hybrid_entries(monkeypatch):
    # the exact conditions and the k22 bound need the coefficients alone
    built = []
    entries = passivity._plant_entries
    monkeypatch.setattr(
        passivity, "_plant_entries", lambda *a: built.append(a) or entries(*a)
    )
    passivity._plant_analysis.cache_clear()
    maximize_k22_over_alpha(NOM)
    assert built == []


def test_joint_search_does_not_depend_on_the_call_history():
    other = _joint_plants()[1]
    passivity._plant_analysis.cache_clear()
    alone = maximize_k22_over_alpha(NOM), maximize_k22_over_alpha(other)
    after = maximize_k22_over_alpha(other), maximize_k22_over_alpha(NOM)
    assert after == alone[::-1]


# ---------------------------------------------------------------------------
# infeasible and invalid inputs
# ---------------------------------------------------------------------------


def test_no_elastic_damping_is_infeasible():
    bad = dataclasses.replace(NOM, Bf=0.0)
    with pytest.raises(BaselineNotPassive, match="Bf = 0"):
        maximize_k22(bad)
    with pytest.raises(BaselineNotPassive, match="Bf = 0"):
        maximize_k22_over_alpha(bad)


def _baseline_passes(params):
    checks = (check_condition_a, check_condition_b, check_condition_c_i)
    return all(c(params).passed for c in checks)


def test_alpha_that_fails_the_baseline_scores_zero():
    # a plant that passes (a), (b) and (c-i) at its own alpha but not at alpha = 0
    rng = np.random.default_rng(7)
    params = next(
        p for p in (draw_plant(rng, 0.6) for _ in range(200))
        if _baseline_passes(p) and not _baseline_passes(p.replace(alpha=0.0))
    )
    r = maximize_k22_over_alpha(params)
    assert (4.0 * params.Bf, 0.0, 0.0) in r.trace
    assert r.alpha_opt > 0.0 and r.k22_max > 0.0


def test_unknown_criterion_is_rejected():
    with pytest.raises(ValueError, match="criterion"):
        maximize_k22(NOM, criterion="bogus")


@pytest.mark.parametrize("search", [maximize_k22, maximize_k22_over_alpha])
def test_grid_under_the_passivity_criterion_is_rejected(search):
    # the passivity bound on k22 is exact; the grid used to be ignored silently
    with pytest.raises(ValueError, match="grid does not apply to the passivity criterion"):
        search(NOM, "passivity", grid=np.logspace(0, 1, 2))


# ---------------------------------------------------------------------------
# the closed-form Llewellyn bound against bisection of the grid margin
# ---------------------------------------------------------------------------


def _bisected_bound(search, b22, tol=1e-3):
    """Oracle: the bound found by evaluating the grid margin at every probe;
    None where the doubling search passes its ceiling."""
    if not (b22 > 0.0 and math.isfinite(b22)) or not search.feasible(0.0, b22):
        return 0.0
    try:
        return _sup_feasible(lambda k22: search.feasible(k22, b22), None, tol)[0]
    except RuntimeError:
        return None


def _closed_form_bound(search, b22):
    try:
        return search.bound(b22)
    except InvalidParams:
        return None


def _count_grid_probes(monkeypatch):
    """Count feasible() calls, i.e. probes the grid decides."""
    probes = []
    feasible = _LlewellynBound.feasible

    def counted(self, k22, b22):
        probes.append((k22, b22))
        return feasible(self, k22, b22)

    monkeypatch.setattr(_LlewellynBound, "feasible", counted)
    return probes


@pytest.mark.parametrize(
    "grid",
    [default_grid(4000), np.logspace(3, 6, 4000), np.logspace(-40, 6, 4000),
     np.logspace(-3, 70, 400)],
    ids=["default-grid", "banded-grid", "underflowing-grid", "overflowing-grid"],
)
def test_closed_form_bound_equals_grid_bisection(grid, monkeypatch):
    # the certified band needs at most two grid probes per bounded b22, also
    # where omega**2 and w**2/g underflow or overflow
    rng = np.random.default_rng(1952)
    plants = [NOM] + [draw_plant(rng, 0.3) for _ in range(20)]
    probes = _count_grid_probes(monkeypatch)
    bounded = 0
    for params in plants:
        search = _LlewellynBound(params, grid)
        b_hi = 4.0 * params.Bf
        for b22 in [b_hi * i / 8 for i in range(1, 9)] + [1.25 * b_hi, 5e-300, 1e40]:
            expected = _bisected_bound(search, b22)
            del probes[:]
            got = _closed_form_bound(search, b22)
            assert got == expected, (params, b22)
            if search._estimate is not None and got:
                bounded += 1
                assert len(probes) <= 2, (params, b22)  # the band decided the rest
    assert bounded >= 100


def test_closed_form_bound_hands_the_rounding_band_to_the_grid(monkeypatch):
    # at tol = 1e-3 the grid only certifies the passing end of the bracket
    # (the witness sample fails the other); at tol = 0 the bisection runs
    # into the band around k*, where every probe is decided exactly
    probes = _count_grid_probes(monkeypatch)
    search = _LlewellynBound(NOM, default_grid(4000))
    b_hi = 4.0 * NOM.Bf
    in_band = 0
    for b22 in (b_hi * i / 200 for i in range(1, 201)):
        for tol in (1e-3, 0.0):
            expected = _bisected_bound(search, b22, tol)
            del probes[:]
            assert search.bound(b22, tol) == expected
            if tol:
                assert probes == [(expected, b22)]
            else:
                in_band += len(probes) > 2
    assert in_band >= 150


def test_closed_form_bound_leaves_non_finite_samples_out(monkeypatch):
    # NaN frequencies and 1e200 rad/s (where h11 overflows) give NaN
    # samples, which fmin skips; the rest of the grid gives the estimate
    grid = np.concatenate([default_grid(500), [np.nan, 1e200, np.nan]])
    search = _LlewellynBound(NOM, grid)
    assert search._estimate is not None
    probes = _count_grid_probes(monkeypatch)
    for b22 in (0.05, 0.13, 0.17, 4.0 * NOM.Bf):
        expected = _bisected_bound(search, b22)
        del probes[:]
        assert _closed_form_bound(search, b22) == expected
        assert len(probes) <= 2


def test_overflowing_samples_send_every_probe_to_the_grid(monkeypatch):
    # above 1e154 rad/s omega**2 overflows and h11 is NaN; those samples drop
    # out and the estimate still bands the search
    search = _LlewellynBound(NOM, np.logspace(-3, 200, 50))
    assert search._estimate is not None
    probes = _count_grid_probes(monkeypatch)
    for b22 in (0.05, 0.13, 0.17):
        expected = _bisected_bound(search, b22)
        del probes[:]
        assert _closed_form_bound(search, b22) == expected
        assert len(probes) <= 2


def test_overflowing_omega_squared_sample_that_fails_everywhere_is_certified():
    # where b22*w**2 overflows, Re h22 = 1/b22 at every k22, so a sample can
    # fail at k22 = 0 while its estimate reads inf; the certificate's probe
    # at the doubling ceiling fails, and the search falls back to the grid
    search = _LlewellynBound(NOM, np.logspace(-3, 0, 20))
    search._w2[-1], search._re11[-1], search._re12[-1], search._abs12[-1] = np.inf, 1.0, 0.0, 1.0
    assert not search.feasible(0.0, 10.0)
    assert search.bound(10.0) == _bisected_bound(search, 10.0) == 0.0


@pytest.mark.parametrize("b22", [5e-324, 1e-310, 3e-309])
def test_subnormal_b22_sends_every_probe_to_the_grid(b22):
    # 1/b22 overflows, so every margin is NaN at k22 = 0 but not at some
    # k22 > 0: feasibility is not downward-closed, and a band would move the
    # bound at tol = 0 off the bisection's 0.0
    search = _LlewellynBound(NOM)
    assert not search.feasible(0.0, b22) and search.feasible(1e-160, b22)
    for tol in (1e-3, 0.0):
        assert search.bound(b22, tol) == _bisected_bound(search, b22, tol) == 0.0


def test_negative_re_h11_sends_every_probe_to_the_grid():
    # a plant failing (c-i) has Re h11 < 0 on part of the grid, where the
    # margin is not the falling function of k22 that the estimate inverts
    params = draw_plant(np.random.default_rng(5), 0.3)
    search = _LlewellynBound(params, default_grid(4000))
    assert np.nanmin(search._re11) < 0.0
    assert search._estimate is None
    for b22 in (4.0 * params.Bf * i / 8 for i in range(1, 9)):
        assert _closed_form_bound(search, b22) == _bisected_bound(search, b22)


def test_llewellyn_feasibility_is_the_checker_verdict():
    # feasible() and check_absolute_stability read one sampled margin, so the
    # bound at tol = 0 is the last float the check passes
    rng = np.random.default_rng(1952)
    drawn = (draw_plant(rng, 0.3) for _ in range(12))
    plants = [NOM] + [p for p in drawn if _baseline_passes(p)][:3]
    assert len(plants) == 4
    for params in plants:
        search = _LlewellynBound(params)

        def checker(k22, b22):
            return check_absolute_stability(params, VirtualCoupler(k22, b22)).llewellyn_ok

        for b22 in (4.0 * params.Bf * i / 6 for i in range(1, 7)):
            bound = search.bound(b22)
            for k22 in (bound, math.nextafter(bound, math.inf), bound + 1e-3, (1 - 1e-9) * bound):
                assert search.feasible(k22, b22) is checker(k22, b22), (params, b22, k22)
            flip = search.bound(b22, 0.0)
            assert checker(flip, b22), (params, b22, flip)
            assert not checker(math.nextafter(flip, math.inf), b22), (params, b22, flip)


@pytest.mark.parametrize("hi", [1.0, 1e-1])
def test_grid_that_cannot_bound_k22_raises_at_once(hi, monkeypatch):
    # below 1 rad/s no sample has g > 0, so no k22 fails the margin
    search = _LlewellynBound(NOM, np.logspace(-3, math.log10(hi), 20))
    assert _bisected_bound(search, 0.17) is None
    calls = []
    feasible = _LlewellynBound.feasible
    monkeypatch.setattr(
        _LlewellynBound, "feasible", lambda self, k, b: calls.append(k) or feasible(self, k, b)
    )
    with pytest.raises(InvalidParams, match="the grid does not bound k22"):
        search.bound(0.17)
    # the estimate takes every k22 to pass; one grid probe certifies the last
    assert calls == [passivity._LAST_DOUBLING]
