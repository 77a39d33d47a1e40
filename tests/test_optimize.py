"""Virtual-coupler tuning: maximize renderable stiffness over damping (and split)."""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from vcoupler.errors import BaselineNotPassive
from vcoupler.model import VirtualCoupler, nominal_params
from vcoupler.optimize import maximize_k22, maximize_k22_over_alpha
from vcoupler.passivity import check_absolute_stability, check_two_port_passivity

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


def test_joint_optimum_over_the_feedback_split():
    t0 = time.perf_counter()
    r = maximize_k22_over_alpha(NOM)
    assert time.perf_counter() - t0 < 10.0
    assert r.alpha_opt == 0.8904631987238172
    assert r.b22_opt == 0.14845824720006734
    assert r.k22_max == 417.1094177087317
    assert len(r.trace) == 16


def test_restricted_split_candidates_pick_the_better_endpoint():
    r = maximize_k22_over_alpha(NOM, alpha_candidates=(0.0, 1.0))
    assert r.alpha_opt == 1.0
    assert r.k22_max == pytest.approx(408.201, abs=0.05)


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
# infeasible and invalid inputs
# ---------------------------------------------------------------------------


def test_no_elastic_damping_is_infeasible():
    bad = dataclasses.replace(NOM, Bf=0.0)
    with pytest.raises(BaselineNotPassive, match="Bf = 0"):
        maximize_k22(bad)
    with pytest.raises(BaselineNotPassive, match="Bf = 0"):
        maximize_k22_over_alpha(bad)


def test_unknown_criterion_is_rejected():
    with pytest.raises(ValueError, match="criterion"):
        maximize_k22(NOM, criterion="bogus")
