"""Plant model: parameter handling, derived coefficients, hybrid two-port."""
from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcoupler.errors import ConfigError, InvalidParams
from vcoupler.model import (
    SystemParams,
    VirtualCoupler,
    characteristic_polynomial,
    derive_coefficients,
    eval_h,
    h11_numerator_cubic,
    hybrid_matrix,
    load_config,
    nominal_coupler,
    nominal_params,
    plant_coefficients,
)

NOM = nominal_params()
VC = nominal_coupler()


def log_scaled(field: str, lo=-0.15, hi=0.15):
    base = getattr(NOM, field)
    return st.floats(-abs(lo), abs(hi)).map(lambda e: base * 10.0 ** e)


params_strategy = st.builds(
    SystemParams,
    Kf=log_scaled("Kf"),
    Bf=log_scaled("Bf"),
    M=log_scaled("M"),
    B=log_scaled("B"),
    Pm=log_scaled("Pm"),
    Im=log_scaled("Im"),
    Pf=log_scaled("Pf"),
    If=log_scaled("If"),
    alpha=st.floats(0.0, 1.0),
)

coupler_strategy = st.builds(
    VirtualCoupler,
    k22=st.floats(1.5, 3.0).map(lambda e: 10.0 ** e),
    b22=st.floats(-2.0, -0.5).map(lambda e: 10.0 ** e),
)


# ---------------------------------------------------------------------------
# parameter validation and config ingestion
# ---------------------------------------------------------------------------


def test_nominal_values():
    assert (NOM.Kf, NOM.Bf, NOM.M, NOM.B) == (362.0, 0.05, 6.399e-4, 0.169)
    assert (NOM.Pm, NOM.Im, NOM.Pf, NOM.If, NOM.alpha) == (0.28, 100.0, 40.0, 70.0, 1.0)
    assert (VC.k22, VC.b22) == (408.0, 0.17)


@pytest.mark.parametrize(
    "bad",
    [dict(alpha=-0.1), dict(alpha=1.1), dict(Kf=-1.0), dict(Pm=0.0), dict(Pf=0.0),
     dict(M=0.0), dict(B=-0.2), dict(Im=-3.0)],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(InvalidParams):
        dataclasses.replace(NOM, **bad)


def test_params_are_immutable_and_replaceable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        NOM.Kf = 1.0
    p = NOM.replace(alpha=0.5)
    assert p.alpha == 0.5 and p.Kf == NOM.Kf and NOM.alpha == 1.0


def test_coupler_validation():
    with pytest.raises(InvalidParams):
        VirtualCoupler(-1.0, 0.1)
    with pytest.raises(InvalidParams):
        VirtualCoupler(100.0, -0.1)
    with pytest.raises(InvalidParams):
        VirtualCoupler(0.0, 0.0)  # output admittance would divide by zero
    VirtualCoupler(100.0, 0.0)  # single-sided couplers are representable
    VirtualCoupler(0.0, 0.1)


def test_load_config_roundtrip(tmp_path):
    params, vc = load_config("table1.json")
    assert params == NOM
    assert vc == VC

    cfg = json.load(open("table1.json"))
    params2, vc2 = load_config(cfg)
    assert (params2, vc2) == (params, vc)

    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)) == (params, vc)


def test_load_config_coupler_keys_are_optional_as_a_pair():
    cfg = json.load(open("table1.json"))
    plain = {k: v for k, v in cfg.items() if k not in ("k22", "b22")}
    params, vc = load_config(plain)
    assert vc is None and params == NOM
    with pytest.raises(ConfigError):
        load_config({**plain, "k22": 100.0})
    with pytest.raises(ConfigError):
        load_config({**plain, "b22": 0.1})


def test_load_config_rejects_missing_and_unknown_keys():
    cfg = json.load(open("table1.json"))
    missing = {k: v for k, v in cfg.items() if k != "Kf"}
    with pytest.raises(ConfigError, match="Kf"):
        load_config(missing)
    with pytest.raises(ConfigError):
        load_config({**cfg, "mystery": 1.0})
    with pytest.raises(ConfigError):
        load_config("does-not-exist.json")


def test_inertia_key_is_mapped_on_ingestion():
    cfg = json.load(open("table1.json"))
    params, _ = load_config(cfg)
    assert params.M == cfg["J"]


# ---------------------------------------------------------------------------
# derived coefficients
# ---------------------------------------------------------------------------


def test_denominator_coefficients_match_direct_arithmetic():
    c = derive_coefficients(NOM, VC)
    Kf, Bf, M, B = 362.0, 0.05, 6.399e-4, 0.169
    Pm, Im, Pf, If, al = 0.28, 100.0, 40.0, 70.0, 1.0
    mu, nu = Im / Pm, If / Pf
    pp = Pm * Pf
    assert float(c.mu) == pytest.approx(mu, rel=1e-12)
    assert float(c.nu) == pytest.approx(nu, rel=1e-12)
    assert float(c.a4) == pytest.approx(M, rel=1e-12)
    assert float(c.a3) == pytest.approx(B + Pm + Bf * (al + pp), rel=1e-12)
    assert float(c.a2) == pytest.approx(Im + Kf * (al + pp) + Bf * pp * (mu + nu), rel=1e-12)
    assert float(c.a1) == pytest.approx(Bf * Im * If + Kf * pp * (mu + nu), rel=1e-12)
    assert float(c.a0) == pytest.approx(Kf * Im * If, rel=1e-12)
    assert float(c.a1) == pytest.approx(1455445.2, rel=1e-9)
    assert float(c.a0) == pytest.approx(2534000.0, rel=1e-12)


def test_aggregate_coefficients_frozen_values():
    c = derive_coefficients(NOM, VC)
    assert float(c.kappa1) == pytest.approx(3988.17, abs=0.01)
    assert float(c.r1) == pytest.approx(382266.0842, abs=0.001)
    assert float(c.r0) == pytest.approx(52262574948.0, rel=1e-9)


def test_characteristic_polynomial_lists_coefficients_ascending():
    c = derive_coefficients(NOM, VC)
    cp = characteristic_polynomial(c)
    assert [float(x) for x in cp.coeffs] == [
        float(c.a0), float(c.a1), float(c.a2), float(c.a3), float(c.a4)
    ]


@pytest.mark.parametrize(
    "p, vc",
    [(NOM, VC), (dataclasses.replace(NOM, Im=0.0, alpha=0.3), VirtualCoupler(0.0, 0.2))],
)
def test_coupler_records_extend_the_plant_record(p, vc):
    plant = plant_coefficients(p)
    c = derive_coefficients(p, vc)
    for field in dataclasses.fields(plant):
        assert getattr(c, field.name) == getattr(plant, field.name), field.name
    assert hybrid_matrix(p, vc).coeffs == plant


@settings(max_examples=60, deadline=None)
@given(params_strategy, coupler_strategy)
def test_denominator_coefficients_positive_for_positive_inertias(p, vc):
    c = derive_coefficients(p, vc)
    for name in ("a4", "a3", "a2", "a1", "a0"):
        assert getattr(c, name) > 0


# ---------------------------------------------------------------------------
# hybrid two-port entries
# ---------------------------------------------------------------------------


def test_input_impedance_numerator_matches_direct_arithmetic():
    cub = h11_numerator_cubic(NOM)
    # floats expand to their exact binary values, matching the library
    Kf, Bf, M, B, Pm, Im = (
        Fraction(362.0), Fraction(0.05), Fraction(6.399e-4),
        Fraction(0.169), Fraction(0.28), Fraction(100.0),
    )
    expected = (
        Bf * M,
        Bf * (B + Pm) + Kf * M,
        Bf * Im + Kf * (B + Pm),
        Kf * Im,
    )
    # exact equality is intentional: both sides are exact rational arithmetic
    assert cub == expected

    h = hybrid_matrix(NOM, VC)
    assert [float(x) for x in h.h11.num.coeffs] == [
        0.0, float(expected[3]), float(expected[2]), float(expected[1]), float(expected[0])
    ]


def test_output_admittance_is_the_coupler_inverse():
    h = hybrid_matrix(NOM, VC)
    assert [float(x) for x in h.h22.num.coeffs] == [0.0, 1.0]
    assert [float(x) for x in h.h22.den.coeffs] == [408.0, 0.17]


def test_force_transfer_is_minus_one():
    h = hybrid_matrix(NOM, VC)
    H = eval_h(h, 12.3)
    assert H[1, 0] == -1.0 + 0.0j
    assert H.shape == (2, 2) and H.dtype == complex


def test_dc_limit_is_the_ideal_transparency_pattern():
    H = eval_h(hybrid_matrix(NOM, VC), 1e-4)
    assert abs(H[0, 0]) <= 1e-6 * VC.k22
    assert abs(H[0, 1] - 1.0) <= 1e-6
    assert H[1, 0] == -1.0
    assert abs(H[1, 1]) * VC.b22 <= 1e-6


def test_high_frequency_limit_pattern():
    H = eval_h(hybrid_matrix(NOM, VC), 1e7)
    assert abs(H[0, 0] - NOM.Bf) / NOM.Bf < 1e-3
    assert abs(H[0, 1]) < 1e-3
    assert abs(H[1, 1] - 1.0 / VC.b22) * VC.b22 < 1e-3


@settings(max_examples=60, deadline=None)
@given(params_strategy, coupler_strategy)
def test_limit_patterns_hold_across_parameter_draws(p, vc):
    h = hybrid_matrix(p, vc)
    H0 = eval_h(h, 1e-4)
    assert abs(H0[0, 0]) <= 1e-6 * vc.k22
    assert abs(H0[0, 1] - 1.0) <= 1e-6
    assert abs(H0[1, 1]) * vc.b22 <= 1e-6
    # far above every plant corner the entries settle on the damping pattern
    Hi = eval_h(h, 1e8)
    assert abs(Hi[0, 0] - p.Bf) / p.Bf < 1e-3
    assert abs(Hi[0, 1]) < 1e-3
    assert abs(Hi[1, 1] - 1.0 / vc.b22) * vc.b22 < 1e-3


def test_entries_share_the_characteristic_denominator():
    h = hybrid_matrix(NOM, VC)
    cp = characteristic_polynomial(h.coeffs)
    assert h.h11.den.coeffs == cp.coeffs
    assert h.h12.den.coeffs == cp.coeffs


def test_zero_force_filter_inertia_degenerates_gracefully():
    p0 = dataclasses.replace(NOM, If=0.0)
    c0 = derive_coefficients(p0, VC)
    assert float(c0.a0) == 0.0
    h0 = hybrid_matrix(p0, VC)
    # the common s factor is cancelled so entries stay finite at dc
    assert float(h0.h11.den.coeffs[0]) > 0.0
    H = eval_h(h0, 1.0)
    assert all(np.isfinite(H).ravel())
