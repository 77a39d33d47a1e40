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

from conftest import KERNEL_EDGES, zero_gain_axis_family
from oracle import (
    characteristic_polynomial,
    h11_numerator_cubic,
    loop_entries,
    plant_coefficients,
    unreduced_entries,
)
from vcoupler import model
from vcoupler.errors import ConfigError, InvalidParams
from vcoupler.model import (
    SystemParams,
    VirtualCoupler,
    derive_coefficients,
    hybrid_matrix,
    load_config,
    nominal_coupler,
    nominal_params,
)
from vcoupler.perf import EnvironmentModel
from vcoupler.poly import Polynomial, _integer_vector
from vcoupler.stability import quartic_hurwitz

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


@pytest.mark.parametrize("field", ["Kf", "Bf", "alpha", "k22", "b22"])
def test_int_beyond_the_float_range_is_invalid(field):
    # math.isfinite raises OverflowError on it; the validators reject it instead
    with pytest.raises(InvalidParams, match=f"^{field} must .*, got 1000"):
        dataclasses.replace(VC if field in ("k22", "b22") else NOM, **{field: 10**400})


def test_load_config_rejects_an_int_beyond_the_float_range():
    cfg = json.load(open("table1.json"))
    for key in ("Kf", "k22"):
        message = f"^config key {key} must be a finite number, got 1000"
        with pytest.raises(ConfigError, match=message):
            load_config({**cfg, key: 10**400})


# repr raises ValueError for an int beyond Python's 4300-digit limit, so the
# messages show a stand-in
TOO_LONG = "<int too long to display>"


@pytest.mark.parametrize("field", ["Kf", "Bf", "alpha", "k22", "b22"])
def test_int_beyond_the_digit_limit_is_invalid(field):
    with pytest.raises(InvalidParams, match=f"^{field} must .*, got {TOO_LONG}$"):
        dataclasses.replace(VC if field in ("k22", "b22") else NOM, **{field: 10**5000})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dataclasses.replace(NOM, Kf=True), "Kf must be a positive finite number, got True"),
        (lambda: dataclasses.replace(NOM, If=False), "If must be a nonnegative finite number, got False"),
        (lambda: dataclasses.replace(NOM, alpha=True), r"alpha must lie in \[0, 1\], got True"),
        (lambda: VirtualCoupler(True, 0.17), "k22 must be a nonnegative finite number, got True"),
        (lambda: EnvironmentModel("spring", Ke=True), "Ke must be a nonnegative finite number, got True"),
    ],
    ids=["Kf", "If", "alpha", "k22", "Ke"],
)
def test_bool_is_not_a_number(build, message):
    # bool subclasses int, but the exact arithmetic behind every check rejects it
    with pytest.raises(InvalidParams, match=f"^{message}$"):
        build()


def test_load_config_rejects_an_int_beyond_the_digit_limit():
    cfg = json.load(open("table1.json"))
    for key in ("Kf", "k22"):
        message = f"^config key {key} must be a finite number, got {TOO_LONG}$"
        with pytest.raises(ConfigError, match=message):
            load_config({**cfg, key: 10**5000})
    message = "^config key Kf must be a number, got <list too long to display>$"
    with pytest.raises(ConfigError, match=message):
        load_config({**cfg, "Kf": [10**5000]})


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


def test_load_config_rejects_bad_values(tmp_path):
    cfg = json.load(open("table1.json"))
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must contain a JSON object"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="config key Kf must be a number, got True"):
        load_config({**cfg, "Kf": True})
    with pytest.raises(ConfigError, match="invalid coupler in <mapping>"):
        load_config({**cfg, "k22": -1.0})


def test_inertia_key_is_mapped_on_ingestion():
    cfg = json.load(open("table1.json"))
    params, _ = load_config(cfg)
    assert params.M == cfg["J"]


# ---------------------------------------------------------------------------
# derived coefficients
# ---------------------------------------------------------------------------


def test_aggregate_coefficients_frozen_values():
    c = derive_coefficients(NOM, VC)
    assert float(plant_coefficients(NOM).kappa1) == pytest.approx(3988.17, abs=0.01)
    assert float(c.a1) == pytest.approx(1455445.2, rel=1e-9)
    assert float(c.a0) == pytest.approx(2534000.0, rel=1e-12)
    assert float(c.r1) == pytest.approx(382266.0842, abs=0.001)
    assert float(c.r0) == pytest.approx(52262574948.0, rel=1e-9)


@pytest.mark.parametrize(
    "p, vc",
    [(NOM, VC), (dataclasses.replace(NOM, Im=0.0, alpha=0.3), VirtualCoupler(0.0, 0.2))],
)
def test_coupler_records_extend_the_plant_record(p, vc):
    # derive_coefficients reads the kernel; its plant fields are the Fraction
    # formulas' record, and t is formed from that record's r and w
    plant = plant_coefficients(p)
    c = derive_coefficients(p, vc)
    for name in ("a4", "a3", "a2", "a1", "a0", "r3", "r2", "r1", "r0", "w2", "w1", "w0"):
        assert getattr(c, name) == getattr(plant, name), name
    k22, b22 = Fraction(vc.k22), Fraction(vc.b22)
    r = (plant.r0, plant.r1, plant.r2, plant.r3)
    w = Polynomial([plant.w0, plant.w1, plant.w2])
    t = Polynomial([4 * b22 * x for x in r]) - Polynomial([k22 * k22, b22 * b22]) * w
    assert Polynomial([c.t0, c.t1, c.t2, c.t3]) == t


# ---------------------------------------------------------------------------
# the integer plant kernel against the Fraction record
# ---------------------------------------------------------------------------

def _assert_kernel_is_the_fraction_record(p: SystemParams) -> None:
    k = model._plant_kernel(p)
    c = plant_coefficients(p)
    # the hybrid entries, coefficient for coefficient: what grid margins,
    # render digests and every CLI byte read
    N11, N12, D = unreduced_entries(p, c)
    got = hybrid_matrix(p, VC)
    for entry, want in ((got.h11, model._cancel_s(N11, D)), (got.h12, model._cancel_s(N12, D))):
        assert entry.num.coeffs == want.num.coeffs and entry.den.coeffs == want.den.coeffs
    assert tuple(Fraction(b, 2 ** (2 * k.shift)) for b in k.n11) == h11_numerator_cubic(p)[::-1]
    assert Polynomial([Fraction(n, 2 ** (3 * k.shift)) for n in k.n12]) == N12
    assert k.n12[:2] == k.quartic[:2:-1]
    assert k.rw == _integer_vector((4 * c.r0, 4 * c.r1, 4 * c.r2, 4 * c.r3, c.w0, c.w1, c.w2))
    assert Fraction(k.rw[0], 2 ** k.rw_shift) == 4 * c.r0
    quartic = (c.a4, c.a3, c.a2, c.a1, c.a0)
    assert tuple(Fraction(a, 2 ** (3 * k.shift)) for a in k.quartic) == quartic
    assert Fraction(k.ia, 2 ** (2 * k.shift)) == (
        Fraction(p.Im) + Fraction(p.alpha) * Fraction(p.Kf)
    )
    margin = quartic_hurwitz(k.quartic).margin
    assert type(margin) is int
    assert Fraction(margin, 2 ** (9 * k.shift)) == quartic_hurwitz(quartic).margin


def test_kernel_is_the_fraction_record_on_the_corpus(corpus):
    for inst in corpus:
        _assert_kernel_is_the_fraction_record(inst.params)


@pytest.mark.parametrize("fields", KERNEL_EDGES, ids=[repr(f) for f in KERNEL_EDGES])
def test_kernel_is_the_fraction_record_on_edge_plants(fields):
    _assert_kernel_is_the_fraction_record(dataclasses.replace(NOM, **fields))


def test_kernel_shift_is_the_largest_input_denominator():
    assert model._plant_kernel(NOM.replace(Bf=5e-324)).shift == 1074
    ints = dict(Kf=362, Bf=1, M=2, B=1, Pm=3, Im=100, Pf=40, If=70, alpha=1)
    k = model._plant_kernel(SystemParams(**ints))
    assert k.shift == 0 and k.rw_shift == 0


@settings(max_examples=80, deadline=None)
@given(st.fixed_dictionaries({
    f: st.floats(5e-324, 1e300) if f in ("Kf", "M", "B", "Pm", "Pf")
    else st.one_of(st.just(0.0), st.floats(5e-324, 1e300))
    for f in ("Kf", "Bf", "M", "B", "Pm", "Im", "Pf", "If")
}), st.floats(0.0, 1.0))
def test_kernel_is_the_fraction_record_at_any_magnitude(fields, alpha):
    _assert_kernel_is_the_fraction_record(SystemParams(**fields, alpha=alpha))


@settings(max_examples=60, deadline=None)
@given(params_strategy, coupler_strategy)
def test_denominator_coefficients_positive_for_positive_inertias(p, vc):
    c = derive_coefficients(p, vc)
    for name in ("a4", "a3", "a2", "a1", "a0"):
        assert getattr(c, name) > 0


# ---------------------------------------------------------------------------
# hybrid two-port entries
# ---------------------------------------------------------------------------


# three rational points per plant, one of them negative, off the plants' poles
LOOP_POINTS = (Fraction(1, 3), Fraction(17, 5), Fraction(-5, 7))


def _assert_entries_solve_the_loop_equations(p: SystemParams) -> None:
    h = hybrid_matrix(p, VC)
    for s in LOOP_POINTS:
        got = tuple(rf.num.eval_exact(s) / rf.den.eval_exact(s) for rf in (h.h11, h.h12))
        assert got == loop_entries(p, s), (p, s)


def test_entries_solve_the_loop_equations_on_the_corpus(corpus):
    for inst in corpus:
        _assert_entries_solve_the_loop_equations(inst.params)


@pytest.mark.parametrize("fields", KERNEL_EDGES, ids=[repr(f) for f in KERNEL_EDGES])
def test_entries_solve_the_loop_equations_on_edge_plants(fields):
    _assert_entries_solve_the_loop_equations(dataclasses.replace(NOM, **fields))


def test_entries_solve_the_loop_equations_on_zero_gain_axis_plants():
    plants = list(zero_gain_axis_family())
    assert plants
    for p in plants:
        _assert_entries_solve_the_loop_equations(p)


def test_output_admittance_is_the_coupler_inverse():
    h = hybrid_matrix(NOM, VC)
    assert [float(x) for x in h.h22.num.coeffs] == [0.0, 1.0]
    assert [float(x) for x in h.h22.den.coeffs] == [408.0, 0.17]


def _sample(h, omega):
    """H(j*omega) as a 2x2 complex array, each entry evaluated directly."""
    return np.array([[rf.eval(1j * omega) for rf in row] for row in h.entries()])


def test_force_transfer_is_minus_one():
    assert hybrid_matrix(NOM, VC).h21.eval(12.3j) == -1.0 + 0.0j


def test_dc_limit_is_the_ideal_transparency_pattern():
    H = _sample(hybrid_matrix(NOM, VC), 1e-4)
    assert abs(H[0, 0]) <= 1e-6 * VC.k22
    assert abs(H[0, 1] - 1.0) <= 1e-6
    assert H[1, 0] == -1.0
    assert abs(H[1, 1]) * VC.b22 <= 1e-6


def test_high_frequency_limit_pattern():
    H = _sample(hybrid_matrix(NOM, VC), 1e7)
    assert abs(H[0, 0] - NOM.Bf) / NOM.Bf < 1e-3
    assert abs(H[0, 1]) < 1e-3
    assert abs(H[1, 1] - 1.0 / VC.b22) * VC.b22 < 1e-3


@settings(max_examples=60, deadline=None)
@given(params_strategy, coupler_strategy)
def test_limit_patterns_hold_across_parameter_draws(p, vc):
    h = hybrid_matrix(p, vc)
    H0 = _sample(h, 1e-4)
    assert abs(H0[0, 0]) <= 1e-6 * vc.k22
    assert abs(H0[0, 1] - 1.0) <= 1e-6
    assert abs(H0[1, 1]) * vc.b22 <= 1e-6
    # far above every plant corner the entries settle on the damping pattern
    Hi = _sample(h, 1e8)
    assert abs(Hi[0, 0] - p.Bf) / p.Bf < 1e-3
    assert abs(Hi[0, 1]) < 1e-3
    assert abs(Hi[1, 1] - 1.0 / vc.b22) * vc.b22 < 1e-3


def test_entries_share_the_characteristic_denominator():
    h = hybrid_matrix(NOM, VC)
    cp = characteristic_polynomial(plant_coefficients(NOM))
    assert h.h11.den.coeffs == cp.coeffs
    assert h.h12.den.coeffs == cp.coeffs


def test_zero_force_filter_inertia_degenerates_gracefully():
    p0 = dataclasses.replace(NOM, If=0.0)
    c0 = derive_coefficients(p0, VC)
    assert float(c0.a0) == 0.0
    h0 = hybrid_matrix(p0, VC)
    # the common s factor is cancelled so entries stay finite at dc
    assert float(h0.h11.den.coeffs[0]) > 0.0
    H = _sample(h0, 1.0)
    assert all(np.isfinite(H).ravel())
