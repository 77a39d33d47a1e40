"""Rendering-performance measures: impedance range, transparency, terminations."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from vcoupler.errors import (
    DegenerateTermination,
    DesiredExceedsCoupler,
    InvalidParams,
    PoleAtFrequency,
)
from vcoupler.model import VirtualCoupler, hybrid_matrix, nominal_coupler, nominal_params
from vcoupler.perf import (
    EnvironmentModel,
    frequency_response,
    spring_reference,
    transmitted_impedance,
    transparency_limits,
    voigt_reference,
    z_min,
    z_width,
)
from vcoupler.stability import RationalFunction, positive_real

NOM = nominal_params()
VC = nominal_coupler()
H = hybrid_matrix(NOM, VC)

NULL = EnvironmentModel("null", 0.0, 0.0)


# ---------------------------------------------------------------------------
# environment models
# ---------------------------------------------------------------------------


def test_environment_validation():
    EnvironmentModel("spring", 200.0, 0.0)
    EnvironmentModel("damper", 0.0, 0.3)
    EnvironmentModel("voigt", 200.0, 0.05)
    with pytest.raises(InvalidParams):
        EnvironmentModel("null", 1.0, 0.0)       # free motion carries no stiffness
    with pytest.raises(InvalidParams):
        EnvironmentModel("spring", 200.0, 0.1)   # cross terms must be zero
    with pytest.raises(InvalidParams):
        EnvironmentModel("damper", 1.0, 0.3)
    with pytest.raises(InvalidParams):
        EnvironmentModel("spring", -5.0, 0.0)
    with pytest.raises(InvalidParams):
        EnvironmentModel("gel", 1.0, 1.0)


def test_environment_impedances():
    s = 2.0j
    assert EnvironmentModel("null", 0.0, 0.0).impedance().eval(s) == 0.0
    assert EnvironmentModel("damper", 0.0, 0.3).impedance().eval(s) == pytest.approx(0.3)
    assert EnvironmentModel("spring", 8.0, 0.0).impedance().eval(s) == pytest.approx(8.0 / s)
    assert EnvironmentModel("voigt", 8.0, 0.3).impedance().eval(s) == pytest.approx(
        8.0 / s + 0.3
    )


# ---------------------------------------------------------------------------
# impedance range of the rendered one-port
# ---------------------------------------------------------------------------


def test_minimum_impedance_is_the_input_impedance():
    zm = z_min(H)
    assert zm.num.coeffs == H.h11.num.coeffs
    assert zm.den.coeffs == H.h11.den.coeffs


def test_free_motion_termination_collapses_to_the_minimum():
    zt = transmitted_impedance(H, NULL)
    assert zt.num.coeffs == z_min(H).num.coeffs
    assert zt.den.coeffs == z_min(H).den.coeffs


def test_impedance_range_expansion_frozen_coefficients():
    # reduced dynamic-range transfer function for the bundled parameter set
    zw = z_width(H).reduced()
    num = [float(c) for c in zw.num.coeffs]
    den = [float(c) for c in zw.den.coeffs]
    assert num == pytest.approx(
        [1033872000.0, 594252421.6, 1983620.724, 951.8946, 0.0952], rel=1e-9
    )
    assert den == pytest.approx(
        [0.0, 2534000.0, 1455445.2, 4717.38, 1.059, 0.0006399], rel=1e-9
    )


def test_impedance_range_stiffness_at_dc():
    # s * z_width tends to the coupler stiffness at low frequency
    zw = z_width(H)
    w = 1e-4
    val = abs(1j * w * zw.eval(1j * w))
    assert val == pytest.approx(VC.k22, rel=1e-3)


def test_impedance_range_composes_the_output_port():
    # against an independent frequency-wise composition -h12*h21/h22
    zw = z_width(H)
    for w in (1e-2, 1.0, 35.0, 2.0e3):
        s = 1j * w
        direct = -H.h12.eval(s) * (-1.0) / H.h22.eval(s)
        assert zw.eval(s) == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# transparency limits
# ---------------------------------------------------------------------------


def test_transparency_limits_nominal():
    t = transparency_limits(H)
    assert t.low_converged and t.high_converged
    assert np.allclose(t.low_exact, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    assert np.allclose(t.high_exact, [[0.05, 0.0], [-1.0, 1.0 / 0.17]], rtol=1e-12)
    assert np.allclose(t.low_freq, t.low_exact, atol=1e-3)
    assert np.allclose(t.high_freq, t.high_exact, atol=1e-3 * (1.0 / 0.17))
    assert t.stiffness_dc == pytest.approx(VC.k22, rel=1e-3)
    assert t.min_damping_hf == pytest.approx(NOM.Bf, rel=1e-3)


def test_transparency_limits_react_to_the_coupler():
    h2 = hybrid_matrix(NOM, VirtualCoupler(415.0, 0.15))
    t = transparency_limits(h2)
    assert t.stiffness_dc == pytest.approx(415.0, rel=1e-3)
    assert t.high_exact[1][1] == pytest.approx(1.0 / 0.15, rel=1e-12)
    assert t.min_damping_hf == pytest.approx(0.05, rel=1e-3)


def test_transparency_convergence_flags_detect_a_short_horizon():
    t = transparency_limits(H, omega_low=1.0, omega_high=1e3, rtol=1e-6)
    assert not (t.low_converged and t.high_converged)


# ---------------------------------------------------------------------------
# reference-environment mappings for spring and damper rendering
# ---------------------------------------------------------------------------


def test_spring_reference_is_the_series_inverse():
    for k22, Kd in ((408.0, 200.0), (415.0, 200.0), (408.0, 50.0), (500.0, 350.0)):
        Ke = spring_reference(k22, Kd)
        assert 1.0 / (1.0 / k22 + 1.0 / Ke) == pytest.approx(Kd, rel=1e-12)
    assert spring_reference(415.0, 200.0) == pytest.approx(83000.0 / 215.0, rel=1e-12)


def test_voigt_reference_is_the_series_inverse():
    for b22, Bd in ((0.17, 0.05), (0.15, 0.1), (0.3, 0.29)):
        Be = voigt_reference(b22, Bd)
        assert 1.0 / (1.0 / b22 + 1.0 / Be) == pytest.approx(Bd, rel=1e-12)


def test_reference_mappings_reject_unreachable_targets():
    with pytest.raises(DesiredExceedsCoupler):
        spring_reference(400.0, 400.0)
    with pytest.raises(DesiredExceedsCoupler):
        spring_reference(400.0, 401.0)
    with pytest.raises(DesiredExceedsCoupler):
        voigt_reference(0.17, 0.17)
    with pytest.raises(InvalidParams):
        spring_reference(-1.0, 0.5)
    with pytest.raises(InvalidParams):
        voigt_reference(0.17, -0.05)
    with pytest.raises(InvalidParams):
        spring_reference(0.0, 0.0)


def test_rendered_spring_matches_the_requested_stiffness():
    # terminate with the mapped reference spring and read the stiffness back
    for Kd in (50.0, 200.0, 350.0):
        env = EnvironmentModel("spring", spring_reference(VC.k22, Kd), 0.0)
        zt = transmitted_impedance(H, env)
        w = 1e-3
        rendered = abs(1j * w * zt.eval(1j * w))
        assert rendered == pytest.approx(Kd, rel=0.02)


# ---------------------------------------------------------------------------
# transmitted impedance: composition and positive-realness consequence
# ---------------------------------------------------------------------------


def test_transmitted_impedance_matches_frequency_wise_composition():
    for env in (
        EnvironmentModel("spring", 386.0, 0.0),
        EnvironmentModel("damper", 0.0, 0.4),
        EnvironmentModel("voigt", 200.0, 0.05),
    ):
        zt = transmitted_impedance(H, env)
        ze = env.impedance()
        for w in (1e-2, 1.0, 40.0, 1e3):
            s = 1j * w
            h11, h12, h22 = H.h11.eval(s), H.h12.eval(s), H.h22.eval(s)
            det = h11 * h22 - h12 * (-1.0)
            expected = (h11 + det * ze.eval(s)) / (1.0 + h22 * ze.eval(s))
            assert zt.eval(s) == pytest.approx(expected, rel=1e-9)


_PLANTS = {
    "nominal": NOM,
    "Im=0": NOM.replace(Im=0.0),
    "If=0": NOM.replace(If=0.0),
    "Im=If=0": NOM.replace(Im=0.0, If=0.0),
}
_COUPLERS = {
    "nominal": VC,
    "k22=0": VirtualCoupler(k22=0.0, b22=VC.b22),
    "b22=0": VirtualCoupler(k22=VC.k22, b22=0.0),
}
_TERMINATIONS = (
    EnvironmentModel("spring", 200.0, 0.0),
    EnvironmentModel("damper", 0.0, 0.3),
    EnvironmentModel("voigt", 200.0, 0.05),
)


def _generic_transmitted_impedance(h, env) -> RationalFunction:
    """(h11 + dh*Ze) / (1 + h22*Ze), dh = h11*h22 - h12*h21, composed generically."""
    ze = env.impedance()
    one = RationalFunction([1], [1])
    dh = h.h11 * h.h22 - h.h12 * h.h21
    return ((h.h11 + dh * ze) / (one + h.h22 * ze)).reduced()


def _monic(rf: RationalFunction):
    lead = rf.den.leading_coeff
    return [c / lead for c in rf.num.coeffs], [c / lead for c in rf.den.coeffs]


@pytest.mark.parametrize("plant", sorted(_PLANTS))
def test_h11_and_h12_share_their_denominator(plant):
    h = hybrid_matrix(_PLANTS[plant], VC)
    assert h.h11.den == h.h12.den


@pytest.mark.parametrize("coupler", sorted(_COUPLERS))
@pytest.mark.parametrize("plant", sorted(_PLANTS))
def test_closed_form_transmitted_impedance_equals_generic_composition(plant, coupler):
    h = hybrid_matrix(_PLANTS[plant], _COUPLERS[coupler])
    for env in _TERMINATIONS:
        closed = transmitted_impedance(h, env)
        assert _monic(closed) == _monic(_generic_transmitted_impedance(h, env)), env


def test_transmitted_impedance_is_positive_real_at_passive_points():
    for env in (NULL, EnvironmentModel("spring", 200.0, 0.0),
                EnvironmentModel("voigt", 200.0, 0.05)):
        assert positive_real(transmitted_impedance(H, env)).passive


def test_one_port_consequence_over_the_corpus(one_port_violations):
    assert one_port_violations == ()


def test_degenerate_termination_is_reported():
    # an output admittance exactly inverse to the environment impedance
    # annihilates the feedback denominator
    ze = EnvironmentModel("spring", 10.0, 0.0)
    broken = dataclasses.replace(H, h22=RationalFunction([0.0, -1.0], [10.0]))
    with pytest.raises(DegenerateTermination):
        transmitted_impedance(broken, ze)


# ---------------------------------------------------------------------------
# frequency responses
# ---------------------------------------------------------------------------


def test_frequency_response_of_elementary_sections():
    out = frequency_response(RationalFunction([0.0, 1.0], [1.0]), np.array([0.5, 1.0, 10.0]))
    mags = [m for _, m, _ in out]
    phases = [ph for _, _, ph in out]
    assert mags[1] == pytest.approx(0.0, abs=1e-9)          # |jw| at w=1
    assert mags[2] == pytest.approx(20.0, abs=1e-9)         # +20 dB/decade
    assert phases == pytest.approx([90.0, 90.0, 90.0], abs=1e-9)

    out = frequency_response(RationalFunction([1.0], [0.0, 1.0]), np.array([1.0, 10.0]))
    assert out[0][1] == pytest.approx(0.0, abs=1e-9)
    assert out[1][1] == pytest.approx(-20.0, abs=1e-9)
    assert out[0][2] == pytest.approx(-90.0, abs=1e-9)


def test_input_impedance_magnitude_settles_at_the_elastic_damping():
    out = frequency_response(H.h11, np.array([1e6]))
    assert out[0][1] == pytest.approx(20.0 * math.log10(0.05), abs=0.05)


def test_phase_is_unwrapped_along_the_grid():
    omegas = np.logspace(-3, 6, 500)
    phases = np.array([ph for _, _, ph in frequency_response(H.h12, omegas)])
    assert np.max(np.abs(np.diff(phases))) < 180.0


def test_frequency_response_rejects_nonpositive_grids():
    with pytest.raises(InvalidParams):
        frequency_response(H.h11, np.array([0.0, 1.0]))
    with pytest.raises(InvalidParams):
        frequency_response(H.h11, np.array([-2.0]))


def test_evaluation_on_a_pole_is_reported():
    resonator = RationalFunction([0.0, 1.0], [1.0, 0.0, 1.0])  # s/(s^2+1)
    with pytest.raises(PoleAtFrequency):
        frequency_response(resonator, np.array([0.5, 1.0, 2.0]))


def test_overflow_is_not_reported_as_a_pole():
    with pytest.raises(InvalidParams, match="overflows double precision at omega = 1e\\+200"):
        frequency_response(H.h11, np.array([1e200, 1e300]))
