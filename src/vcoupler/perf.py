"""Rendering-performance metrics for the coupled two-port.

The operator-side quality of a virtual environment rendered through the
coupler is summarized by three rational functions of the hybrid entries:

  h11                                impedance felt with a null environment
  z_width  = -h12*h21/h22            span of passively renderable impedance
  Z_to     = (h11 + dh*Ze)/(1 + h22*Ze),  dh = h11*h22 - h12*h21

where Ze is the terminating environment impedance.  All composition is done
on exact polynomial coefficients (never frequency-wise division) so the
results can be fed straight back into stability.positive_real.

Z_to is built in closed form.  With h21 = -1, dh = h11*h22 + h12 and

  Z_to = h11 + h12*Ze/(1 + h22*Ze) = (N11*Td + N12*Tn) / (D*Td),

where h11 = N11/D, h12 = N12/D, and with Ze = zn/zd and h22 = gn/gd,
Tn = zn*gd and Td = zd*gd + zn*gn.  h11 and h12 share the denominator D
because model.hybrid_matrix builds both over the characteristic quartic
and strips the same power of s from each: for every combination of zero
and positive integral gains (Im, If), N11 and N12 vanish at s = 0 at least
to the order D does, so the common s-factor removed is D's.  The result is
degree 6/6, against up to 16 for the generic composition
(h11 + dh*Ze)/(1 + h22*Ze), which tests/test_perf.py builds from the
entries' numerators and denominators as the oracle of this form.  No
composition here is gcd-reduced: a factor Ze shares with the coupler port
(a voigt with Ke*b22 = Be*k22) stays until stability.positive_real
cancels it.

The module also maps desired rendering parameters to the reference values
that compensate the coupler's series compliance: a desired stiffness Kd
rendered through coupler stiffness k22 needs the environment to simulate
Ke = k22*Kd/(k22 - Kd), and likewise for damping; both blow up as the
desired value approaches what the coupler can transmit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateTermination,
    DesiredExceedsCoupler,
    InvalidParams,
    PoleAtFrequency,
)
from .model import HybridMatrix, _is_number, _isfinite, _shown
from .poly import Polynomial, _witness_float
from .stability import RationalFunction

__all__ = [
    "EnvironmentModel",
    "TransparencyLimits",
    "transmitted_impedance",
    "z_width",
    "transparency_limits",
    "spring_reference",
    "voigt_reference",
    "frequency_response",
]

_KINDS = ("null", "spring", "damper", "voigt")


@dataclass(frozen=True)
class EnvironmentModel:
    """Terminating virtual environment with impedance Ze(s) = Ke/s + Be.

    kind selects which terms participate: "null" (Ze = 0), "spring" (Ke/s),
    "damper" (Be), or "voigt" (both).  Parameters not used by the kind must
    be zero, so a model's meaning is always readable from its fields.
    """

    kind: str
    Ke: float = 0.0
    Be: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParams(
                f"environment kind must be one of {_KINDS}, got {_shown(self.kind)}"
            )
        for name in ("Ke", "Be"):
            v = getattr(self, name)
            if not (_is_number(v) and _isfinite(v) and v >= 0):
                raise InvalidParams(f"{name} must be a nonnegative finite number, got {_shown(v)}")
        if self.kind in ("null", "damper") and self.Ke != 0:
            raise InvalidParams(f"{self.kind} environment cannot carry Ke = {self.Ke}")
        if self.kind in ("null", "spring") and self.Be != 0:
            raise InvalidParams(f"{self.kind} environment cannot carry Be = {self.Be}")

    def impedance(self) -> RationalFunction:
        """Ze as an exact rational function of s."""
        if self.kind == "null":
            return RationalFunction(Polynomial([]), Polynomial([1]))
        if self.kind == "damper":
            return RationalFunction(Polynomial([self.Be]), Polynomial([1]))
        return RationalFunction(Polynomial([self.Ke, self.Be]), Polynomial([0, 1]))


def z_width(h: HybridMatrix) -> RationalFunction:
    """Achievable impedance span -h12*h21/h22 (= h12/h22 since h21 = -1)."""
    return RationalFunction(h.h12.num * h.h22.den, h.h12.den * h.h22.num)


def transmitted_impedance(h: HybridMatrix, env: EnvironmentModel) -> RationalFunction:
    """Operator-side impedance with env on the far port.

    Built in closed form as (N11*Td + N12*Tn) / (D*Td) (see the module
    docstring) and returned as built, common factors included;
    stability.positive_real cancels them.  An identically zero Ze (the null
    environment, or any kind with zero parameters) returns h11 unchanged.
    Raises DegenerateTermination when 1 + h22*Ze vanishes identically.
    """
    ze, h11, h12, h22 = env.impedance(), h.h11, h.h12, h.h22
    if ze.num.is_zero:
        return h11
    tn = ze.num * h22.den
    td = ze.den * h22.den + ze.num * h22.num
    if td.is_zero:
        raise DegenerateTermination(
            "environment impedance cancels the coupler port: 1 + h22*Ze == 0"
        )
    return RationalFunction(h11.num * td + h12.num * tn, h11.den * td)


def _limit_at_zero(rf: RationalFunction) -> Optional[float]:
    """lim_{s->0} rf(s): None when the limit is infinite; a finite one beyond the
    float range clamps to signed infinity."""
    if rf.num.is_zero:
        return 0.0
    vn, vd = rf.num.valuation(), rf.den.valuation()
    if vn > vd:
        return 0.0
    if vn < vd:
        return None
    return _witness_float(rf.num.coeffs[vn] / rf.den.coeffs[vd])


def _limit_at_infinity(rf: RationalFunction) -> Optional[float]:
    """lim_{s->inf} rf(s): None when the limit is infinite; a finite one beyond the
    float range clamps to signed infinity."""
    if rf.num.is_zero:
        return 0.0
    dn, dd = rf.num.degree, rf.den.degree
    if dn < dd:
        return 0.0
    if dn > dd:
        return None
    return _witness_float(rf.num.coeffs[dn] / rf.den.coeffs[dd])


@dataclass(frozen=True)
class TransparencyLimits:
    """Exact limits of the hybrid entries at the ends of the frequency axis.

    low_exact and high_exact hold the limits of H as s -> 0 and s -> inf,
    each a ratio of extreme coefficients (NaN marks an unbounded entry).
    stiffness_dc is the limit of s*z_width as s -> 0, h12(0)*k22: the
    stiffness the coupler transmits, k22 itself whenever Im or If is
    positive.  min_damping_hf is the limit of h11 as s -> inf, the
    irreducible damping floor Bf.  Either is None when its limit is
    infinite.
    """

    low_exact: np.ndarray
    high_exact: np.ndarray
    stiffness_dc: Optional[float]
    min_damping_hf: Optional[float]


def transparency_limits(h: HybridMatrix) -> TransparencyLimits:
    """The exact frequency-extreme limits of H, from its coefficients.

    An ideally transparent render approaches [[0, 1], [-1, 0]] at low
    frequency; this drive approaches [[Bf, 0], [-1, 1/b22]] at high
    frequency (the exact matrices reproduce those patterns for any
    nondegenerate parameter set).
    """
    low, high = np.zeros((2, 2)), np.zeros((2, 2))
    for i, row in enumerate(h.entries()):
        for j, rf in enumerate(row):
            for exact, lim in ((low, _limit_at_zero(rf)), (high, _limit_at_infinity(rf))):
                exact[i, j] = math.nan if lim is None else lim
    zw = z_width(h)
    return TransparencyLimits(
        low_exact=low,
        high_exact=high,
        stiffness_dc=_limit_at_zero(RationalFunction(Polynomial([0, 1]) * zw.num, zw.den)),
        min_damping_hf=_limit_at_infinity(h.h11),
    )


def spring_reference(k22: float, Kd: float) -> float:
    """Environment stiffness that renders desired stiffness Kd through k22.

    The coupler spring and the environment spring act in series, so the
    environment must over-stiffen: Ke = k22*Kd/(k22 - Kd).  Raises
    DesiredExceedsCoupler when Kd >= k22 (the series pair saturates at
    k22 no matter how stiff the environment is made).
    """
    if not (_is_number(k22) and _isfinite(k22) and k22 > 0):
        raise InvalidParams(f"k22 must be positive and finite, got {_shown(k22)}")
    if not (_is_number(Kd) and _isfinite(Kd) and Kd >= 0):
        raise InvalidParams(f"Kd must be nonnegative and finite, got {_shown(Kd)}")
    if Kd >= k22:
        raise DesiredExceedsCoupler(
            f"desired stiffness {Kd} is not below the coupler stiffness {k22}"
        )
    return k22 * Kd / (k22 - Kd)


def voigt_reference(b22: float, Bd: float) -> float:
    """Environment damping that renders desired damping Bd through b22.

    Series counterpart of spring_reference: Be = b22*Bd/(b22 - Bd), with
    DesiredExceedsCoupler when Bd >= b22.
    """
    if not (_is_number(b22) and _isfinite(b22) and b22 > 0):
        raise InvalidParams(f"b22 must be positive and finite, got {_shown(b22)}")
    if not (_is_number(Bd) and _isfinite(Bd) and Bd >= 0):
        raise InvalidParams(f"Bd must be nonnegative and finite, got {_shown(Bd)}")
    if Bd >= b22:
        raise DesiredExceedsCoupler(
            f"desired damping {Bd} is not below the coupler damping {b22}"
        )
    return b22 * Bd / (b22 - Bd)


def frequency_response(
    rf: RationalFunction, omegas: np.ndarray
) -> List[Tuple[float, float, float]]:
    """(omega, magnitude dB, unwrapped phase deg) along an ascending grid.

    Raises PoleAtFrequency when a grid point lands exactly on a pole (its
    denominator sample is 0), and InvalidParams when a sample is not finite
    for any other reason: the response overflows double precision there.
    """
    w = np.asarray(omegas, dtype=float)
    if w.size == 0:
        return []
    if np.any(w <= 0) or np.any(~np.isfinite(w)):
        raise InvalidParams("frequency grid must be positive and finite")
    z = rf.eval_grid(w)
    bad = ~np.isfinite(z)
    if np.any(bad):
        # dividing by 1 keeps the denominator samples bit for bit
        pole = bad & (RationalFunction(rf.den, [1]).eval_grid(w) == 0)
        if np.any(pole):
            raise PoleAtFrequency(
                f"response has a pole at omega = {w[pole][0]:.6g} rad/s"
            )
        raise InvalidParams(
            f"response overflows double precision at omega = {w[bad][0]:.6g} rad/s"
        )
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(z))
    phase_deg = np.degrees(np.unwrap(np.angle(z)))
    return [(float(a), float(m), float(p)) for a, m, p in zip(w, mag_db, phase_deg)]
