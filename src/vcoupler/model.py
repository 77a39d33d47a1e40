"""Physical model: drive parameters, derived coefficients, hybrid two-port.

The plant is a motor-side inertia driven through a damped elastic element
(series stiffness Kf with parallel damping Bf) under cascaded velocity
control: an outer impedance/admittance loop with gains (Pm, Im) on the motor
velocity and an inner force loop with gains (Pf, If), plus a feedforward
blend 0 <= alpha <= 1 of the commanded force.  The operator port is closed
through a virtual coupler, a spring-damper pair (k22, b22) between the
commanded and rendered motion.

Everything downstream works on the hybrid two-port

    [F_h, v_e]^T = H(s) [v_h, F_e]^T,

whose entries share a quartic characteristic denominator.  Coefficients are
derived in exact rational arithmetic so independent reconstructions of the
same quantity can be compared with zero tolerance.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError, InvalidParams, PoleAtFrequency
from .poly import Polynomial, _exact
from .stability import RationalFunction

__all__ = [
    "SystemParams",
    "VirtualCoupler",
    "PlantCoefficients",
    "DerivedCoefficients",
    "HybridMatrix",
    "nominal_params",
    "nominal_coupler",
    "plant_coefficients",
    "coupler_coefficients",
    "derive_coefficients",
    "hybrid_matrix",
    "eval_h",
    "load_config",
]


@dataclass(frozen=True)
class SystemParams:
    """Drive-side parameters.

    Kf, Bf   series elastic stiffness and its parallel damping
    M        reflected motor-side inertia
    B        motor-side viscous damping
    Pm, Im   outer velocity-loop proportional and integral gains
    Pf, If   inner force-loop proportional and integral gains
    alpha    force feedforward blend in [0, 1]
    """

    Kf: float
    Bf: float
    M: float
    B: float
    Pm: float
    Im: float
    Pf: float
    If: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("Kf", "M", "B", "Pm", "Pf"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidParams(f"{name} must be a positive finite number, got {v!r}")
        for name in ("Bf", "Im", "If"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise InvalidParams(f"{name} must be a nonnegative finite number, got {v!r}")
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a) and 0 <= a <= 1):
            raise InvalidParams(f"alpha must lie in [0, 1], got {a!r}")

    # params.replace(alpha=a): a copy, validated again by __post_init__
    replace = dataclasses.replace


@dataclass(frozen=True)
class VirtualCoupler:
    """Virtual coupler spring-damper (k22, b22); its one-port is s/(b22*s + k22)."""

    k22: float
    b22: float

    def __post_init__(self) -> None:
        for name in ("k22", "b22"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise InvalidParams(f"{name} must be a nonnegative finite number, got {v!r}")
        if self.k22 == 0 and self.b22 == 0:
            raise InvalidParams("coupler must have k22 > 0 or b22 > 0")


def nominal_params() -> SystemParams:
    """The register of nominal drive parameters shipped in table1.json."""
    return SystemParams(
        Kf=362.0, Bf=0.05, M=6.399e-4, B=0.169,
        Pm=0.28, Im=100.0, Pf=40.0, If=70.0, alpha=1.0,
    )


def nominal_coupler() -> VirtualCoupler:
    """Nominal coupler shipped in table1.json (near the passivity optimum)."""
    return VirtualCoupler(k22=408.0, b22=0.17)


@dataclass(frozen=True)
class PlantCoefficients:
    """Exact coefficients of the drive, independent of the virtual coupler.

    a4..a0  characteristic quartic of the drive (denominator of h11, h12)
    mu, nu  integral-to-proportional gain ratios Im/Pm and If/Pf
    kappa1  Pf*Im - B*If        (force/velocity integral balance)
    kappa2  B + Pm - M*(mu+nu)
    kappa3  alpha*(B+Pm) + Pm*Pf*kappa2
    tau2    2*M*(Im + alpha*Kf) - (B + Pm + alpha*Bf)**2
    r3..r0  cubic deciding Re h11 >= 0 (driving-point real part, x = omega**2)
    Bf4     4*Bf
    w2..w0  quadratic w(x) = M**2 x^2 - tau2 x + (Im + alpha*Kf)**2 with
            |N12 - D|**2 (j*omega) = x**2 * w(x)

    The coupler enters the determinant cubic only through
    t = 4*b22*r - (k22**2 + b22**2*x)*w.  All values are Fractions derived
    exactly from the (binary) float inputs.
    """

    a4: Fraction
    a3: Fraction
    a2: Fraction
    a1: Fraction
    a0: Fraction
    mu: Fraction
    nu: Fraction
    kappa1: Fraction
    kappa2: Fraction
    kappa3: Fraction
    tau2: Fraction
    r3: Fraction
    r2: Fraction
    r1: Fraction
    r0: Fraction
    Bf4: Fraction
    w2: Fraction
    w1: Fraction
    w0: Fraction


@dataclass(frozen=True)
class DerivedCoefficients(PlantCoefficients):
    """A plant's coefficients plus those of one coupler (k22, b22).

    tau1    4*Bf - b22
    t3..t0  cubic deciding the two-port real-part determinant condition
    """

    tau1: Fraction
    t3: Fraction
    t2: Fraction
    t1: Fraction
    t0: Fraction


def plant_coefficients(params: SystemParams) -> PlantCoefficients:
    """The coupler-independent part of derive_coefficients."""
    Kf, Bf, M = _exact(params.Kf), _exact(params.Bf), _exact(params.M)
    B, Pm, Im = _exact(params.B), _exact(params.Pm), _exact(params.Im)
    Pf, If, al = _exact(params.Pf), _exact(params.If), _exact(params.alpha)

    mu = Im / Pm
    nu = If / Pf
    ap = al + Pm * Pf  # effective feedthrough of the force loop

    a4 = M
    a3 = B + Pm + Bf * ap
    a2 = Im + Kf * ap + Bf * Pm * Pf * (mu + nu)
    a1 = Bf * Im * If + Kf * Pm * Pf * (mu + nu)
    a0 = Kf * Im * If

    kappa1 = Pf * Im - B * If
    kappa2 = B + Pm - M * (mu + nu)
    kappa3 = al * (B + Pm) + Pm * Pf * kappa2
    ia = Im + al * Kf
    tau2 = 2 * M * ia - (B + Pm + al * Bf) ** 2

    r3 = Bf * M * M
    r2 = Bf * ((B + Pm) ** 2 + Bf * kappa3 - 2 * Im * M)
    r1 = Kf * Kf * kappa3 + Bf * Im * Im + Bf * Bf * Im * kappa1
    r0 = Im * Kf * Kf * kappa1

    return PlantCoefficients(
        a4=a4, a3=a3, a2=a2, a1=a1, a0=a0,
        mu=mu, nu=nu,
        kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
        tau2=tau2,
        r3=r3, r2=r2, r1=r1, r0=r0,
        Bf4=4 * Bf, w2=M * M, w1=-tau2, w0=ia * ia,
    )


def coupler_coefficients(
    plant: PlantCoefficients, coupler: VirtualCoupler
) -> DerivedCoefficients:
    """Combine a plant's coefficients with a coupler (k22, b22)."""
    p = plant
    k22, b22 = _exact(coupler.k22), _exact(coupler.b22)
    K, b4, bb = k22 * k22, 4 * b22, b22 * b22

    # t = 4*b22*r - (k22**2 + b22**2*x)*w, coefficient by coefficient
    return DerivedCoefficients(
        **vars(p),
        tau1=p.Bf4 - b22,
        t3=b4 * p.r3 - bb * p.w2,
        t2=b4 * p.r2 - K * p.w2 - bb * p.w1,
        t1=b4 * p.r1 - K * p.w1 - bb * p.w0,
        t0=b4 * p.r0 - K * p.w0,
    )


def derive_coefficients(
    params: SystemParams, coupler: VirtualCoupler
) -> DerivedCoefficients:
    """Exact derived coefficients for a plant/coupler pair."""
    return coupler_coefficients(plant_coefficients(params), coupler)


@dataclass(frozen=True)
class HybridMatrix:
    """Hybrid two-port of the coupled system: [F_h, v_e] = H [v_h, F_e].

    h11 and h12 share the characteristic quartic denominator (after any
    common s-factor cancellation for degenerate integral gains); h21 is
    identically -1 (unilateral velocity command); h22 is the coupler
    one-port s/(b22*s + k22).  coeffs is the plant's coefficient record.
    """

    h11: RationalFunction
    h12: RationalFunction
    h21: RationalFunction
    h22: RationalFunction
    params: SystemParams
    coupler: VirtualCoupler
    coeffs: PlantCoefficients

    def entries(self) -> Tuple[Tuple[RationalFunction, ...], ...]:
        return ((self.h11, self.h12), (self.h21, self.h22))


def _cancel_s(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Cancel the common trailing s-factor of a num/den pair."""
    k = min(num.valuation(), den.valuation()) if not num.is_zero else den.valuation()
    if k:
        return RationalFunction(num.shift_down(k), den.shift_down(k))
    return RationalFunction(num, den)


def characteristic_polynomial(c: PlantCoefficients) -> Polynomial:
    """The quartic a4*s^4 + a3*s^3 + a2*s^2 + a1*s + a0 (lowest first)."""
    return Polynomial([c.a0, c.a1, c.a2, c.a3, c.a4])


def h11_numerator_cubic(params: SystemParams) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """(b3, b2, b1, b0) of the cubic factor: numerator of h11 = s * cubic."""
    Kf, Bf, M = _exact(params.Kf), _exact(params.Bf), _exact(params.M)
    B, Pm, Im = _exact(params.B), _exact(params.Pm), _exact(params.Im)
    b3 = Bf * M
    b2 = Bf * (B + Pm) + Kf * M
    b1 = Bf * Im + Kf * (B + Pm)
    b0 = Kf * Im
    return b3, b2, b1, b0


def unreduced_entries(
    params: SystemParams, c: PlantCoefficients
) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """(N11, N12, D): numerators of h11, h12 and their common quartic, uncancelled."""
    Kf, Bf = _exact(params.Kf), _exact(params.Bf)
    Im, If = _exact(params.Im), _exact(params.If)
    pp = _exact(params.Pm) * _exact(params.Pf)
    b3, b2, b1, b0 = h11_numerator_cubic(params)
    n11 = Polynomial([0, b0, b1, b2, b3])  # s * cubic
    n12 = Polynomial([
        Kf * Im * If,
        Bf * Im * If + Kf * pp * (c.mu + c.nu),
        pp * (Kf + Bf * (c.mu + c.nu)),
        Bf * pp,
    ])
    return n11, n12, characteristic_polynomial(c)


def _coupler_port(coupler: VirtualCoupler) -> RationalFunction:
    """h22 = s/(b22*s + k22), the coupler one-port."""
    k22, b22 = _exact(coupler.k22), _exact(coupler.b22)
    return _cancel_s(Polynomial([0, 1]), Polynomial([k22, b22]))


def hybrid_matrix(params: SystemParams, coupler: VirtualCoupler) -> HybridMatrix:
    """Build the hybrid two-port for a plant/coupler pair.

    Degenerate integral gains (Im == 0 or If == 0) put common s-factors into
    numerator and denominator of h11/h12; those are cancelled exactly so the
    returned entries have no removable singularity at s = 0.
    """
    plant = plant_coefficients(params)
    n11, n12, den = unreduced_entries(params, plant)
    return HybridMatrix(
        h11=_cancel_s(n11, den),
        h12=_cancel_s(n12, den),
        h21=RationalFunction([-1], [1]),
        h22=_coupler_port(coupler),
        params=params,
        coupler=coupler,
        coeffs=plant,
    )


def _den_magnitude_scale(den: Polynomial, omega: float) -> float:
    """Sum_i |c_i| * omega**i: the natural magnitude scale of den at |s| = omega."""
    w = abs(float(omega))
    acc = 0.0
    power = 1.0
    for cf in den.coeffs:
        acc += abs(float(cf)) * power
        power *= w
    return acc


def eval_h(h: HybridMatrix, omega: float) -> np.ndarray:
    """Evaluate H(j*omega) as a 2x2 complex array.

    Raises PoleAtFrequency when any entry's denominator vanishes at j*omega
    to within 1e-9 of its coefficient magnitude scale.
    """
    s = 1j * float(omega)
    out = np.empty((2, 2), dtype=complex)
    for (i, j), rf in (((0, 0), h.h11), ((0, 1), h.h12), ((1, 0), h.h21), ((1, 1), h.h22)):
        dv = rf.den.eval(s)
        scale = _den_magnitude_scale(rf.den, omega)
        if abs(dv) <= 1e-9 * scale:
            raise PoleAtFrequency(
                f"h{i+1}{j+1} has a pole at omega = {omega!r} rad/s"
            )
        out[i, j] = rf.num.eval(s) / dv
    return out


# --------------------------------------------------------------------------
# configuration


_REQUIRED_KEYS = ("Kf", "Bf", "J", "B", "Pm", "Im", "Pf", "If")
_OPTIONAL_KEYS = ("alpha", "k22", "b22")


def load_config(
    source: Union[str, Path, Mapping]
) -> Tuple[SystemParams, Optional[VirtualCoupler]]:
    """Parse a parameter mapping or JSON file into params and optional coupler.

    Required keys: Kf, Bf, J (inertia, mapped to M), B, Pm, Im, Pf, If.
    Optional: alpha (default 1.0), and k22/b22 (which must appear together).
    Unknown keys and non-numeric values are rejected.
    """
    if isinstance(source, Mapping):
        data = dict(source)
        origin = "<mapping>"
    else:
        path = Path(source)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        origin = str(path)

    unknown = set(data) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys in {origin}: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ConfigError(f"missing config keys in {origin}: {missing}")
    for k, v in data.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"config key {k} must be a number, got {v!r}")

    try:
        params = SystemParams(
            Kf=float(data["Kf"]), Bf=float(data["Bf"]), M=float(data["J"]),
            B=float(data["B"]), Pm=float(data["Pm"]), Im=float(data["Im"]),
            Pf=float(data["Pf"]), If=float(data["If"]),
            alpha=float(data.get("alpha", 1.0)),
        )
    except InvalidParams as exc:
        raise ConfigError(f"invalid parameters in {origin}: {exc}") from exc

    has_k, has_b = "k22" in data, "b22" in data
    if has_k != has_b:
        raise ConfigError(f"{origin}: k22 and b22 must be given together")
    coupler = None
    if has_k:
        try:
            coupler = VirtualCoupler(k22=float(data["k22"]), b22=float(data["b22"]))
        except InvalidParams as exc:
            raise ConfigError(f"invalid coupler in {origin}: {exc}") from exc
    return params, coupler
