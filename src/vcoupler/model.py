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

whose entries share a quartic characteristic denominator.  Each plant
quantity has one formula, in the integer kernel _plant_kernel: the quartic,
the numerators of h11 and h12, and the real-part vector (4*r, w), as ints
over powers of two.  The Fraction coefficients of hybrid_matrix and
derive_coefficients are those ints over their powers of two, so they are
exact.  H is sampled entry by entry (RationalFunction.eval and eval_grid);
where its poles lie is decided exactly in stability and passivity, never
by a float tolerance here.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

from .errors import ConfigError, InvalidParams
from .poly import Polynomial, _exact
from .stability import RationalFunction

__all__ = [
    "SystemParams",
    "VirtualCoupler",
    "DerivedCoefficients",
    "HybridMatrix",
    "nominal_params",
    "nominal_coupler",
    "derive_coefficients",
    "hybrid_matrix",
    "load_config",
]


def _is_number(v) -> bool:
    """An int or float, and not a bool (which the exact arithmetic rejects)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _isfinite(v) -> bool:
    """math.isfinite(v), but False instead of OverflowError for an int beyond the float range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _shown(v) -> str:
    """repr(v) for an error message, or a stand-in where repr raises (ints beyond 4300 digits)."""
    try:
        return repr(v)
    except ValueError:
        return f"<{type(v).__name__} too long to display>"


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
            if not (_is_number(v) and _isfinite(v) and v > 0):
                raise InvalidParams(f"{name} must be a positive finite number, got {_shown(v)}")
        for name in ("Bf", "Im", "If"):
            v = getattr(self, name)
            if not (_is_number(v) and _isfinite(v) and v >= 0):
                raise InvalidParams(f"{name} must be a nonnegative finite number, got {_shown(v)}")
        a = self.alpha
        if not (_is_number(a) and 0 <= a <= 1):
            raise InvalidParams(f"alpha must lie in [0, 1], got {_shown(a)}")

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
            if not (_is_number(v) and _isfinite(v) and v >= 0):
                raise InvalidParams(f"{name} must be a nonnegative finite number, got {_shown(v)}")
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
class DerivedCoefficients:
    """A plant/coupler pair's coefficients as Fractions: a view of _plant_kernel.

    a4..a0  characteristic quartic of the drive (denominator of h11, h12)
    r3..r0  cubic deciding Re h11 >= 0 (driving-point real part, x = omega**2)
    w2..w0  quadratic with |N12 - D|**2 (j*omega) = x**2 * w(x)
    t3..t0  cubic deciding the two-port real-part determinant condition,
            t = 4*b22*r - (k22**2 + b22**2*x)*w
    """

    a4: Fraction
    a3: Fraction
    a2: Fraction
    a1: Fraction
    a0: Fraction
    r3: Fraction
    r2: Fraction
    r1: Fraction
    r0: Fraction
    w2: Fraction
    w1: Fraction
    w0: Fraction
    t3: Fraction
    t2: Fraction
    t1: Fraction
    t0: Fraction


@dataclass(frozen=True)
class _PlantKernel:
    """One plant's coefficients as Python ints, formed with no Fraction.

    shift     E: every input is an int over 2**E (see _plant_kernel)
    quartic   (a4, a3, a2, a1, a0) times 2**(3*E): the common denominator D
    n11       (b0, b1, b2, b3) times 2**(2*E): h11's numerator over s
    n12       h12's numerator, lowest first, times 2**(3*E); its two low
              coefficients are the quartic's a0 and a1
    ia        Im + alpha*Kf, times 2**(2*E)
    rw        L*(4*r0, 4*r1, 4*r2, 4*r3, w0, w1, w2) for the positive lcm L
              of their denominators, a power of two
    rw_shift  log2(L)
    """

    shift: int
    quartic: Tuple[int, int, int, int, int]
    n11: Tuple[int, int, int, int]
    n12: Tuple[int, int, int, int]
    ia: int
    rw: Tuple[int, ...]
    rw_shift: int


def _plant_kernel(params: SystemParams) -> _PlantKernel:
    """The plant's polynomials, rw and Im + alpha*Kf on ints.

    Every input is a binary float or an int, so it is an int over 2**E,
    with E the largest denominator exponent of the nine inputs.  With
    s = Im*Pf + If*Pm (that is, Pm*Pf*(Im/Pm + If/Pf)) every coefficient is
    a polynomial in the inputs with no division.  A product of two values
    of degrees i and j is an int over 2**((i + j)*E), and a sum first shifts
    each term left by E per degree it lacks, so a degree-d coefficient is
    an int over 2**(d*E).  rw is aligned at degree 5 and shifted right by
    the fewest trailing zeros among its entries (at most 5*E), which leaves
    the lcm scale of its Fractions' denominators.
    """
    ratios = [
        v.as_integer_ratio()
        for v in (params.Kf, params.Bf, params.M, params.B, params.Pm,
                  params.Im, params.Pf, params.If, params.alpha)
    ]
    E = max(d.bit_length() for _, d in ratios) - 1
    Kf, Bf, M, B, Pm, Im, Pf, If, al = (n << (E + 1 - d.bit_length()) for n, d in ratios)

    # each value's degree, the power of 2**E below it, follows its name
    BP = B + Pm  # 1
    PP = Pm * Pf  # 2
    ap = (al << E) + PP  # 2: alpha + Pm*Pf
    s = Im * Pf + If * Pm  # 2
    ia = (Im << E) + al * Kf  # 2
    kappa1 = Pf * Im - B * If  # 2
    kappa3 = ap * BP - M * s  # 3
    c = (BP << E) + al * Bf  # 2: B + Pm + alpha*Bf
    tau2 = ((M * ia) << (E + 1)) - c * c  # 4
    a1 = Bf * Im * If + Kf * s  # 3
    a0 = Kf * Im * If  # 3
    quartic = (  # 3 each
        M << 2 * E,
        (BP << 2 * E) + Bf * ap,
        (Im << 2 * E) + Kf * ap + Bf * s,
        a1,
        a0,
    )
    n11 = (Kf * Im, Bf * Im + Kf * BP, Bf * BP + Kf * M, Bf * M)  # 2 each
    n12 = (a0, a1, PP * Kf + Bf * s, Bf * PP)  # 3 each
    r3 = Bf * M * M  # 3
    r2 = Bf * (((BP * BP - 2 * Im * M) << 2 * E) + Bf * kappa3)  # 5
    r1 = Kf * Kf * kappa3 + ((Bf * Im * Im) << 2 * E) + Bf * Bf * Im * kappa1  # 5
    r0 = Im * Kf * Kf * kappa1  # 5

    v = (4 * r0, 4 * r1, 4 * r2, (4 * r3) << 2 * E, (ia * ia) << E, -tau2 << E, (M * M) << 3 * E)
    low = v[0] | v[1] | v[2] | v[3] | v[4] | v[5] | v[6]  # nonzero: M*M > 0
    trim = min((low & -low).bit_length() - 1, 5 * E)
    return _PlantKernel(
        shift=E, quartic=quartic, n11=n11, n12=n12, ia=ia,
        rw=tuple(x >> trim for x in v), rw_shift=5 * E - trim,
    )


def derive_coefficients(
    params: SystemParams, coupler: VirtualCoupler
) -> DerivedCoefficients:
    """The kernel's quartic, r and w over their powers of two, and t, as Fractions.

    The checkers in passivity decide the (c-ii) cubic on the plant's integer
    vector instead; tests read this record as their Fraction oracle.
    """
    k = _plant_kernel(params)
    a4, a3, a2, a1, a0 = (Fraction(a, 1 << 3 * k.shift) for a in k.quartic)
    r0, r1, r2, r3 = (Fraction(x, 4 << k.rw_shift) for x in k.rw[:4])
    w0, w1, w2 = (Fraction(x, 1 << k.rw_shift) for x in k.rw[4:])
    k22, b22 = _exact(coupler.k22), _exact(coupler.b22)
    K, b4, bb = k22 * k22, 4 * b22, b22 * b22

    # t = 4*b22*r - (k22**2 + b22**2*x)*w, coefficient by coefficient
    return DerivedCoefficients(
        a4=a4, a3=a3, a2=a2, a1=a1, a0=a0,
        r3=r3, r2=r2, r1=r1, r0=r0,
        w2=w2, w1=w1, w0=w0,
        t3=b4 * r3 - bb * w2,
        t2=b4 * r2 - K * w2 - bb * w1,
        t1=b4 * r1 - K * w1 - bb * w0,
        t0=b4 * r0 - K * w0,
    )


@dataclass(frozen=True)
class HybridMatrix:
    """Hybrid two-port of the coupled system: [F_h, v_e] = H [v_h, F_e].

    h11 and h12 share the characteristic quartic denominator (after any
    common s-factor cancellation for degenerate integral gains); h21 is
    identically -1 (unilateral velocity command); h22 is the coupler
    one-port s/(b22*s + k22).
    """

    h11: RationalFunction
    h12: RationalFunction
    h21: RationalFunction
    h22: RationalFunction
    params: SystemParams
    coupler: VirtualCoupler

    def entries(self) -> Tuple[Tuple[RationalFunction, ...], ...]:
        return ((self.h11, self.h12), (self.h21, self.h22))


def _cancel_s(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Cancel the common trailing s-factor of a num/den pair."""
    k = min(num.valuation(), den.valuation()) if not num.is_zero else den.valuation()
    if k:
        return RationalFunction(num.shift_down(k), den.shift_down(k))
    return RationalFunction(num, den)


def _plant_entries(k: _PlantKernel) -> Tuple[RationalFunction, RationalFunction]:
    """The s-cancelled h11 and h12 over the quartic, each kernel int over its power of two.

    Degenerate integral gains (Im == 0 or If == 0) put common s-factors into
    numerator and denominator; those are cancelled exactly so the entries
    have no removable singularity at s = 0.
    """
    d2, d3 = 1 << 2 * k.shift, 1 << 3 * k.shift
    den = Polynomial([Fraction(a, d3) for a in reversed(k.quartic)])
    n11 = Polynomial([0] + [Fraction(b, d2) for b in k.n11])
    n12 = Polynomial([Fraction(n, d3) for n in k.n12])
    return _cancel_s(n11, den), _cancel_s(n12, den)


def _coupler_port(coupler: VirtualCoupler) -> RationalFunction:
    """h22 = s/(b22*s + k22), the coupler one-port."""
    k22, b22 = _exact(coupler.k22), _exact(coupler.b22)
    return _cancel_s(Polynomial([0, 1]), Polynomial([k22, b22]))


def hybrid_matrix(params: SystemParams, coupler: VirtualCoupler) -> HybridMatrix:
    """Build the hybrid two-port for a plant/coupler pair (h11, h12 by _plant_entries)."""
    h11, h12 = _plant_entries(_plant_kernel(params))
    return HybridMatrix(
        h11=h11,
        h12=h12,
        h21=RationalFunction([-1], [1]),
        h22=_coupler_port(coupler),
        params=params,
        coupler=coupler,
    )


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
        except ValueError as exc:  # also an int literal beyond Python's digit limit
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
        if not _is_number(v):
            raise ConfigError(f"config key {k} must be a number, got {_shown(v)}")
        if isinstance(v, int) and not _isfinite(v):
            raise ConfigError(f"config key {k} must be a finite number, got {_shown(v)}")

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
