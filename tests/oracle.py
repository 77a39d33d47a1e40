"""Oracles: the plant's Fraction formulas and loop equations, and a float residue test.

The library forms every plant polynomial once, on ints (model._plant_kernel).
The formulas below are the same quantities written out in Fractions, term by
term as the drive's algebra gives them, and loop_entries solves the control
loop's equations at one point s with no polynomial at all.  Tests compare
the library with both, exactly.

axis_residue_fault judges the residues at the imaginary-axis poles of a
one-port in floats, the generic route that the exact quartic residue
conditions and positive_real's Hurwitz test of num + den replace.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from vcoupler.model import SystemParams
from vcoupler.poly import Polynomial, _exact
from vcoupler.stability import ImaginaryAxisPair

# Relative tolerance of axis_residue_fault's float test of a real residue
_REL_TOL = 1e-9


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
    w2: Fraction
    w1: Fraction
    w0: Fraction


def plant_coefficients(params: SystemParams) -> PlantCoefficients:
    """The coupler-independent coefficients of the drive, as Fractions."""
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
        w2=M * M, w1=-tau2, w0=ia * ia,
    )


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


def _det3(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def loop_entries(params: SystemParams, s: Fraction) -> Tuple[Fraction, Fraction]:
    """(h11(s), h12(s)) from the drive's loop equations at one rational s != 0.

    With the elastic element Zf = Kf/s + Bf, the velocity controller
    Cv = Pm + Im/s and the force controller Cf = Pf + If/s, the operator
    force Fs, motor velocity vm and commanded velocity vd obey

        Fs = Zf*(vh - vm)
        (M*s + B + Cv)*vm = Cv*vd + alpha*Fs
        vd = Cf*(Fs - Fd)

    for the operator velocity vh and the environment force Fd.  Cramer's
    rule solves them for Fs in (Fs, vm, vd); h11 = dFs/dvh and h12 = dFs/dFd.
    """
    Kf, Bf, M, B = (Fraction(v) for v in (params.Kf, params.Bf, params.M, params.B))
    Pm, Im, Pf, If = (Fraction(v) for v in (params.Pm, params.Im, params.Pf, params.If))
    al = Fraction(params.alpha)
    Zf, Cv, Cf = Kf / s + Bf, Pm + Im / s, Pf + If / s
    rows = (
        (Fraction(1), Zf, Fraction(0)),
        (-al, M * s + B + Cv, -Cv),
        (-Cf, Fraction(0), Fraction(1)),
    )
    det = _det3(rows)

    def fs(vh: int, fd: int) -> Fraction:
        rhs = (Zf * vh, Fraction(0), -Cf * fd)
        return _det3([(r,) + row[1:] for r, row in zip(rhs, rows)]) / det

    return fs(1, 0), fs(0, 1)


def axis_residue_fault(
    num: Polynomial, den: Polynomial, pairs: Sequence[ImaginaryAxisPair]
) -> Optional[Tuple[str, float]]:
    """First imaginary-axis pole pair of num/den that breaks positive realness.

    Returns ("multiple-pole", omega) for a pair of multiplicity above one,
    ("residue", omega) for a simple pair whose residue num(j*omega) /
    den'(j*omega) is not real (within _REL_TOL of its modulus) and
    positive, and None when every pair passes.
    """
    slope = den.derivative()
    for pair in pairs:
        if pair.multiplicity > 1:
            return "multiple-pole", pair.omega
        s0 = 1j * pair.omega
        r = num.eval(s0) / slope.eval(s0)
        if not (abs(r.imag) <= _REL_TOL * (abs(r) + 1e-300) and r.real > 0):
            return "residue", pair.omega
    return None
