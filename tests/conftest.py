"""Shared fixtures: a seeded random corpus of plants/couplers with cached verdicts.

The corpus is drawn once per session and reused by the equivalence, hierarchy,
and one-port-consequence suites so the expensive exact checks run only once.
"""
from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from typing import Tuple

import numpy as np
import pytest

from oracle import plant_coefficients
from vcoupler.model import (
    SystemParams,
    VirtualCoupler,
    hybrid_matrix,
    nominal_params,
)
from vcoupler.passivity import (
    check_absolute_stability,
    check_sufficient_conditions,
    check_two_port_passivity,
    default_grid,
    two_port_grid_margins,
)
from vcoupler.perf import EnvironmentModel, transmitted_impedance
from vcoupler.stability import positive_real

CORPUS_SEED = 12345
CORPUS_SIZE = 500

PLANT_FIELDS = ("Kf", "Bf", "M", "B", "Pm", "Im", "Pf", "If")


def draw_plant(rng: np.random.Generator, spread: float = 0.3, **fixed) -> SystemParams:
    """One random plant: each physical field scaled by 10**U(-spread, spread)."""
    nom = nominal_params()
    kw = {f: getattr(nom, f) * 10.0 ** rng.uniform(-spread, spread) for f in PLANT_FIELDS}
    kw["alpha"] = float(rng.uniform(0.0, 1.0))
    kw.update(fixed)
    return SystemParams(**kw)


# plants that stress the integer kernel (model._plant_kernel), as fields
# replaced in the nominal plant: zero integral gains, no elastic damping,
# both alpha ends, magnitudes from 1e-300 to 1e300, subnormal inputs (the
# largest shift E) and int inputs
KERNEL_EDGES = [
    {"Im": 0.0}, {"If": 0.0}, {"Im": 0.0, "If": 0.0}, {"Bf": 0.0},
    {"alpha": 0.0}, {"alpha": 1.0}, {"Bf": 5e-324}, {"alpha": 5e-324},
    {"Kf": 1e300, "Pm": 1e30}, {"Pm": 1e-300, "Pf": 3e-310}, {"M": 1e-300, "B": 1e300},
    {"Kf": 1e200}, {"Im": 0.0, "If": 0.0, "alpha": 0.0, "Bf": 0.0},
    {"Kf": 362, "Im": 100, "If": 70, "Pf": 40, "alpha": 1},
]


def zero_gain_axis_family():
    """Plants with one zero integral gain and an exact imaginary-axis pole pair.

    A zero gain makes a0 = 0, so the Hurwitz margin is a1*(a2*a3 - a1*M)
    with a1, a2 and a3 free of M: M = a2*a3/a1 puts a pole pair on the axis
    whenever that Fraction is a float.
    """
    for Kf, Bf, B, Pm, Pf, gain, alpha, zero in itertools.product(
        (1.0, 2.0), (0.0, 0.5, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0),
        (0.0, 1.0), ("Im", "If"),
    ):
        kw = dict(Kf=Kf, Bf=Bf, M=1.0, B=B, Pm=Pm, Im=gain, Pf=Pf, If=gain, alpha=alpha)
        kw[zero] = 0.0
        c = plant_coefficients(SystemParams(**kw))
        M = c.a2 * c.a3 / c.a1
        if Fraction(float(M)) == M:
            yield SystemParams(**{**kw, "M": float(M)})


def draw_coupler(rng: np.random.Generator, Bf: float) -> VirtualCoupler:
    """One random coupler; b22 is drawn around the 4*Bf feasibility edge so the
    corpus contains a healthy mix of passing and failing instances."""
    k22 = 10.0 ** rng.uniform(1.5, 3.0)
    b22 = 4.0 * Bf * 10.0 ** rng.uniform(-0.8, 0.1)
    return VirtualCoupler(k22, b22)


@dataclasses.dataclass(frozen=True)
class CorpusInstance:
    params: SystemParams
    coupler: VirtualCoupler
    two_port: object       # PassivityReport
    absolute: object       # AbsoluteStabilityReport
    sufficient: object     # ConditionReport


@pytest.fixture(scope="session")
def corpus() -> Tuple[CorpusInstance, ...]:
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        p = draw_plant(rng)
        vc = draw_coupler(rng, p.Bf)
        out.append(
            CorpusInstance(
                params=p,
                coupler=vc,
                two_port=check_two_port_passivity(p, vc),
                absolute=check_absolute_stability(p, vc),
                sufficient=check_sufficient_conditions(p, vc),
            )
        )
    return tuple(out)


@pytest.fixture(scope="session")
def corpus_sampled_margins(corpus) -> Tuple[float, ...]:
    """Per-instance minimum of the normalized sampled real-part margins on the
    4000-point default grid (the frequency-sampling route of the real-part
    conditions, independent of the exact polynomial route)."""
    grid = default_grid(4000)
    mins = []
    for inst in corpus:
        m11, m22, mdet = two_port_grid_margins(inst.params, inst.coupler, grid)
        mins.append(
            min(float(np.nanmin(m11)), float(np.nanmin(m22)), float(np.nanmin(mdet)))
        )
    return tuple(mins)


ONE_PORT_ENVIRONMENTS = (
    EnvironmentModel("null", 0.0, 0.0),
    EnvironmentModel("spring", 50.0, 0.0),
    EnvironmentModel("spring", 200.0, 0.0),
    EnvironmentModel("voigt", 200.0, 0.05),
)


@pytest.fixture(scope="session")
def one_port_violations(corpus):
    """Positive-realness failures of the transmitted impedance across every
    passive corpus instance and every reference termination (expected empty)."""
    violations = []
    for idx, inst in enumerate(corpus):
        if not inst.two_port.overall:
            continue
        h = hybrid_matrix(inst.params, inst.coupler)
        for env in ONE_PORT_ENVIRONMENTS:
            verdict = positive_real(transmitted_impedance(h, env))
            if not verdict.passive:
                violations.append((idx, env.kind, env.Ke, env.Be, verdict))
    return tuple(violations)


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES: list = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
