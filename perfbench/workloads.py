"""The four seeded workloads of the vcoupler benchmark.

Each workload turns a seed into a pool of operations before any timing,
runs one operation through the public API of vcoupler, and checks the
output.  For DEFAULT_SEED the check compares against references stored in
refs/ (regenerate them with make_refs.py); for any other seed it checks
invariants that every correct output satisfies.  The cli workload runs a
fixed command set whose order alone depends on the seed, so its references
hold for every seed.

  design  one maximize_k22_over_alpha(criterion="passivity") per op; the
          table1.json plant first, then seeded plants near it
  screen  check_two_port_passivity + check_absolute_stability +
          check_sufficient_conditions on one random plant/coupler per op
  render  transmitted_impedance + positive_real for one passing instance and
          one reference termination per op
  cli     one in-process vcoupler.cli.main call per op on table1.json
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np

from vcoupler import cli
from vcoupler.model import SystemParams, VirtualCoupler, hybrid_matrix, load_config, nominal_params
from vcoupler.optimize import maximize_k22_over_alpha
from vcoupler.passivity import (
    check_absolute_stability,
    check_condition_a,
    check_condition_b,
    check_condition_c_i,
    check_condition_c_ii,
    check_sufficient_conditions,
    check_two_port_passivity,
)
from vcoupler.perf import EnvironmentModel, transmitted_impedance
from vcoupler.stability import positive_real

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "data" / "table1.json"
REFS = HERE / "refs"

DEFAULT_SEED = 1

PLANT_FIELDS = ("Kf", "Bf", "M", "B", "Pm", "Im", "Pf", "If")

# the one-port terminations of the render workload (null, springs, voigt)
ENVIRONMENTS = (
    EnvironmentModel("null", 0.0, 0.0),
    EnvironmentModel("spring", 50.0, 0.0),
    EnvironmentModel("spring", 200.0, 0.0),
    EnvironmentModel("voigt", 200.0, 0.05),
)

# the README command set, with sweeps over all three parameters, optimize
# under both criteria and bode of h11 and of each termination kind
CLI_COMMANDS = (
    ("check",),
    ("check", "--criterion", "absolute"),
    ("check", "--format", "json"),
    ("sweep", "--vary", "k22", "--range", "404:412:5"),
    ("sweep", "--vary", "alpha", "--range", "0:1:21"),
    ("sweep", "--vary", "b22", "--range", "0.05:0.2:16"),
    ("optimize",),
    ("optimize", "--criterion", "absolute", "--format", "json"),
    ("bode", "--target", "h11", "--grid", "1e-3:1e6:200"),
    ("bode", "--target", "zto:null", "--grid", "1e-4:1e2:100"),
    ("bode", "--target", "zto:spring:386", "--grid", "1e-4:1e2:100"),
    ("bode", "--target", "zto:damper:0.05", "--grid", "1e-4:1e2:100"),
    ("bode", "--target", "zto:voigt:200:0.05", "--grid", "1e-4:1e2:100"),
)


def draw_plant(rng: np.random.Generator, spread: float = 0.3) -> SystemParams:
    """Each physical field scaled by 10**U(-spread, spread); alpha ~ U(0, 1)."""
    nom = nominal_params()
    kw = {f: getattr(nom, f) * 10.0 ** rng.uniform(-spread, spread) for f in PLANT_FIELDS}
    kw["alpha"] = float(rng.uniform(0.0, 1.0))
    return SystemParams(**kw)


def draw_coupler(rng: np.random.Generator, Bf: float) -> VirtualCoupler:
    """k22 over [10**1.5, 10**3]; b22 around the 4*Bf feasibility edge."""
    k22 = 10.0 ** rng.uniform(1.5, 3.0)
    b22 = 4.0 * Bf * 10.0 ** rng.uniform(-0.8, 0.1)
    return VirtualCoupler(k22, b22)


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """A pool of operations drawn from a seed, and how to run and check one.

    The time loop runs `unit` consecutive operations as one indivisible
    step (a whole command cycle, all terminations of an instance), cycling
    through the pool.  References are read on the first check, so a pool
    can be built before they exist (see make_refs.py).
    """

    name = ""
    unit = 1
    # traced units per second of --seconds (fixes the traced op count)
    trace_units_per_s = 1.0
    # True when the stored references hold whatever the seed
    refs_every_seed = False

    def __init__(self, seed: int) -> None:
        self.ops: list = []
        self.expected: Optional[list] = None
        self.uses_refs = seed == DEFAULT_SEED or self.refs_every_seed

    def expected_outputs(self, refs: dict) -> list:
        """Reference digest of each pool entry, from the stored file."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def digest(self, op, out):
        """The part of an output that is compared with the reference."""
        raise NotImplementedError

    def invariant(self, op, out) -> Optional[str]:
        raise NotImplementedError

    def check(self, index: int, out) -> Optional[str]:
        """None if the output of pool entry `index` is correct, else why not."""
        op = self.ops[index]
        if not self.uses_refs:
            return self.invariant(op, out)
        if self.expected is None:
            self.expected = self.expected_outputs(load_refs(self.name))
        got = self.digest(op, out)
        if got != self.expected[index]:
            return f"op {index}: got {got!r}, reference {self.expected[index]!r}"
        return None

    def properties(self, done: list) -> dict:
        """Input properties of the operations run, from (pool index, output)."""
        return {}


class Design(Workload):
    name = "design"
    trace_units_per_s = 0.1
    POOL = 8
    SPREAD = 0.05

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        params, _ = load_config(CONFIG)
        rng = np.random.default_rng(seed)
        self.ops = [params]
        while len(self.ops) < self.POOL:
            p = draw_plant(rng, self.SPREAD)
            if all(c(p).passed for c in (check_condition_a, check_condition_b, check_condition_c_i)):
                self.ops.append(p)

    def expected_outputs(self, refs):
        return refs["optima"]

    def run(self, params):
        return maximize_k22_over_alpha(params, criterion="passivity")

    def digest(self, params, res):
        return [res.k22_max, res.b22_opt, res.alpha_opt]

    def invariant(self, params, res) -> Optional[str]:
        """The optimum must pass the exact two-port conditions.

        These are the conditions check_two_port_passivity decides; its
        sampled grid cross-check is left out because on a frontier optimum
        (t0 near 0) the float margin near omega = 1e-3 can dip below its
        -1e-7 tolerance and raise, which is a defect of that cross-check and
        not of the optimum.
        """
        p = params.replace(alpha=res.alpha_opt)
        vc = VirtualCoupler(res.k22_max, res.b22_opt)
        reports = (
            check_condition_a(p), check_condition_b(p),
            check_condition_c_i(p), check_condition_c_ii(p, vc),
        )
        failed = [r.name for r in reports if not r.passed]
        if res.k22_max <= 0 or failed:
            return f"optimum {self.digest(params, res)} fails {failed or 'k22 > 0'}"
        return None

    def properties(self, done):
        return {"infeasible_alpha": sum(k == 0.0 for _, res in done for _, _, k in res.trace)}


def _first_failure(rep) -> str:
    for c in (rep.condition_a, rep.condition_b, rep.condition_c_i, rep.condition_c_ii):
        if not c.passed:
            return f"{c.name}:{c.failing}"
    return ""


class Screen(Workload):
    name = "screen"
    trace_units_per_s = 25.0
    POOL = 2000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        for _ in range(self.POOL):
            p = draw_plant(rng)
            self.ops.append((p, draw_coupler(rng, p.Bf)))

    def expected_outputs(self, refs):
        return [refs["codes"][i] for i in refs["ops"]]

    def run(self, op):
        p, vc = op
        return (
            check_two_port_passivity(p, vc),
            check_absolute_stability(p, vc),
            check_sufficient_conditions(p, vc),
        )

    def digest(self, op, out):
        two, ab, suf = out
        conds = "/".join(
            f"{c.branch}:{c.failing}"
            for c in (two.condition_a, two.condition_b, two.condition_c_i, two.condition_c_ii)
        )
        return f"{two.overall} {conds} abs={ab.overall},{ab.llewellyn_ok} suf={suf.passed},{suf.failing}"

    def invariant(self, op, out) -> Optional[str]:
        """sufficient => two-port passive => absolutely stable."""
        two, ab, suf = out
        if suf.passed and not two.overall:
            return f"{op}: sufficient conditions pass but the two-port is not passive"
        if two.overall and not ab.overall:
            return f"{op}: two-port passive but not absolutely stable"
        return None

    def properties(self, done):
        verdicts = [out[0] for _, out in done]
        failing = Counter(_first_failure(two) for two in verdicts if not two.overall)
        return {
            "pass_share": sum(two.overall for two in verdicts) / max(len(verdicts), 1),
            "failing_mix": dict(sorted(failing.items())),
        }


def _rational_digest(rf) -> str:
    """Hash of an exact rational function, normalized to a monic denominator."""
    lead = rf.den.leading_coeff
    text = repr(([c / lead for c in rf.num.coeffs], [c / lead for c in rf.den.coeffs]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Render(Workload):
    name = "render"
    unit = len(ENVIRONMENTS)
    trace_units_per_s = 2.5
    INSTANCES = 120

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        hybrids = []
        while len(hybrids) < self.INSTANCES:
            p = draw_plant(rng)
            vc = draw_coupler(rng, p.Bf)
            if check_two_port_passivity(p, vc).overall:
                hybrids.append(hybrid_matrix(p, vc))
        self.ops = [(h, env) for h in hybrids for env in ENVIRONMENTS]

    def expected_outputs(self, refs):
        return refs["ops"]

    def run(self, op):
        h, env = op
        z = transmitted_impedance(h, env)
        return z, positive_real(z)

    def digest(self, op, out):
        z, verdict = out
        return f"{verdict.passive} {_rational_digest(z)}"

    def invariant(self, op, out) -> Optional[str]:
        """A passive two-port under a passive termination is positive-real."""
        _, verdict = out
        if not verdict.passive:
            h, env = op
            return f"{h.params} {h.coupler} under {env}: not positive-real"
        return None

    def properties(self, done):
        nulls = sum(self.ops[i][1].kind == "null" for i, _ in done)
        return {"null_env_share": nulls / max(len(done), 1)}


class Cli(Workload):
    name = "cli"
    unit = len(CLI_COMMANDS)
    trace_units_per_s = 0.5
    refs_every_seed = True
    CYCLES = 200

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        for _ in range(self.CYCLES):
            self.ops += [CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS))]

    def expected_outputs(self, refs):
        return [refs["commands"][" ".join(op)] for op in self.ops]

    def run(self, op):
        argv = [op[0], "--config", str(CONFIG), *op[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def digest(self, op, out):
        return list(out)


WORKLOADS = {w.name: w for w in (Design, Screen, Render, Cli)}
