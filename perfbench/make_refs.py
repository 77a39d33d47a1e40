"""Regenerate the reference outputs in refs/ from the current vcoupler.

  PYTHONPATH=src python3 perfbench/make_refs.py [design screen render cli]

Runs every pool entry of each named workload (all four by default) for
DEFAULT_SEED, plus each cli command once, and writes refs/<workload>.json.
Do this only when a change of output is intended, and say why.
"""
from __future__ import annotations

import json
import sys

from vcoupler.passivity import _c_i_cached

from workloads import CLI_COMMANDS, DEFAULT_SEED, REFS, WORKLOADS


def digests(workload, ops) -> list:
    out = []
    for op in ops:
        _c_i_cached.cache_clear()
        out.append(workload.digest(op, workload.run(op)))
    return out


def make(name: str) -> dict:
    w = WORKLOADS[name](DEFAULT_SEED)
    if name == "cli":
        return {"commands": {" ".join(c): d for c, d in zip(CLI_COMMANDS, digests(w, CLI_COMMANDS))}}
    got = digests(w, w.ops)
    if name == "design":
        return {"seed": DEFAULT_SEED, "optima": got}
    if name == "screen":
        codes = sorted(set(got))
        return {"seed": DEFAULT_SEED, "codes": codes, "ops": [codes.index(d) for d in got]}
    return {"seed": DEFAULT_SEED, "ops": got}


def main(names) -> int:
    for name in names or list(WORKLOADS):
        refs = make(name)
        with open(REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
        print(f"wrote {REFS / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
