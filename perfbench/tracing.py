"""Per-layer spans recorded from outside the library.

Tracer wraps public functions of the vcoupler modules.  install() puts each
wrapper in place of the name in every module loaded at construction that
holds it (the defining module and each module that imported it), so calls
are traced whichever module makes them; uninstall() puts the originals back.
Each span adds to its name's call count and inclusive time; self time is the
inclusive time minus the time of the spans nested directly inside it.

Counters that a span's return value carries (coefficient bit sizes,
optimizer evaluations) are gathered by per-target hooks.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path) of every traced public function
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("model", "derive_coefficients"),
    ("model", "hybrid_matrix"),
    ("poly", "cubic_nonneg_closed_form"),
    ("poly", "is_nonnegative_on"),
    ("poly", "sturm_sequence"),
    ("stability", "real_part_even_polynomial"),
    ("stability", "analyze_denominator"),
    ("stability", "positive_real"),
    ("stability", "RationalFunction.reduced"),
    ("passivity", "check_condition_a"),
    ("passivity", "check_condition_b"),
    ("passivity", "check_condition_c_i"),
    ("passivity", "check_condition_c_ii"),
    ("passivity", "check_two_port_passivity"),
    ("passivity", "check_absolute_stability"),
    ("passivity", "check_sufficient_conditions"),
    ("passivity", "k22_upper_bound"),
    ("passivity", "two_port_grid_margins"),
    ("passivity", "llewellyn_grid_margins"),
    ("perf", "transmitted_impedance"),
    ("perf", "frequency_response"),
    ("optimize", "maximize_k22"),
    ("optimize", "maximize_k22_over_alpha"),
    ("cli", "main"),
)

_COEFF_NAMES = ("r0", "r1", "r2", "r3", "t0", "t1", "t2", "t3")


def _resolve(module: str, path: str):
    """(owner object, attribute name) for 'vcoupler.<module>' and 'A.b' paths."""
    owner = sys.modules[f"vcoupler.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span aggregates keyed by '<module>.<function>'."""

    def __init__(self, targets=TARGETS) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.coeff_bits_max = 0
        self.evaluations = 0
        self._stack: List[List[float]] = []  # child seconds of each open span
        self._open: Dict[str, int] = {}  # open spans per name (recursion)
        # (holder, attribute, original, wrapper) for every place a target lives
        self._slots: List[Tuple[object, str, object, object]] = []
        hooks = {
            "model.derive_coefficients": self._on_coefficients,
            "optimize.maximize_k22": self._on_optimum,
        }
        for module, path in targets:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            name = f"{module}.{path}"
            wrapper = self._wrap(name, original, hooks.get(name))
            holders = [owner]
            if isinstance(owner, type(sys)):
                holders += [
                    m for m in list(sys.modules.values())
                    if m is not owner and getattr(m, "__dict__", {}).get(attr) is original
                ]
            self._slots += [(h, attr, original, wrapper) for h in holders]

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, open_ = self._stack, self._open
        open_[name] = 0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            open_[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[2] += elapsed - children[0]
                if not open_[name]:  # count recursion once in inclusive time
                    stats[1] += elapsed
            if hook is not None:
                hook(result)
            return result

        return span

    def _on_coefficients(self, c) -> None:
        for attr in _COEFF_NAMES:
            v = getattr(c, attr)
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    def _on_optimum(self, res) -> None:
        self.evaluations += len(res.trace)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place of every target, wherever it was imported."""
        for holder, attr, _, wrapper in self._slots:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._slots:
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.spans[name][0])

    def inclusive_s(self, name: str) -> float:
        return self.spans[name][1]
