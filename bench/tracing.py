"""Layer tracing for the benchmark's traced run.

The layers are the modules of ``eqidx``.  The tracer wraps their public
functions from the outside, so the program's source stays unchanged: a
module-level function is rebound in every ``eqidx`` module that imported it
(``mora_local`` lives in both ``eqidx.standard_basis`` and
``eqidx.equiv_index``, ``index_report`` in ``eqidx.generator`` and
``eqidx.cli``), and a method is replaced on its class.  Busy time and call
counts are accumulated at these boundaries.  All work is single-threaded
and no layer waits on another, so a layer reports time busy and counts only.
A layer's self time excludes the wrapped calls it makes into other layers:
``cli.self_s`` covers loading, validating and emitting, while polynomial
parsing counts to ``poly``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

# Public entry points of each layer.  "Class.method" names are patched on the
# class; plain names are module functions.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "generator": ("random_action", "random_invariant_form", "random_case", "random_shear"),
    "equiv_index": (
        "index_report",
        "hom_index",
        "radial_index",
        "reduced_radial_index",
        "st_sum",
        "equivariant_pullback",
        "conservation_check",
        "global_index_character",
        "local_index_at_point",
    ),
    "standard_basis": ("mora_local", "buchberger_global", "quotient_basis", "normal_form"),
    "rep_rings": (
        "divisors",
        "reduce_to_rep",
        "induce",
        "restrict_rep",
        "integer_determinant",
        "RepRingElement.__add__",
        "RepRingElement.__sub__",
        "RepRingElement.__mul__",
        "RepRingElement.__rmul__",
        "BurnsideElement.__add__",
        "BurnsideElement.__sub__",
        "BurnsideElement.__mul__",
        "BurnsideElement.__rmul__",
    ),
    "poly": ("parse_polynomial", "Polynomial.compose"),
}

# Private routes of the local engine.  They are wrapped only while they
# exist, so a change that deletes a route leaves its counters at zero
# instead of breaking the benchmark.
OPTIONAL_ROUTES = ("_rescued_local", "_capped_local", "_homogenized_local")

MORA = "standard_basis.mora_local"
RESCUE = "standard_basis._rescued_local"
CAPPED = "standard_basis._capped_local"
LIFT = "standard_basis._homogenized_local"
BUCHBERGER = "standard_basis.buchberger_global"
QUOTIENT = "standard_basis.quotient_basis"
INDEX_REPORT = "equiv_index.index_report"

# Every metric the traced run reports, with its unit.  Per-case figures are
# divided by ``trace.cases``, the number of traced case runs.
PER_LAYER_UNITS: dict[str, str] = {
    "standard_basis.mora_local.calls": "count/case",
    "standard_basis.mora_local.s": "s/case",
    "standard_basis.route.rescue_ratio": "ratio",
    "standard_basis.route.direct_wasted_s": "s/case",
    "standard_basis.route.capped.calls": "count/case",
    "standard_basis.route.capped.s": "s/case",
    "standard_basis.route.capped.max_cap": "degree",
    "standard_basis.route.lift.calls": "count/case",
    "standard_basis.route.lift.s": "s/case",
    "standard_basis.buchberger_global.calls": "count/case",
    "standard_basis.buchberger_global.s": "s/case",
    "standard_basis.quotient_basis.s": "s/case",
    "standard_basis.quotient_basis.monomials": "count/case",
    "poly.parse_polynomial.s": "s/case",
    "poly.compose.s": "s/case",
    "equiv_index.self_s": "s/case",
    "equiv_index.local_bases_per_report": "count/report",
    "rep_rings.s": "s/case",
    "generator.self_s": "s/case",
    "generator.index_calls_per_case": "count/case",
    "generator.accept_ratio": "ratio",
    "cli.self_s": "s/case",
    "trace.overhead_frac": "ratio",
    "trace.cases": "count",
}


@dataclass
class _Span:
    name: str
    layer: str
    start: float
    parent: "_Span | None"
    child_s: float = 0.0
    rescued: bool = False
    from_generator: bool = False


class Tracer:
    """Wraps the layers of ``eqidx`` and accumulates per-layer counters."""

    def __init__(self) -> None:
        self._plan: list[tuple[Any, str, Any, Callable]] = []
        self._stack: list[_Span] = []
        self.calls: Counter[str] = Counter()
        self.inclusive_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.rescued_calls = 0
        self.direct_wasted_s = 0.0
        self.max_cap = 0
        self.quotient_monomials = 0
        self.bases_in_reports = 0
        self.generator_index_calls = 0
        self.generator_accepted = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point in every loaded ``eqidx`` module."""
        if not self._plan:
            self._plan = self._rebindings()
        for owner, attr, _, traced in self._plan:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def _rebindings(self) -> list[tuple[Any, str, Any, Callable]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "eqidx" or name.startswith("eqidx.")
        ]
        basis = sys.modules["eqidx.standard_basis"]
        wanted = [(layer, name) for layer, names in LAYERS.items() for name in names]
        wanted += [("standard_basis", name) for name in OPTIONAL_ROUTES if hasattr(basis, name)]
        plan = []
        for layer, name in wanted:
            home = sys.modules[f"eqidx.{layer}"]
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                plan.append((cls, attr, original, self._traced(original, f"{layer}.{name}", layer)))
                continue
            original = getattr(home, name)
            traced = self._traced(original, f"{layer}.{name}", layer)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        plan.append((mod, attr, original, traced))
        return plan

    def _traced(self, fn: Callable, name: str, layer: str) -> Callable:
        enter = self._enter
        leave = self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name, layer, args, kwargs)
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                leave(span, ok, result)

        return traced

    # -- calls --------------------------------------------------------------

    def begin_case(self) -> None:
        """Start a case; calls left open by an abandoned case are dropped."""
        self._stack.clear()

    def _enter(self, name: str, layer: str, args: tuple, kwargs: dict) -> _Span:
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, layer, time.perf_counter(), parent)
        self.calls[name] += 1
        if name == RESCUE:
            # The enclosing direct Mora run tripped a budget: its time so far
            # was spent before the rescue took over.
            for outer in reversed(self._stack):
                if outer.name == MORA:
                    outer.rescued = True
                    self.direct_wasted_s += span.start - outer.start
                    break
        elif name == CAPPED:
            cap = args[1] if len(args) > 1 else kwargs.get("cap", 0)
            self.max_cap = max(self.max_cap, cap)
        elif name == MORA:
            if any(s.name == INDEX_REPORT for s in self._stack):
                self.bases_in_reports += 1
        elif name == INDEX_REPORT and parent is not None and parent.layer == "generator":
            span.from_generator = True
            self.generator_index_calls += 1
        self._stack.append(span)
        return span

    def _leave(self, span: _Span, ok: bool, result: Any) -> None:
        duration = time.perf_counter() - span.start
        if not self._stack or self._stack[-1] is not span:
            return
        self._stack.pop()
        self.self_s[span.layer] += duration - span.child_s
        if span.parent is not None:
            span.parent.child_s += duration
        if not any(s.name == span.name for s in self._stack):
            self.inclusive_s[span.name] += duration
        if span.rescued:
            self.rescued_calls += 1
        if ok and span.name == QUOTIENT:
            self.quotient_monomials += result.dimension
        if ok and span.from_generator:
            self.generator_accepted += 1

    # -- metrics ------------------------------------------------------------

    def metrics(self, cases: int) -> dict[str, float]:
        """Per-layer figures for a traced pass of ``cases`` cases."""
        cases = max(cases, 1)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "standard_basis.mora_local.calls": self.calls[MORA] / cases,
            "standard_basis.mora_local.s": self.inclusive_s[MORA] / cases,
            "standard_basis.route.rescue_ratio": ratio(self.rescued_calls, self.calls[MORA]),
            "standard_basis.route.direct_wasted_s": self.direct_wasted_s / cases,
            "standard_basis.route.capped.calls": self.calls[CAPPED] / cases,
            "standard_basis.route.capped.s": self.inclusive_s[CAPPED] / cases,
            "standard_basis.route.capped.max_cap": self.max_cap,
            "standard_basis.route.lift.calls": self.calls[LIFT] / cases,
            "standard_basis.route.lift.s": self.inclusive_s[LIFT] / cases,
            "standard_basis.buchberger_global.calls": self.calls[BUCHBERGER] / cases,
            "standard_basis.buchberger_global.s": self.inclusive_s[BUCHBERGER] / cases,
            "standard_basis.quotient_basis.s": self.inclusive_s[QUOTIENT] / cases,
            "standard_basis.quotient_basis.monomials": self.quotient_monomials / cases,
            "poly.parse_polynomial.s": self.inclusive_s["poly.parse_polynomial"] / cases,
            "poly.compose.s": self.inclusive_s["poly.Polynomial.compose"] / cases,
            "equiv_index.self_s": self.self_s["equiv_index"] / cases,
            "equiv_index.local_bases_per_report": ratio(
                self.bases_in_reports, self.calls[INDEX_REPORT]
            ),
            "rep_rings.s": self.self_s["rep_rings"] / cases,
            "generator.self_s": self.self_s["generator"] / cases,
            "generator.index_calls_per_case": self.generator_index_calls / cases,
            "generator.accept_ratio": ratio(
                self.generator_accepted, self.generator_index_calls
            ),
            "cli.self_s": self.self_s["cli"] / cases,
        }
