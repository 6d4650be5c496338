"""End-to-end code-generation pipeline helpers.

Gathers the pieces the evaluation section reports on:

* :class:`GenerationReport` — per-kernel generation/simplification latency
  (Table III) and index-expression operation counts before/after optimisation
  (Table IV);
* :func:`time_generation` — run a generator callable and capture its report;
* :func:`compare_expansion_strategies` — the Section IV-A ablation: simplify
  with and without pre-expansion and report both op counts (NW prefers the
  unexpanded form, LUD the expanded one).
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from ..symbolic import (
    CACHE_STATS,
    CostWeights,
    Expr,
    SymbolicEnv,
    expand,
    operation_count,
    simplify_fixpoint,
)

__all__ = ["GenerationReport", "time_generation", "compare_expansion_strategies"]


@dataclass
class GenerationReport:
    """Latency, op-count and cache-effectiveness summary for one generated kernel."""

    name: str
    generation_seconds: float
    original_ops: int
    optimized_ops: int
    details: dict[str, object] = field(default_factory=dict)
    #: cache-counter increments observed while the kernel was generated
    #: (simplify/fixpoint/proof/range/print hits, misses and hit rates plus
    #: per-rule application counts; see ``repro.symbolic.cache_statistics``)
    cache_stats: dict[str, object] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fractional reduction in index arithmetic (1.0 = everything removed)."""
        if self.original_ops == 0:
            return 0.0
        return 1.0 - self.optimized_ops / self.original_ops

    def cache_hit_rate(self, kind: str = "proof") -> float | None:
        """Hit rate of one memo layer (``simplify``/``fixpoint``/``proof``/``range``/``print``)."""
        value = self.cache_stats.get(f"{kind}_hit_rate")
        return value if isinstance(value, float) else None

    def row(self) -> tuple[str, float, int, int]:
        return (self.name, self.generation_seconds, self.original_ops, self.optimized_ops)


def time_generation(
    name: str,
    generator: Callable[[], object],
    require_bindings: bool = False,
) -> tuple[object, GenerationReport]:
    """Run ``generator`` and wrap its result in a :class:`GenerationReport`.

    The generator result may expose ``bindings`` (a mapping of
    :class:`repro.codegen.context.LoweredBinding`) — in that case the op
    counts are extracted automatically.  A result *without* usable bindings
    cannot report op counts; that raises when ``require_bindings`` is set and
    warns otherwise (the zeros in the report are "unknown", not "optimal").
    The report also carries the cache-counter increments observed during the
    run, so callers can see how much work the memo layers absorbed.
    """
    stats_before = CACHE_STATS.snapshot()
    started = time.perf_counter()
    result = generator()
    elapsed = time.perf_counter() - started
    stats_delta = CACHE_STATS.delta(stats_before, CACHE_STATS.snapshot())

    original_ops = 0
    optimized_ops = 0
    bindings = getattr(result, "bindings", None)
    if isinstance(bindings, Mapping):
        exprs = []
        for binding in bindings.values():
            original_ops += binding.raw_ops
            exprs.append(binding.expr)
        optimized_ops = operation_count(exprs)
    elif require_bindings:
        raise TypeError(
            f"time_generation({name!r}): generator result of type "
            f"{type(result).__name__} exposes no 'bindings' mapping, so op counts "
            "cannot be extracted"
        )
    else:
        warnings.warn(
            f"time_generation({name!r}): generator result exposes no 'bindings' "
            "mapping; reported op counts are 0 (unknown), not measured",
            stacklevel=2,
        )
    details: dict[str, object] = {}
    backend = getattr(result, "backend", "")
    if backend:
        details["backend"] = backend
    report = GenerationReport(
        name=name,
        generation_seconds=elapsed,
        original_ops=original_ops,
        optimized_ops=optimized_ops,
        details=details,
        cache_stats=stats_delta,
    )
    return result, report


def compare_expansion_strategies(
    expr: Expr,
    env: SymbolicEnv,
    weights: CostWeights | None = None,
) -> dict[str, int]:
    """Section IV-A ablation: op counts of the unexpanded vs expanded pipeline."""
    weights = weights or CostWeights()
    unexpanded = simplify_fixpoint(expr, env)
    expanded = simplify_fixpoint(expand(expr), env)
    return {
        "unexpanded": operation_count(unexpanded, weights),
        "expanded": operation_count(expanded, weights),
    }
