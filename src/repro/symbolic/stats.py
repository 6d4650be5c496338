"""Cache-hit accounting for the symbolic engine, as registry instruments.

The hash-consed IR (:mod:`repro.symbolic.expr`) enables identity-keyed
memoisation throughout the stack: the rewrite engine, the fixpoint driver, the
prover, the range analysis, ``Expr.subs`` and the code printers share one
process-wide table (:mod:`.memo`).  Their hit/miss counters, the table's
resets and every rewrite rule's applications are :class:`~repro.obs.metrics.
Counter` s on :data:`repro.obs.REGISTRY`, named ``repro.symbolic.cache.<field>``
(rules: ``repro.symbolic.cache.rule_applications.<rule>``); the intern table's
size, the memo table's size and its fact tokens are callback gauges under the
same prefix (registered by :mod:`.expr` and :mod:`.memo`).

Counters never reset: a caller that wants the counts of a window takes
``REGISTRY.delta`` of two :func:`cache_statistics` snapshots, as
:func:`repro.codegen.time_generation` does.  Increments are locked, so the
counts are exact under threads.
"""

from __future__ import annotations

from ..obs.metrics import REGISTRY, Counter

__all__ = ["CACHE_PREFIX", "cache_statistics", "rule_counter"]

#: the name prefix of every symbolic cache instrument
CACHE_PREFIX = "repro.symbolic.cache."

SIMPLIFY_HITS = REGISTRY.counter(CACHE_PREFIX + "simplify_hits")
SIMPLIFY_MISSES = REGISTRY.counter(CACHE_PREFIX + "simplify_misses")
FIXPOINT_HITS = REGISTRY.counter(CACHE_PREFIX + "fixpoint_hits")
FIXPOINT_MISSES = REGISTRY.counter(CACHE_PREFIX + "fixpoint_misses")
PROOF_HITS = REGISTRY.counter(CACHE_PREFIX + "proof_hits")
PROOF_MISSES = REGISTRY.counter(CACHE_PREFIX + "proof_misses")
RANGE_HITS = REGISTRY.counter(CACHE_PREFIX + "range_hits")
RANGE_MISSES = REGISTRY.counter(CACHE_PREFIX + "range_misses")
PRINT_HITS = REGISTRY.counter(CACHE_PREFIX + "print_hits")
PRINT_MISSES = REGISTRY.counter(CACHE_PREFIX + "print_misses")
SUBS_HITS = REGISTRY.counter(CACHE_PREFIX + "subs_hits")
SUBS_MISSES = REGISTRY.counter(CACHE_PREFIX + "subs_misses")
#: times the memo table was emptied (its cap, or ``clear_memos()``)
MEMO_RESETS = REGISTRY.counter(CACHE_PREFIX + "memo_resets")


def rule_counter(name: str) -> Counter:
    """The application counter of one rewrite rule or prover outcome; its
    caller holds it, so an application is one increment."""
    return REGISTRY.counter(f"{CACHE_PREFIX}rule_applications.{name}")


def cache_statistics() -> dict[str, float]:
    """Snapshot of every symbolic cache counter and gauge (full registry keys)."""
    return REGISTRY.snapshot(CACHE_PREFIX)
