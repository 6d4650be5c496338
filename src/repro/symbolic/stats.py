"""Cache-hit accounting for the symbolic engine.

The hash-consed IR (:mod:`repro.symbolic.expr`) enables identity-keyed
memoisation throughout the stack: the rewrite engine, the fixpoint driver, the
prover and the range analysis share one process-wide table (:mod:`.memo`), the
code printers keep per-instance caches.  This module centralises their
hit/miss counters (and the table's size, tokens and resets) so the
code-generation pipeline can report cache effectiveness (:class:`repro.codegen.
pipeline.GenerationReport`) and the cache benchmark can assert hit rates.

Counters are process-global and monotonically increasing; callers that want
a delta snapshot the counters before and after (see
:func:`CacheCounters.snapshot` and :func:`CacheCounters.delta`).

Concurrency: the counters are diagnostics, not control flow, so increments
are deliberately unlocked — under free-threaded contention an increment can
occasionally be lost, which keeps the symbolic hot path free of a global
lock.  Exact accounting under threads lives where it is load-bearing: the
compilation service's sharded kernel cache and :class:`~repro.serve.
ServiceStats` count under their own locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["CacheCounters", "CACHE_STATS", "cache_statistics", "reset_cache_statistics"]


_GAUGES = ("interned_nodes", "memo_entries", "fact_tokens")


@dataclass
class CacheCounters:
    """Global hit/miss counters for every memoisation layer."""

    simplify_hits: int = 0
    simplify_misses: int = 0
    fixpoint_hits: int = 0
    fixpoint_misses: int = 0
    proof_hits: int = 0
    proof_misses: int = 0
    range_hits: int = 0
    range_misses: int = 0
    print_hits: int = 0
    print_misses: int = 0
    #: times the memo table was emptied (its cap, or ``clear_memos()``)
    memo_resets: int = 0
    rule_applications: dict[str, int] = field(default_factory=dict)
    #: bumped by every :meth:`reset`; snapshots carry it so :meth:`delta`
    #: can tell that the counters were zeroed between two snapshots
    epoch: int = 0

    def count_rule(self, name: str) -> None:
        self.rule_applications[name] = self.rule_applications.get(name, 0) + 1

    def snapshot(self) -> dict[str, object]:
        """A plain-dict copy of the current counter values."""
        from .expr import intern_table_size
        from .memo import FACT_TOKENS, MEMO

        return {
            "epoch": self.epoch,
            **{name: getattr(self, name) for name in _COUNTERS},
            "rule_applications": dict(self.rule_applications),
            "interned_nodes": intern_table_size(),
            "memo_entries": len(MEMO),
            "fact_tokens": len(FACT_TOKENS),
        }

    @staticmethod
    def delta(before: dict[str, object], after: dict[str, object]) -> dict[str, object]:
        """Counter increments between two :meth:`snapshot` results.

        Reset-safe: when :meth:`reset` ran between the two snapshots (their
        ``epoch`` values differ) the ``before`` values are baselines of
        counters that have since been zeroed, so every counter's delta falls
        back to its ``after`` value — the exact count since the reset — and
        a third-party snapshot holder (a serve replay, a search sweep) can
        never observe a negative delta.  Remaining negatives from malformed
        inputs are clamped to zero for the same reason.
        """
        reset_between = after.get("epoch", 0) != before.get("epoch", 0)
        out: dict[str, object] = {}
        for key, after_value in after.items():
            if key == "epoch":
                continue
            before_value = 0 if reset_between else before.get(key, 0)
            if isinstance(after_value, dict):
                before_rules = before_value if isinstance(before_value, dict) else {}
                out[key] = {
                    name: max(0, count - before_rules.get(name, 0))
                    for name, count in after_value.items()
                    if count != before_rules.get(name, 0)
                }
            else:
                before_number = before_value if isinstance(before_value, (int, float)) else 0
                difference = after_value - before_number
                # sizes are gauges (the memo table shrinks when it resets);
                # counters are monotonic within an epoch — clamp those
                out[key] = difference if key in _GAUGES else max(0, difference)
        for kind in ("simplify", "fixpoint", "proof", "range", "print"):
            hits = out.get(f"{kind}_hits", 0)
            total = hits + out.get(f"{kind}_misses", 0)
            out[f"{kind}_hit_rate"] = (hits / total) if total else 0.0
        return out

    def reset(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.rule_applications.clear()
        self.epoch += 1


#: the integer counters :meth:`~CacheCounters.snapshot` copies and
#: :meth:`~CacheCounters.reset` zeroes — a new one is one field, nothing else
_COUNTERS = tuple(
    f.name for f in fields(CacheCounters) if f.name not in ("rule_applications", "epoch")
)


#: the process-global counter instance used by every cache layer
CACHE_STATS = CacheCounters()


def cache_statistics() -> dict[str, object]:
    """Snapshot of the global cache counters (plus intern- and memo-table sizes)."""
    return CACHE_STATS.snapshot()


def reset_cache_statistics() -> None:
    """Zero all global cache counters (the intern table is left alone).

    The reset is routed through the observability registry: the counters'
    epoch is bumped (so any snapshot taken before the reset deltas cleanly
    — see :meth:`CacheCounters.delta`) and the registry records the reset,
    keeping every absorbed-source consumer (serve replays, search sweeps)
    free of spurious negative rates mid-window.
    """
    CACHE_STATS.reset()
    from ..obs.metrics import REGISTRY

    REGISTRY.on_reset("repro.symbolic.cache")
