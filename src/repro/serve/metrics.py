"""Service observability: latency accounting and the ``ServiceStats`` snapshot.

The service records one latency sample per completed request (cache hits
included — a hit's microseconds are part of the distribution a traffic
replay should see) into a bounded reservoir, and exposes everything as an
immutable :class:`ServiceStats` snapshot whose counter invariants are exact
at quiescence (see :meth:`repro.serve.CompileService.stats` for what a
mid-traffic snapshot can and cannot tear).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import Histogram

__all__ = ["FarmStats", "LaneStats", "LatencyRecorder", "ServiceStats"]


class LatencyRecorder:
    """Per-request latencies: a millisecond view over one :class:`Histogram`.

    The reservoir (most recent ``max_samples`` values backing the
    percentiles, exact running count/sum so the mean never loses precision
    to eviction) is :class:`repro.obs.metrics.Histogram`; this class only
    records seconds into it and reports milliseconds out of it.
    """

    def __init__(self, max_samples: int = 10_000):
        self._histogram = Histogram("latency", max_samples=max_samples)

    def record(self, seconds: float) -> None:
        self._histogram.observe(seconds)

    @property
    def count(self) -> int:
        return self._histogram.count

    def snapshot(self) -> dict:
        """Consistent ``{count, mean_ms, p50/p95/p99/p999_ms, max_ms}`` view.

        ``p999_ms`` is the farm's SLO percentile: over a bounded reservoir it
        is exact for replay windows up to ``max_samples`` requests, which is
        why the burst benchmark sizes its trace under the reservoir.
        """
        stats = self._histogram.collect()
        snapshot = {"count": int(stats["latency.count"])}
        for name in ("mean", "p50", "p95", "p99", "p999", "max"):
            snapshot[f"{name}_ms"] = stats[f"latency.{name}"] * 1e3
        return snapshot


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of one :class:`~repro.serve.CompileService`.

    Once the service is quiescent (every submitted future resolved), the
    request-path counters satisfy two exact invariants (asserted by the
    concurrency tests):

    * ``submitted == memory_hits + memory_misses`` — every submission does
      exactly one lookup in the in-memory tier, and
    * ``memory_misses == deduped + compiled + persistent_hits + errors`` —
      every miss either piggybacked on an in-flight compile, compiled fresh,
      was restored from the durable tier, or failed.
    """

    submitted: int = 0
    completed: int = 0
    compiled: int = 0
    deduped: int = 0
    errors: int = 0
    memory_hits: int = 0
    memory_misses: int = 0
    persistent_hits: int = 0
    queue_depth: int = 0
    workers: int = 0
    store_entries: int = 0
    latency: dict = field(default_factory=dict)
    shards: tuple = ()

    @property
    def hit_rate(self) -> float:
        lookups = self.memory_hits + self.memory_misses
        return (self.memory_hits / lookups) if lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-ready form (the CLI and the benchmark artifact emit this)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "compiled": self.compiled,
            "deduped": self.deduped,
            "errors": self.errors,
            "memory_hits": self.memory_hits,
            "memory_misses": self.memory_misses,
            "memory_hit_rate": self.hit_rate,
            "persistent_hits": self.persistent_hits,
            "queue_depth": self.queue_depth,
            "workers": self.workers,
            "store_entries": self.store_entries,
            "latency": dict(self.latency),
            "shards": [dict(s) for s in self.shards],
        }


@dataclass(frozen=True)
class LaneStats:
    """One priority lane's ledger inside a :class:`FarmStats` snapshot.

    At quiescence ``submitted == shed + resolved`` and ``resolved ==
    memory_hits + coalesced + compiled + store_hits + worker_hits +
    dedup_waits + errors`` — every admitted request resolves through exactly
    one of those outcomes (asserted by the farm tests).
    """

    lane: str = ""
    limit: int = 0
    submitted: int = 0
    shed: int = 0
    resolved: int = 0
    pending: int = 0
    errors: int = 0
    #: supervisor memory tier answered without touching a worker
    memory_hits: int = 0
    #: piggybacked on an identical in-flight ticket (supervisor-side dedup)
    coalesced: int = 0
    #: a worker compiled the kernel fresh (claims make this exactly-once)
    compiled: int = 0
    #: a worker answered from the shared durable store
    store_hits: int = 0
    #: a worker answered from its own process-local memory tier
    worker_hits: int = 0
    #: a worker waited out another process's claim, then read the store
    dedup_waits: int = 0
    latency: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions served without a fresh compilation."""
        served = self.resolved - self.errors
        hits = (self.memory_hits + self.coalesced + self.store_hits
                + self.worker_hits + self.dedup_waits)
        return (hits / served) if served else 0.0

    def as_dict(self) -> dict:
        return {
            "lane": self.lane,
            "limit": self.limit,
            "submitted": self.submitted,
            "shed": self.shed,
            "resolved": self.resolved,
            "pending": self.pending,
            "errors": self.errors,
            "memory_hits": self.memory_hits,
            "coalesced": self.coalesced,
            "compiled": self.compiled,
            "store_hits": self.store_hits,
            "worker_hits": self.worker_hits,
            "dedup_waits": self.dedup_waits,
            "hit_rate": self.hit_rate,
            "latency": dict(self.latency),
        }


@dataclass(frozen=True)
class FarmStats:
    """Snapshot of one :class:`~repro.serve.farm.CompileFarm`.

    The farm-wide invariants (exact at quiescence, chaos included):

    * ``submitted == shed + resolved`` — no request is ever lost: it is
      either shed at admission (resolving with a typed ``Rejected``) or
      resolved exactly once, surviving worker kills via re-drive;
    * ``double_compiled == 0`` — no distinct kernel reports more than one
      fresh compilation across every worker process (claim files +
      store-before-done ordering);
    * ``executions >= resolved`` — a re-driven ticket may execute on more
      than one worker, but only the first outcome resolves it.
    """

    workers: int = 0
    alive: int = 0
    submitted: int = 0
    shed: int = 0
    resolved: int = 0
    errors: int = 0
    compiled: int = 0
    executions: int = 0
    redriven: int = 0
    restarts: int = 0
    warmed: int = 0
    double_compiled: int = 0
    store: dict = field(default_factory=dict)
    lanes: tuple = ()

    def lane(self, name: str) -> LaneStats:
        for lane in self.lanes:
            if lane.lane == name:
                return lane
        raise KeyError(name)

    @property
    def lost(self) -> int:
        """Admitted-but-unresolved requests; 0 at quiescence, or a bug."""
        return self.submitted - self.shed - self.resolved

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "alive": self.alive,
            "submitted": self.submitted,
            "shed": self.shed,
            "resolved": self.resolved,
            "lost": self.lost,
            "errors": self.errors,
            "compiled": self.compiled,
            "executions": self.executions,
            "redriven": self.redriven,
            "restarts": self.restarts,
            "warmed": self.warmed,
            "double_compiled": self.double_compiled,
            "store": dict(self.store),
            "lanes": {lane.lane: lane.as_dict() for lane in self.lanes},
        }
