"""Serving observability: the per-lane request ledger and its one snapshot.

Every submission is counted on one :class:`LaneLedger` and resolves through
exactly one outcome on it; each records one latency sample in seconds (cache
hits included — a hit's microseconds are part of the distribution a traffic
replay should see) into the ledger's bounded
:class:`~repro.obs.metrics.Histogram`, which :meth:`LaneLedger.read` reports in
milliseconds.  Both executors read their ledgers out the same way: one
:class:`LaneStats` per lane inside one :class:`FarmStats`, whichever of
:class:`~repro.serve.CompileService` or :class:`~repro.serve.CompileFarm`
took the snapshot.  Their counter invariants are exact at quiescence (see
:meth:`repro.serve.CompileService.stats`).  Memory-tier lookups and per-shard
counts are the cache's own (``service.cache.stats()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..obs.metrics import Histogram

__all__ = ["FarmStats", "LaneLedger", "LaneStats"]


class LaneLedger:
    """One lane's mutable counters (all mutated under the service lock).

    ``outcomes`` counts resolutions by how they were served: ``memory_hit``,
    ``coalesced`` (rode an in-flight leader, or a leader that finished
    between the counted lookup and the lock), ``compiled``, ``store_hit``,
    ``dedup_wait`` (waited out another process's claim) or ``error``.
    """

    __slots__ = ("submitted", "outcomes", "latency")

    OUTCOMES = ("memory_hit", "coalesced", "compiled", "store_hit", "dedup_wait", "error")

    def __init__(self, max_samples: int):
        self.submitted = 0
        self.outcomes = dict.fromkeys(self.OUTCOMES, 0)
        self.latency = Histogram("latency", max_samples=max_samples)

    def settle(self, outcome: str, seconds: float) -> None:
        self.outcomes[outcome] += 1
        self.latency.observe(seconds)

    def read(self) -> dict:
        """The ledger under :class:`LaneStats`' field names.

        ``latency`` is ``{count, mean_ms, p50/p95/p99/p999_ms, max_ms}``.
        ``p999_ms`` is the farm's SLO percentile: over the bounded reservoir
        it is exact for windows up to ``max_samples`` requests.
        """
        collected = self.latency.collect()
        latency = {"count": int(collected["latency.count"])}
        for name in ("mean", "p50", "p95", "p99", "p999", "max"):
            latency[f"{name}_ms"] = collected[f"latency.{name}"] * 1e3
        outcomes = self.outcomes
        return {
            "submitted": self.submitted,
            "resolved": sum(outcomes.values()),
            "errors": outcomes["error"],
            "memory_hits": outcomes["memory_hit"],
            "coalesced": outcomes["coalesced"],
            "compiled": outcomes["compiled"],
            "store_hits": outcomes["store_hit"],
            "dedup_waits": outcomes["dedup_wait"],
            "latency": latency,
        }


@dataclass(frozen=True)
class LaneStats:
    """One lane's ledger inside a :class:`FarmStats` snapshot.

    At quiescence ``submitted == shed + resolved`` and ``resolved ==
    memory_hits + coalesced + compiled + store_hits + dedup_waits +
    errors`` — every admitted request resolves through exactly one of those
    outcomes (asserted by the serving-contract tests).  ``limit`` is the
    lane's pending cap (0: uncapped, the in-process service's one lane).
    """

    lane: str = ""
    limit: int = 0
    submitted: int = 0
    shed: int = 0
    resolved: int = 0
    errors: int = 0
    #: the memory tier answered without starting a leader
    memory_hits: int = 0
    #: piggybacked on an identical in-flight ticket (front-half dedup)
    coalesced: int = 0
    #: a leader compiled the kernel fresh (claims make this exactly-once)
    compiled: int = 0
    #: a leader answered from the durable store
    store_hits: int = 0
    #: a worker process waited out another one's claim, then read the store
    dedup_waits: int = 0
    latency: dict = field(default_factory=dict)

    @property
    def pending(self) -> int:
        """Admitted, unresolved requests (0 at quiescence)."""
        return self.submitted - self.shed - self.resolved

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions served without a fresh compilation."""
        served = self.resolved - self.errors
        hits = self.memory_hits + self.coalesced + self.store_hits + self.dedup_waits
        return (hits / served) if served else 0.0


@dataclass(frozen=True)
class FarmStats:
    """Snapshot of a :class:`~repro.serve.CompileService` or a
    :class:`~repro.serve.farm.CompileFarm`: its lanes and their totals.

    The counters from ``submitted`` to ``dedup_waits`` are the lanes' own,
    summed, so the lane invariants hold for them too.  The invariants every
    executor keeps (exact at quiescence, chaos included):

    * ``submitted == shed + resolved`` — no request is ever lost: it is
      either shed at admission (resolving with a typed ``Rejected``) or
      resolved exactly once, surviving worker kills via re-drive;
    * ``resolved == memory_hits + coalesced + compiled + store_hits +
      dedup_waits + errors``.

    The process fields after them are a farm's (an in-process service,
    whose leaders are threads, leaves them 0):

    * ``double_compiled == 0`` — no distinct kernel reports more than one
      fresh compilation across every worker process (claim files +
      store-before-done ordering);
    * ``executions >=`` the number of *leader* resolutions (``compiled +
      store_hits + dedup_waits``, plus worker-reported errors) — memory
      hits and followers resolve without an execution.  A worker killed
      mid-ticket never reports, so re-drives add none: the two are equal
      unless a ticket was failed (``max_redrives``, ``close``) while an
      execution of it was still to report.
    """

    #: the lane counters a snapshot totals
    TOTALS: ClassVar[tuple] = ("submitted", "shed", "resolved", "errors", "memory_hits",
                               "coalesced", "compiled", "store_hits", "dedup_waits")

    workers: int = 0
    warmed: int = 0
    lanes: tuple = ()
    submitted: int = 0
    shed: int = 0
    resolved: int = 0
    errors: int = 0
    memory_hits: int = 0
    coalesced: int = 0
    compiled: int = 0
    store_hits: int = 0
    dedup_waits: int = 0
    alive: int = 0
    executions: int = 0
    redriven: int = 0
    restarts: int = 0
    double_compiled: int = 0

    #: the same counters as a lane's, so the same derivations: ``lost`` is
    #: the lanes' ``pending``, summed (0 at quiescence, or a bug)
    hit_rate = LaneStats.hit_rate
    lost = LaneStats.pending

    def lane(self, name: str) -> LaneStats:
        for lane in self.lanes:
            if lane.lane == name:
                return lane
        raise KeyError(name)
