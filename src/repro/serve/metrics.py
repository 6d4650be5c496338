"""Serving observability: the per-lane request ledger and its snapshot views.

Every submission is counted on one :class:`LaneLedger` and resolves through
exactly one outcome on it; each records one latency sample in seconds (cache
hits included — a hit's microseconds are part of the distribution a traffic
replay should see) into the ledger's bounded
:class:`~repro.obs.metrics.Histogram`, which :meth:`LaneLedger.read` reports in
milliseconds.  :class:`ServiceStats` (the in-process service, one lane) and
:class:`LaneStats` (one farm lane, inside :class:`FarmStats`) are two named,
immutable views of that same ledger:
``deduped`` is ``coalesced``, ``persistent_hits`` is ``store_hits``,
``completed`` is ``resolved``.  Their counter invariants are exact at
quiescence (see :meth:`repro.serve.CompileService.stats` for what a
mid-traffic snapshot can and cannot tear).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..obs.metrics import Histogram

__all__ = ["FarmStats", "LaneLedger", "LaneStats", "ServiceStats"]


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
        it is exact for replay windows up to ``max_samples`` requests, which is
        why the burst benchmark sizes its trace under the reservoir.
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


def _as_dict(stats, **derived) -> dict:
    """JSON-ready form of a stats dataclass: its fields (mappings copied)
    plus the ``derived`` keys, which also replace any non-JSON field."""
    out = {f.name: getattr(stats, f.name) for f in fields(stats)}
    out.update(derived)
    return {k: dict(v) if isinstance(v, dict) else v for k, v in out.items()}


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
        return _as_dict(self, memory_hit_rate=self.hit_rate,
                        shards=[dict(s) for s in self.shards])


@dataclass(frozen=True)
class LaneStats:
    """One priority lane's ledger inside a :class:`FarmStats` snapshot.

    At quiescence ``submitted == shed + resolved`` and ``resolved ==
    memory_hits + coalesced + compiled + store_hits + dedup_waits +
    errors`` — every admitted request resolves through exactly one of those
    outcomes (asserted by the serving-contract tests).
    """

    lane: str = ""
    limit: int = 0
    submitted: int = 0
    shed: int = 0
    resolved: int = 0
    pending: int = 0
    errors: int = 0
    #: the memory tier answered without starting a leader
    memory_hits: int = 0
    #: piggybacked on an identical in-flight ticket (front-half dedup)
    coalesced: int = 0
    #: a worker compiled the kernel fresh (claims make this exactly-once)
    compiled: int = 0
    #: a worker answered from the shared durable store
    store_hits: int = 0
    #: a worker waited out another process's claim, then read the store
    dedup_waits: int = 0
    latency: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions served without a fresh compilation."""
        served = self.resolved - self.errors
        hits = self.memory_hits + self.coalesced + self.store_hits + self.dedup_waits
        return (hits / served) if served else 0.0

    def as_dict(self) -> dict:
        return _as_dict(self, hit_rate=self.hit_rate)


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
    * ``executions >=`` the number of *leader* resolutions (``compiled +
      store_hits + dedup_waits`` over the lanes, plus worker-reported
      errors) — memory hits and followers resolve without an execution.  A
      worker killed mid-ticket never reports, so re-drives add none: the
      two are equal unless a ticket was failed (``max_redrives``, ``close``)
      while an execution of it was still to report.
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
        return _as_dict(self, lost=self.lost,
                        lanes={lane.lane: lane.as_dict() for lane in self.lanes})
