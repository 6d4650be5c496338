"""The compile request path: one front half, one leader path, two executors.

A compile request is served the same way whether its leader runs on a pool
thread (:class:`CompileService`) or in a worker process
(:class:`~repro.serve.farm.CompileFarm`, a subclass):

* **Front half** — :meth:`CompileService._submit`: closed check → one
  *counted* memory-tier lookup → admission → coalesce onto an identical
  in-flight ticket or lead; then :meth:`CompileService._resolve_locked`
  settles the lane ledger strictly before any waiter observes completion.
* **Leader path** — :func:`resolve_tiers`: durable-tier probe → (claim) →
  compile → verify → ``store.put`` before success is reported.

Dedup is three tiers, stated once: the memory tier (a
:class:`~repro.cache.ShardedLRUCache` keyed on ``local_key()``, a
fingerprint of interned expression identities — the cheapest stable key the
hash-consed IR can produce) answers repeats, the in-flight map coalesces
concurrent duplicates, and claim files dedup across processes; the durable
tier is keyed on ``stable_key()`` (canonical printed expressions, salted by
the source fingerprint), so a fresh process starts warm.

Thread-safety relies on the symbolic layer's contract (DESIGN.md): the
intern table is lock-striped, the memo table is benign under races, and the
ledger, the in-flight map and ticket state mutate only under the service lock.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..cache import ResultCache, ShardedLRUCache, code_fingerprint, stable_digest
from ..codegen.backend import GeneratedKernel
from ..obs.trace import span
from ..symbolic import CostWeights
from ..symbolic.expr import Expr
from .metrics import LaneLedger, ServiceStats

__all__ = [
    "CompileRequest",
    "CompileService",
    "PersistedKernel",
    "default_compiler",
    "default_service",
    "resolve_tiers",
    "table_requests",
]


def _freeze(value):
    """Normalise a config value into a hashable, identity-stable token.

    Every structured value carries a type tag so distinct shapes can never
    alias one key (a dict and its items()-tuple, a literal tuple starting
    with a tag string, ...).
    """
    if isinstance(value, Expr):
        # interned nodes make the id a process-stable structural fingerprint
        return ("__expr__", value.expr_id)
    if isinstance(value, Mapping):
        return ("__map__", tuple(sorted((k, _freeze(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("__seq__", tuple(_freeze(v) for v in value))
    return value


@dataclass(frozen=True, eq=False)
class CompileRequest:
    """One compilation request: an app, a configuration, an optional target.

    ``backend`` defaults to the app's declared backend; ``cost_weights``
    names the operation-count weights the kernel is wanted under and is key
    material only (no registered generator takes weights, so the default
    compiler does not forward them).  Requests are value objects: two
    requests with the same payload produce the same cache keys, which is
    what deduplication and both cache tiers key on.
    """

    app: str
    config: Mapping
    backend: str = ""
    cost_weights: CostWeights | None = None

    def __post_init__(self):
        object.__setattr__(self, "config", dict(self.config))

    def local_key(self) -> tuple:
        """Process-local fingerprint (keys the in-memory tier and dedup map)."""
        weights = None
        if self.cost_weights is not None:
            weights = tuple(getattr(self.cost_weights, f.name) for f in fields(self.cost_weights))
        return ("req", self.app, self.backend, _freeze(self.config), weights)

    def stable_key(self) -> str:
        """Cross-process digest (keys the persistent tier).

        Salted with a content fingerprint of the package source (which
        covers the version string in ``repro/__init__.py``), so a persisted
        kernel can never outlive the code that generated it.
        """
        payload = {
            "code": code_fingerprint(),
            "app": self.app,
            "backend": self.backend,
            "config": {name: self.config[name] for name in sorted(self.config)},
            "cost_weights": (
                {f.name: getattr(self.cost_weights, f.name) for f in fields(self.cost_weights)}
                if self.cost_weights is not None
                else None
            ),
        }
        return "kernel-" + stable_digest(payload)


@dataclass
class PersistedKernel(GeneratedKernel):
    """A kernel restored from the durable cache tier.

    The lowered :class:`~repro.codegen.context.LoweredBinding` objects hold
    live expression nodes and do not serialise; what the consumers actually
    need survives instead: the kernel source (byte-identical to the fresh
    generation), the canonical printed expressions (the autotuner's cache-key
    material) and the operation counts under the two weightings the project
    uses — the paper's flat counts and :meth:`CostWeights.gpu_default` (the
    tuner's ranking tie-break).  ``binding_ops`` answers exactly those two
    and raises for any other weighting rather than returning a silently
    wrong number; re-generate the kernel for custom weights.
    """

    expressions: dict[str, str] = field(default_factory=dict)
    flat_ops: int = 0
    gpu_ops: int = 0

    def rendered_expressions(self) -> dict[str, str]:
        return dict(self.expressions)

    def binding_ops(self, weights: CostWeights | None = None) -> int:
        if weights is None or weights == CostWeights():
            return self.flat_ops
        if weights == CostWeights.gpu_default():
            return self.gpu_ops
        raise ValueError(
            "a cache-restored kernel only stores flat and GPU-default op "
            "counts; re-generate the kernel to count with custom weights"
        )


def kernel_payload(kernel: GeneratedKernel | None, verified: bool = False) -> dict:
    """JSON-ready payload of one compilation result (``None`` is legal).

    ``verified`` stamps the entry as having passed the producing service's
    ``verify`` hook, so a consumer with a verifier of its own knows whether
    a restored kernel still needs checking.
    """
    if kernel is None:
        return {"salt": code_fingerprint(), "verified": verified, "kernel": None}
    return {
        "salt": code_fingerprint(),
        "verified": verified,
        "kernel": {
            "name": kernel.name,
            "source": kernel.source,
            "backend": kernel.backend,
            "generation_seconds": kernel.generation_seconds,
            "expressions": kernel.rendered_expressions(),
            "flat_ops": kernel.binding_ops(),
            "gpu_ops": kernel.binding_ops(CostWeights.gpu_default()),
        }
    }


def kernel_from_payload(payload: Mapping) -> PersistedKernel | None:
    """Rebuild the service-facing kernel view from a persisted payload."""
    data = payload.get("kernel")
    if data is None:
        return None
    return PersistedKernel(
        name=data["name"],
        source=data["source"],
        backend=data.get("backend", ""),
        generation_seconds=float(data.get("generation_seconds", 0.0)),
        expressions=dict(data.get("expressions") or {}),
        flat_ops=int(data.get("flat_ops", 0)),
        gpu_ops=int(data.get("gpu_ops", 0)),
    )


def default_compiler(request: CompileRequest) -> GeneratedKernel | None:
    """Resolve the app in the registry and generate its kernel.

    Returns ``None`` when the app's generator declines the configuration
    (external baselines, layouts that patch an existing kernel) — a
    *negative* result the service caches like any other.
    """
    from ..apps.registry import get_app

    spec = get_app(request.app)
    if spec.generate is None:
        raise ValueError(f"app {request.app!r} does not generate kernels")
    if request.backend and request.backend != spec.backend:
        raise ValueError(
            f"app {request.app!r} targets backend {spec.backend!r}, "
            f"request asked for {request.backend!r}"
        )
    return spec.generate(request.config)


#: per-lane latency reservoir size (replay windows up to this many requests
#: get exact percentiles — the burst benchmark sizes its trace under it)
_LATENCY_SAMPLES = 20_000
#: how often a leader waiting out another process's claim re-probes the store
_CLAIM_POLL = 0.005
#: how long it waits on a *live* foreign claim before giving up (seconds)
_CLAIM_WAIT_LIMIT = 60.0


# -- the leader path ------------------------------------------------------------------


def _restore(request: CompileRequest, store, stable: str, verify):
    """Probe the durable tier: ``(kernel, payload)``, or ``None`` on a miss."""
    with span("serve.store.probe", "serve", app=request.app) as probe:
        payload = store.get(stable)
        probe.add(tier_hit=payload is not None)
    if payload is None:
        return None
    kernel = kernel_from_payload(payload)
    if verify is not None and not payload.get("verified"):
        # the store may have been warmed by a producer with no verifier (a
        # benchmark, an unverified service), so an unstamped restore is
        # checked here and stamped — the gate must hold for every kernel
        # this leader serves
        with span("serve.verify", "serve", app=request.app, restored=True):
            verify(request, kernel)
        payload = {**payload, "verified": True}
        store.put(stable, payload)
    return kernel, payload


def _compile(request: CompileRequest, store, stable, compiler, verify):
    with span("serve.execute", "serve", app=request.app):
        kernel = compiler(request)
    if verify is not None:
        # a failed verification must poison nothing: no tier has seen the
        # kernel yet, so the raise lands in the error ledger and every
        # waiter sees the CheckFailure
        with span("serve.verify", "serve", app=request.app):
            verify(request, kernel)
    payload = None
    if store is not None:
        payload = kernel_payload(kernel, verified=verify is not None)
        store.put(stable, payload)
    return "compiled", kernel, payload


def resolve_tiers(request: CompileRequest, store, claims, compiler, verify,
                  compile_delay: float = 0.0):
    """The one leader path: durable tier, (claim), compile, verify, put.

    Returns ``(outcome, kernel, payload)``; ``payload`` is the JSON envelope
    read from or written to ``store`` (``None`` without a store).  The
    in-process service calls this on a pool thread with ``claims=None``; a
    farm worker calls it with the shared :class:`~repro.cache.ShardedFileStore`
    and a :class:`~repro.cache.ClaimRegistry`, which is what holds the
    farm-wide exactly-once-compile invariant:

    1. an existing store entry answers immediately (``store_hit``);
    2. otherwise acquire the claim — a holder that died is broken via its
       recorded pid / lease deadline inside ``acquire``;
    3. claim held by a live sibling: poll the store until its result lands
       (``dedup_wait``) or the claim goes stale, then retry the acquire;
    4. claim won: re-probe the store (the holder may have finished between
       our miss and our claim), then compile, verify, ``put``, release.

    The ``put`` happens **before** this function returns (and so before a
    worker's done-message and before the claim is released): a leader killed
    after publishing never causes a recompile, and one killed before
    publishing never reported success — "compiled" is reported at most once
    per kernel.  ``compile_delay`` is the chaos tests' kill window: a sleep
    under the claim, with the lease refreshed after it.
    """
    if store is None:
        return _compile(request, None, None, compiler, verify)
    stable = request.stable_key()
    restored = _restore(request, store, stable, verify)
    if restored is not None:
        return ("store_hit", *restored)
    if claims is None:
        return _compile(request, store, stable, compiler, verify)
    while True:
        claim = claims.acquire(stable)
        if claim is not None:
            with claim:
                restored = _restore(request, store, stable, verify)
                if restored is not None:  # the previous holder just finished
                    return ("dedup_wait", *restored)
                if compile_delay:
                    time.sleep(compile_delay)
                    claim.refresh()
                return _compile(request, store, stable, compiler, verify)
        # a live sibling process holds the claim: wait for its result
        waited = time.perf_counter()
        while claims.held(stable):
            restored = _restore(request, store, stable, verify)
            if restored is not None:
                return ("dedup_wait", *restored)
            time.sleep(_CLAIM_POLL)
            if time.perf_counter() - waited > _CLAIM_WAIT_LIMIT:
                raise TimeoutError(
                    f"gave up waiting on a foreign claim for {request.app!r}"
                )
        # claim released or went stale without a result: retry the acquire


# -- the front half -------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class _Ticket:
    """One admitted memory-tier miss: a leader, or a follower riding one."""

    request: CompileRequest
    key: tuple
    lane: str
    started: float
    #: holds an admission slot, released when the ticket resolves
    admitted: bool
    #: what the submitter waits on, set by ``_settle``; ``None`` when someone
    #: else answers the submitter (the pool's own future, an inline result)
    future: Future | None = None
    followers: list = field(default_factory=list)
    resolved: bool = False
    # what a process executor adds: a pipe-message id, a re-drive count
    id: int = 0
    redrives: int = 0


def _settled(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


class CompileService:
    """A deduplicating, two-tier-cached compilation service on a thread pool.

    ``compiler`` maps a :class:`CompileRequest` to a
    :class:`~repro.codegen.backend.GeneratedKernel` (default: resolve the
    app registry).  ``cache`` is the in-memory tier (shareable between
    services); ``store`` the optional durable tier — a
    :class:`~repro.cache.ResultCache`, or a path to create one.

    ``verify`` optionally gates every *first* compilation of a distinct
    kernel: ``verify(request, kernel)`` runs on the leader's worker thread
    right after the compiler returns and before the result reaches either
    cache tier, so a raising verifier (e.g.
    :func:`repro.check.differential_verifier`) fails the request — and every
    coalesced follower — instead of serving a numerically wrong kernel.
    Memory-tier hits are not re-verified (they passed within this cache's
    lifetime).  Durable-tier restores carry a ``verified`` stamp from their
    producing service; a restore *without* the stamp is verified on first
    restore and stamped, so the gate holds for every kernel served.

    The thread pool is an asynchrony device, not a throughput one (the GIL
    serialises the compiles); :class:`~repro.serve.farm.CompileFarm`
    overrides four hooks (``_admit``, ``_release``, ``_follow_locked``,
    ``_lead_locked``) to run leaders in worker processes behind capped
    priority lanes.
    """

    #: the one, uncapped lane of the in-process service
    _LANE = "service"
    #: lane that tuning-table warming rides
    _WARM_LANE = _LANE
    #: ``submit`` keywords a batch uses unless its caller names others
    _BATCH_SUBMIT: Mapping = {}
    #: default :meth:`register_metrics` source name
    _METRICS_NAME = "repro.serve"

    def __init__(
        self,
        compiler: Callable[[CompileRequest], GeneratedKernel | None] | None = None,
        workers: int = 4,
        cache: ShardedLRUCache | None = None,
        store: ResultCache | str | Path | None = None,
        verify: Callable[[CompileRequest, GeneratedKernel | None], None] | None = None,
    ):
        if workers < 1:
            raise ValueError("CompileService requires at least one worker")
        self._compiler = compiler or default_compiler
        self._verify = verify
        self._open(
            workers,
            cache if cache is not None else ShardedLRUCache(),
            ResultCache(store) if isinstance(store, (str, Path)) else store,
            (self._LANE,),
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )

    def _open(self, workers: int, cache: ShardedLRUCache, store, lanes) -> None:
        """The constructor half both executors share: tiers, ledgers, in-flight map."""
        self.workers = workers
        self.cache = cache
        self.store = store
        if store is not None:
            # Reclaim kernel entries stranded by a source-code change (a
            # version bump is one): their salted keys are unreachable forever,
            # and an append-only store would grow monotonically with dead
            # weight.  Entries from other clients (no salt field) are left alone.
            salt = code_fingerprint()
            store.prune(lambda key, entry: "salt" not in entry or entry["salt"] == salt)
        self._lock = threading.Lock()
        self._lanes = {lane: LaneLedger(_LATENCY_SAMPLES) for lane in lanes}
        self._inflight: dict[tuple, _Ticket] = {}  # local key -> leader ticket
        #: resolutions accounted under the lock whose futures are not yet set
        self._settling: list[tuple[list[Future], object, BaseException | None]] = []
        self._warmed = 0
        self._closed = False

    # -- the request path -----------------------------------------------------

    def submit(self, request: CompileRequest) -> Future:
        """Enqueue one request; returns a future of the compiled kernel."""
        return self._submit(request, self._LANE)

    def _submit(self, request: CompileRequest, lane: str, admit: bool = True) -> Future:
        """The front half every submission takes, whichever executor leads.

        The hot path — a memory-tier hit — takes only the key's shard lock
        (the service lock is held just for the ledger bumps) and returns a
        future that is already done.  On a miss, the in-flight check, a race
        re-check of the cache and the leader registration happen under the
        service lock, so of any set of concurrent identical requests exactly
        one leads and the rest ride its ticket.
        """
        started = time.perf_counter()
        key = request.local_key()
        # The closed check and the submitted count precede the counted cache
        # lookup, so a rejected straggler never skews the shard counters.
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            ledger = self._lanes[lane]
            ledger.submitted += 1
        # Lock-free fast path: one counted lookup per submission (this is
        # what keeps ``submitted == memory_hits + memory_misses`` exact).
        hit, value = self.cache.lookup(key)
        if hit:
            with self._lock:
                ledger.settle("memory_hit", time.perf_counter() - started)
            return _settled(value)
        if admit:
            shed = self._admit(request, lane)
            if shed is not None:
                return _settled(shed)
        ticket = _Ticket(request, key, lane, started, admitted=admit)
        with self._lock:
            if self._closed:
                # raced with close() after the counted lookup: settle the
                # ledger (an error outcome) so its invariants stay exact
                # even across a racing shutdown
                closed = RuntimeError(f"{type(self).__name__} is closed")
                self._resolve_locked(ticket, error=closed)
                raise closed
            leader = self._inflight.get(key)
            if leader is not None:
                ticket.future = Future()
                leader.followers.append(ticket)
                self._follow_locked(leader, ticket)
                return ticket.future
            # A leader may have finished between our counted lookup and this
            # lock: it caches its result before dropping the in-flight
            # entry, so an uncounted re-check closes the race (the
            # exactly-once window of a store-less service; for a farm, a
            # worker round trip saved).  Serving from it is a dedup against
            # that concurrent compile, which keeps ``memory_misses ==
            # deduped + compiled + persistent_hits + errors`` exact.
            late_hit, value = self.cache.peek(key)
            if not late_hit:
                self._inflight[key] = ticket
                return self._lead_locked(ticket)
            self._resolve_locked(ticket, "coalesced", value)
        return _settled(value)

    def compile(self, request: CompileRequest, **how) -> GeneratedKernel | None:
        """Synchronous ``submit``: block until the kernel is available."""
        return self.submit(request, **how).result()

    def submit_batch(self, requests: Iterable[CompileRequest], **how) -> list:
        """Fan a batch out; results come back in submission order."""
        how = {**self._BATCH_SUBMIT, **how}
        futures = [self.submit(request, **how) for request in requests]
        return [future.result() for future in futures]

    def warm_from_table(self, table, apps: Iterable[str] | None = None) -> int:
        """Pre-compile every current-source tuning-table winner.

        Submits one request per distinct winner (see :func:`table_requests`
        for the row-selection rules, including the stale-stamp skip) and
        blocks until they are all resident, so the first client request for
        a tuned kernel is a memory hit.  Warm traffic bypasses admission (it
        is the server's own startup work, not client load).  Returns the
        number of requests warmed.
        """
        futures = [self._submit(request, self._WARM_LANE, admit=False)
                   for request in table_requests(table, apps)]
        for future in futures:
            future.result()
        with self._lock:
            self._warmed += len(futures)
        return len(futures)

    # -- where a leader runs (the hooks a process executor overrides) ------------

    def _admit(self, request: CompileRequest, lane: str):
        """Reserve a pending slot on ``lane``, or return the shed marker the
        submission resolves with.  The in-process service is uncapped."""
        return None

    def _release(self, lane: str) -> None:
        """Give back the slot :meth:`_admit` reserved."""

    def _follow_locked(self, leader: _Ticket, follower: _Ticket) -> None:
        """``follower`` just coalesced onto the still-unresolved ``leader``."""

    def _lead_locked(self, ticket: _Ticket) -> Future:
        """Start ``ticket``'s leader; returns the future its submitter waits
        on.  Here a pool thread leads, and the pool's own future serves: it
        is set when :meth:`_lead` returns, after the ledger has settled."""
        return self._executor.submit(self._lead, ticket)

    def _lead(self, ticket: _Ticket):
        outcome, kernel, error = "", None, None
        try:
            outcome, kernel, _ = resolve_tiers(
                ticket.request, self.store, None, self._compiler, self._verify)
        except BaseException as exc:  # noqa: BLE001 - the ticket's outcome: it reaches the ledger and every waiter
            error = exc
        with self._lock:
            self._resolve_locked(ticket, outcome, kernel, error)
        self._settle()
        if error is not None:
            raise error
        return kernel

    # -- resolution -------------------------------------------------------------

    def _resolve_locked(self, ticket: _Ticket, outcome: str = "", value=None,
                        error: BaseException | None = None) -> None:
        """Resolve a leader and its followers, exactly once.

        In this order: the kernel lands in the memory tier *before* the
        in-flight entry is dropped (at every instant a submitted request is
        either cached or in flight — exactly-once has no window; an error is
        not cached, so a retry recompiles), then the ledger, the latency
        reservoir and admission are settled, and only then are the futures
        queued for :meth:`_settle` — accounting strictly precedes any waiter
        observing completion.
        """
        if ticket.resolved:
            return
        if error is None:
            self.cache.put(ticket.key, value)
        if self._inflight.get(ticket.key) is ticket:
            del self._inflight[ticket.key]
        members = [ticket, *ticket.followers]
        now = time.perf_counter()
        for member in members:
            member.resolved = True
            how = "error" if error is not None else outcome if member is ticket else "coalesced"
            self._lanes[member.lane].settle(how, now - member.started)
            if member.admitted:
                self._release(member.lane)
        waiters = [member.future for member in members if member.future is not None]
        if waiters:
            self._settling.append((waiters, value, error))

    def _settle(self) -> None:
        """Set the futures of every resolution accounted so far.

        Runs outside the service lock: a done-callback may call back into
        the service (``submit``, ``stats``) without deadlocking on it.
        """
        if not self._settling:
            return
        with self._lock:
            batch, self._settling = self._settling, []
        for waiters, value, error in batch:
            for future in waiters:
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(value)

    # -- observability / lifecycle --------------------------------------------

    def _read_ledgers_locked(self) -> dict[str, dict]:
        return {lane: self._lanes[lane].read() for lane in sorted(self._lanes)}

    def stats(self) -> ServiceStats:
        """A :class:`~repro.serve.metrics.ServiceStats` snapshot.

        The documented counter invariants are exact once the service is
        quiescent.  A snapshot taken mid-traffic cannot freeze both the
        ledger and the shard counters at one instant (they live under
        different locks by design); the shard counters are read *first*, so
        a live snapshot may at worst undercount lookups relative to
        submissions (requests between the two reads), never show more
        lookups than submissions.  Memory-tier counters come from the cache
        object; when one cache is shared between services, those counters
        aggregate over all of them.
        """
        cache_stats = self.cache.stats()
        with self._lock:
            ledger = self._read_ledgers_locked()[self._LANE]
            queue_depth = len(self._inflight)
        return ServiceStats(
            submitted=ledger["submitted"],
            completed=ledger["resolved"],
            compiled=ledger["compiled"],
            deduped=ledger["coalesced"],
            errors=ledger["errors"],
            memory_hits=cache_stats["hits"],
            memory_misses=cache_stats["misses"],
            persistent_hits=ledger["store_hits"],
            queue_depth=queue_depth,
            workers=self.workers,
            store_entries=len(self.store) if self.store is not None else 0,
            latency=ledger["latency"],
            shards=tuple(cache_stats["per_shard"]),
        )

    def register_metrics(self, name: str = "", registry=None) -> str:
        """Absorb :meth:`stats` into an observability registry.

        Registers the stats' JSON form as a live source on the
        :data:`repro.obs.REGISTRY` (or ``registry``): every snapshot and the
        Prometheus exposition then carry the hit rates, latency percentiles
        and queue depths under ``<name>.*`` keys (default ``repro.serve``;
        ``repro.farm`` for a farm).  Returns the source name so callers can
        ``unregister_source`` it when the service's lifetime is shorter than
        the process's.
        """
        from ..obs.metrics import REGISTRY

        name = name or self._METRICS_NAME
        target = registry if registry is not None else REGISTRY
        target.register_source(name, lambda: self.stats().as_dict())
        return name

    def flush(self) -> None:
        """Persist the durable tier (atomic).  A no-op without a store, or
        with a per-entry file store, whose every ``put`` is already durable."""
        if isinstance(self.store, ResultCache):
            self.store.save()

    def _begin_close(self) -> bool:
        """Reject further submissions; ``False`` if already closed."""
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            return True

    def close(self, wait: bool = True) -> None:
        """Drain the pool, persist the store and reject further submissions."""
        if self._begin_close():
            self._executor.shutdown(wait=wait)
            self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_DEFAULT_SERVICE: CompileService | None = None
_DEFAULT_SERVICE_LOCK = threading.Lock()


def default_service() -> CompileService:
    """The process-wide shared service (memory tier only, lazily created).

    The autotuner routes candidate generation through it so independent
    sweeps in one process share a warm kernel cache.
    """
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        with _DEFAULT_SERVICE_LOCK:
            if _DEFAULT_SERVICE is None:
                _DEFAULT_SERVICE = CompileService()
    return _DEFAULT_SERVICE


def table_requests(table, apps=None) -> list[CompileRequest]:
    """The distinct compile requests a tuning table's winners imply.

    What ``warm_from_table`` submits: walks every
    row (every device by default — winning *configurations* are
    device-specific while the generated kernel is not), projects each winner
    through ``AppSpec.generate_config`` and dedups by kernel identity.
    Rows are skipped when their app has no generator (or is no longer
    registered) **or when their ``code`` stamp is not the current
    :func:`~repro.cache.code_fingerprint`** — a table written by different
    source must warm nothing, because the durable tier those kernels would
    land in is salted by the current source anyway (rows that carry no
    ``code`` stamp are trusted).
    """
    from ..apps.registry import available_apps, get_app

    wanted = set(apps) if apps is not None else None
    registered = set(available_apps())
    fingerprint = code_fingerprint()
    requests: list[CompileRequest] = []
    seen: set[tuple] = set()
    for entry in table.entries():
        app = entry.get("app", "")
        if app not in registered or (wanted is not None and app not in wanted):
            continue
        code = entry.get("code")
        if code is not None and code != fingerprint:
            continue
        spec = get_app(app)
        if spec.generate is None:
            continue
        request = CompileRequest(app=app, config=spec.generate_config(entry["config"]))
        key = request.local_key()
        if key in seen:
            continue
        seen.add(key)
        requests.append(request)
    return requests
