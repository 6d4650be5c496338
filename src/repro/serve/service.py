"""The concurrent layout-compilation service.

:class:`CompileService` turns the per-call generation pipeline
(``CodegenContext.lower`` + ``get_backend``) into a request-serving layer:

* **Sharded two-tier kernel cache.**  The hot tier is a
  :class:`~repro.cache.ShardedLRUCache` keyed on a process-local request
  fingerprint built from interned expression identities (``Expr.expr_id``)
  — the cheapest stable key the hash-consed IR can produce.  The durable
  tier is a :class:`~repro.cache.ResultCache` JSON store keyed on a
  cross-process digest (canonical printed expressions, code-salted), so
  a fresh process starts warm.
* **In-flight deduplication.**  Concurrent submissions of the same request
  share one compilation: the first becomes the leader, the rest piggyback
  on its future.  Each distinct kernel is compiled exactly once per cache
  lifetime (the invariant the batch tests assert).
* **Batching.**  ``submit`` is asynchronous (returns a future);
  ``submit_batch`` fans a request list over the worker pool and returns
  results in submission order.
* **Metrics.**  Per-shard hit rates, p50/p95/p99 latency and queue depth
  via :meth:`CompileService.stats`.

Thread-safety relies on the symbolic layer's contract (DESIGN.md): the
intern table is lock-striped, every compile request builds its own
``CodegenContext``/``SymbolicEnv`` inside one worker thread, and service
counters mutate only under the service lock.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping

from ..cache import ResultCache, ShardedLRUCache, code_fingerprint, stable_digest
from ..codegen.backend import GeneratedKernel
from ..obs.trace import span
from ..symbolic import CostWeights
from ..symbolic.expr import Expr
from .metrics import LatencyRecorder, ServiceStats

__all__ = [
    "CompileRequest",
    "CompileService",
    "PersistedKernel",
    "default_compiler",
    "default_service",
    "table_requests",
    "warm_from_table",
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


#: request-latency reservoir size
_LATENCY_SAMPLES = 10_000


class CompileService:
    """A thread-pooled, deduplicating, two-tier-cached compilation service.

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
    deduplicated follower — instead of serving a numerically wrong kernel.
    Memory-tier hits are not re-verified (they passed within this cache's
    lifetime).  Durable-tier restores carry a ``verified`` stamp from their
    producing service; a restore *without* the stamp (the store was warmed
    by a benchmark or a verifier-less service) is verified on first restore
    and stamped, so the gate holds for every kernel this service serves.
    """

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
        self.workers = workers
        self.cache = cache if cache is not None else ShardedLRUCache()
        self.store = ResultCache(store) if isinstance(store, (str, Path)) else store
        if self.store is not None:
            # Reclaim kernel entries stranded by a source-code change (a
            # version bump is one): their salted keys are unreachable forever,
            # and an append-only store would grow monotonically with dead
            # weight.
            # Entries from other clients (no salt field) are left alone.
            salt = code_fingerprint()
            self.store.prune(
                lambda key, entry: "salt" not in entry or entry["salt"] == salt
            )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._latency = LatencyRecorder(_LATENCY_SAMPLES)
        self._submitted = 0
        self._completed = 0
        self._compiled = 0
        self._deduped = 0
        self._errors = 0
        self._persistent_hits = 0
        self._closed = False

    # -- the request path -----------------------------------------------------

    def submit(self, request: CompileRequest) -> Future:
        """Enqueue one request; returns a future of the compiled kernel.

        The hot path — a warm-cache hit — takes only the key's shard lock;
        the service-wide lock is held just for counter bumps.  On a miss,
        the in-flight check, a race re-check of the cache and the leader
        registration happen under the service lock, so of any set of
        concurrent identical requests exactly one compiles and the rest
        share its future.
        """
        started = time.perf_counter()
        key = request.local_key()
        # The closed check and the submitted count precede the counted cache
        # lookup, so a rejected straggler never skews the shard counters.
        with self._lock:
            if self._closed:
                raise RuntimeError("CompileService is closed")
            self._submitted += 1
        # Lock-free fast path: one counted lookup per submission (this is
        # what keeps ``submitted == memory_hits + memory_misses`` exact).
        hit, value = self.cache.lookup(key)
        if hit:
            with self._lock:
                self._completed += 1
            self._latency.record(time.perf_counter() - started)
            future: Future = Future()
            future.set_result(value)
            return future
        late_hit = False
        leader = False
        with self._lock:
            if self._closed:
                # raced with close() after the counted lookup: settle the
                # ledger (an error outcome) so the stats invariants stay
                # exact even across a racing shutdown
                self._errors += 1
                self._completed += 1
                raise RuntimeError("CompileService is closed")
            existing = self._inflight.get(key)
            if existing is not None:
                self._deduped += 1
                future = existing
            else:
                # A leader may have finished between our counted lookup and
                # this lock: it caches its result before dropping the
                # in-flight entry, so an uncounted re-check closes the race.
                # Serving from it is still a dedup against that concurrent
                # compile (keeps ``memory_misses == deduped + compiled +
                # persistent_hits + errors`` exact).
                late_hit, value = self.cache.peek(key)
                if late_hit:
                    self._deduped += 1
                    self._completed += 1
                else:
                    leader = True
                    future = self._executor.submit(self._execute, request, key, started)
                    self._inflight[key] = future
        if late_hit:
            self._latency.record(time.perf_counter() - started)
            future = Future()
            future.set_result(value)
            return future
        if leader:
            return future
        # Follower: relay the leader's outcome through a wrapper future so
        # accounting happens strictly before any waiter observes completion
        # (a bare done-callback can run *after* ``result()`` returns).  The
        # callback registers outside the lock: an already-resolved leader
        # runs it inline, which must not re-enter the (non-reentrant) lock.
        wrapper: Future = Future()

        def _relay(done: Future) -> None:
            self._account_follower(started)
            exc = done.exception()
            if exc is not None:
                wrapper.set_exception(exc)
            else:
                wrapper.set_result(done.result())

        future.add_done_callback(_relay)
        return wrapper

    def compile(self, request: CompileRequest) -> GeneratedKernel | None:
        """Synchronous ``submit``: block until the kernel is available."""
        return self.submit(request).result()

    def submit_batch(
        self, requests: Iterable[CompileRequest]
    ) -> list[GeneratedKernel | None]:
        """Fan a batch over the pool; results come back in submission order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def _account_follower(self, started: float) -> None:
        with self._lock:
            self._completed += 1
        self._latency.record(time.perf_counter() - started)

    def _execute(self, request: CompileRequest, key: tuple, started: float):
        """Leader path, on a worker thread: durable tier, then the compiler.

        The fresh result lands in the memory tier *before* the in-flight
        entry is dropped (in ``finally``, after this frame's stores), so at
        every instant a submitted request is either cached or in flight —
        the exactly-once guarantee has no window.
        """
        try:
            stable = request.stable_key() if self.store is not None else None
            if stable is not None:
                with span("serve.store.probe", "serve", app=request.app) as probe:
                    payload = self.store.get(stable)
                    probe.add(tier_hit=payload is not None)
                if payload is not None:
                    kernel = kernel_from_payload(payload)
                    if self._verify is not None and not payload.get("verified"):
                        # the store may have been warmed by a producer with no
                        # verifier (a benchmark, an unverified service), so an
                        # unstamped restore is checked here and stamped — the
                        # gate must hold for every kernel this service serves
                        with span("serve.verify", "serve", app=request.app, restored=True):
                            self._verify(request, kernel)
                        self.store.put(stable, {**payload, "verified": True})
                    with self._lock:
                        self._persistent_hits += 1
                    self.cache.put(key, kernel)
                    return kernel
            with span("serve.execute", "serve", app=request.app):
                kernel = self._compiler(request)
            if self._verify is not None:
                # a failed verification must poison nothing: neither cache
                # tier has seen the kernel yet, so the raise lands in the
                # error ledger and every waiter sees the CheckFailure
                with span("serve.verify", "serve", app=request.app):
                    self._verify(request, kernel)
            if stable is not None:
                self.store.put(stable, kernel_payload(kernel, verified=self._verify is not None))
            self.cache.put(key, kernel)
            # Counted only once the result is fully stored: a failure while
            # serialising/caching lands in `errors` alone, so every memory
            # miss resolves to exactly one ledger outcome.
            with self._lock:
                self._compiled += 1
            return kernel
        except BaseException:
            with self._lock:
                self._errors += 1
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._completed += 1
            self._latency.record(time.perf_counter() - started)

    # -- observability / lifecycle --------------------------------------------

    def stats(self) -> ServiceStats:
        """A :class:`~repro.serve.metrics.ServiceStats` snapshot.

        The documented counter invariants are exact once the service is
        quiescent.  A snapshot taken mid-traffic cannot freeze both the
        service counters and the shard counters at one instant (they live
        under different locks by design); the shard counters are read
        *first*, so a live snapshot may at worst undercount lookups
        relative to submissions (requests between the two reads), never
        show more lookups than submissions.  Memory-tier counters come
        from the cache object; when one cache is shared between services,
        those counters aggregate over all of them.
        """
        cache_stats = self.cache.stats()
        with self._lock:
            submitted = self._submitted
            completed = self._completed
            compiled = self._compiled
            deduped = self._deduped
            errors = self._errors
            persistent_hits = self._persistent_hits
            queue_depth = len(self._inflight)
        return ServiceStats(
            submitted=submitted,
            completed=completed,
            compiled=compiled,
            deduped=deduped,
            errors=errors,
            memory_hits=cache_stats["hits"],
            memory_misses=cache_stats["misses"],
            persistent_hits=persistent_hits,
            queue_depth=queue_depth,
            workers=self.workers,
            store_entries=len(self.store) if self.store is not None else 0,
            latency=self._latency.snapshot(),
            shards=tuple(cache_stats["per_shard"]),
        )

    def register_metrics(self, name: str = "repro.serve", registry=None) -> str:
        """Absorb this service's stats into an observability registry.

        Registers :meth:`stats` (as its JSON form) as a live source on the
        :data:`repro.obs.REGISTRY` (or ``registry``): every snapshot and the
        Prometheus exposition then carry the service's hit rates, latency
        percentiles and queue depth under ``<name>.*`` keys.  Returns the
        source name so callers can ``unregister_source`` it when the
        service's lifetime is shorter than the process's.
        """
        from ..obs.metrics import REGISTRY

        target = registry if registry is not None else REGISTRY
        target.register_source(name, lambda: self.stats().as_dict())
        return name

    def flush(self) -> None:
        """Persist the durable tier (atomic; no-op without a store)."""
        if self.store is not None:
            self.store.save()

    def close(self, wait: bool = True) -> None:
        """Drain the pool, persist the store and reject further submissions."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)
        self.flush()

    def __enter__(self) -> "CompileService":
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

    Shared by the service's and the farm's ``warm_from_table``: walks every
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


def warm_from_table(service: CompileService, table, apps=None) -> int:
    """Pre-compile every tuning-table winner through ``service``.

    Submits one compile request per distinct current-source winner (see
    :func:`table_requests` for the row-selection rules, including the
    stale-stamp skip), so a freshly started server answers its first
    tuned-kernel request from a warm cache.  Returns the number of requests
    submitted; blocks until they are all compiled.
    """
    futures = [service.submit(request) for request in table_requests(table, apps)]
    for future in futures:
        future.result()
    return len(futures)
