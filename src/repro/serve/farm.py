"""The multi-process compile farm: supervisor, worker processes, SLO plumbing.

:class:`CompileFarm` scales :class:`~repro.serve.service.CompileService`'s
single-process thread pool to the ROADMAP's million-user story: N worker
*processes* share one durable :class:`~repro.cache.ShardedFileStore`, a
supervisor admits, prioritises and dispatches requests, and the whole thing
survives ``SIGKILL``-ed workers without losing or double-compiling anything.

Architecture (every piece chosen for kill-safety):

* **Per-worker pipes, not shared queues.**  A worker killed while blocked on
  a shared ``multiprocessing.Queue`` dies holding the queue's semaphore and
  deadlocks every sibling.  Each worker instead owns a private task pipe
  (supervisor writes) and result pipe (supervisor reads): single reader,
  single writer, no shared locks — and a dead worker is detected *instantly*
  as EOF on its result pipe, not on a health-check poll.
* **Central lanes in the supervisor.**  Pending requests live in supervisor
  deques (one per priority lane); a worker is sent at most
  ``max_outstanding`` tickets at a time.  Priority is therefore exact —
  every dispatch decision sees the full backlog and picks ``interactive``
  first — and so is re-drive: the supervisor knows precisely which tickets
  a dead worker held and pushes them back onto the *front* of their lanes.
* **Admission control.**  Each lane has a pending cap
  (:class:`~repro.serve.admission.AdmissionController`); over-cap
  submissions resolve immediately with a typed
  :class:`~repro.serve.admission.Rejected` instead of stalling the client.
* **Three-tier dedup.**  The supervisor memory tier
  (:class:`~repro.cache.ShardedLRUCache` of resolved kernels) answers
  repeats in microseconds; identical in-flight requests coalesce onto one
  ticket; and across processes (including re-driven duplicates and other
  farms on the same store) workers take cache-keyed **claim files** with
  lease deadlines (:class:`~repro.cache.ClaimRegistry`), so each distinct
  kernel compiles exactly once — ``FarmStats.double_compiled`` is the
  tripwire that stays 0 even through a chaos kill.
* **Health & restart.**  EOF (or a liveness poll) on a worker marks it dead:
  its in-flight tickets are re-driven, a replacement process is spawned, and
  the ``restarts``/``redriven`` counters plus ``farm.restart`` /
  ``farm.redrive`` instants record it.  A ticket that kills ``max_redrives``
  workers in a row is failed with :class:`FarmCompileError` instead of
  crash-looping the farm.
* **Warming.**  ``warm_table=`` pre-compiles every (current-source) tuning
  -table winner through the farm at start, so the first interactive request
  for a tuned kernel is a memory hit.

Everything observable lands in :class:`~repro.serve.metrics.FarmStats`
(per-lane ledgers with p50/p95/p99/p99.9 latency), which
``register_metrics`` plugs into :data:`repro.obs.REGISTRY`.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Iterable, Mapping

from ..cache import ClaimRegistry, ShardedFileStore, ShardedLRUCache
from ..obs import record_farm_event
from .admission import LANE_INTERACTIVE, LANE_SWEEP, AdmissionController, Rejected
from .metrics import FarmStats, LaneStats, LatencyRecorder
from .service import (
    CompileRequest,
    default_compiler,
    kernel_from_payload,
    kernel_payload,
    table_requests,
)

__all__ = ["CompileFarm", "FarmCompileError"]


#: start method of the worker processes — the only one that is safe
#: regardless of which threads the parent holds at fork time
_MP_CONTEXT = "spawn"
#: supervisor wake-up period (seconds): the longest a dead worker goes unnoticed
_HEALTH_INTERVAL = 0.1
#: worker respawns before the farm stops replacing dead processes
_RESTART_LIMIT = 32
#: per-lane latency reservoir size
_LATENCY_SAMPLES = 20_000


class FarmCompileError(RuntimeError):
    """A farm request failed: compiler error, or the request kept killing
    workers past ``max_redrives``."""


# -- the worker process --------------------------------------------------------------

_HIT_OUTCOMES = ("memory_hit", "store_hit", "dedup_wait")


def _serve_one(request: CompileRequest, cache: ShardedLRUCache,
               store: ShardedFileStore, claims: ClaimRegistry, spec: dict):
    """Serve one request inside a worker: L1 memory, shared store, claim, compile.

    Returns ``(outcome, payload)`` where payload is the JSON-ready kernel
    envelope (:func:`~repro.serve.service.kernel_payload` shape).  The claim
    protocol is what holds the farm-wide exactly-once-compile invariant:

    1. an existing store entry answers immediately (``store_hit``);
    2. otherwise acquire the claim — a holder that died is broken via its
       recorded pid / lease deadline inside ``acquire``;
    3. claim held by a live sibling: poll the store until its result lands
       (``dedup_wait``) or the claim goes stale, then retry the acquire;
    4. claim won: re-check the store (the holder may have finished between
       our miss and our claim), then compile, ``put`` the payload, release.

    The ``put`` happens **before** the done-message is sent, so a worker
    killed after publishing never causes a recompile, and one killed before
    publishing never reported success — either way "compiled" is reported at
    most once per kernel, farm-wide.
    """
    local = request.local_key()
    hit, payload = cache.lookup(local)
    if hit:
        return "worker_memory_hit", payload
    stable = request.stable_key()
    payload = store.get(stable)
    if payload is not None:
        cache.put(local, payload)
        return "store_hit", payload
    poll = spec.get("claim_poll", 0.005)
    while True:
        claim = claims.acquire(stable)
        if claim is not None:
            with claim:
                payload = store.get(stable)
                if payload is not None:  # the previous holder just finished
                    cache.put(local, payload)
                    return "dedup_wait", payload
                delay = spec.get("compile_delay", 0.0)
                if delay:
                    # chaos/testing hook: a widened kill window mid-compile
                    time.sleep(delay)
                    claim.refresh()
                kernel = default_compiler(request)
                payload = kernel_payload(kernel)
                store.put(stable, payload)
            cache.put(local, payload)
            return "compiled", payload
        # a live sibling process holds the claim: wait for its result
        waited = time.perf_counter()
        while claims.held(stable):
            payload = store.get(stable)
            if payload is not None:
                cache.put(local, payload)
                return "dedup_wait", payload
            time.sleep(poll)
            if time.perf_counter() - waited > spec.get("claim_wait_limit", 60.0):
                raise FarmCompileError(
                    f"gave up waiting on a foreign claim for {request.app!r}"
                )
        # claim released or went stale without a result: retry the acquire


def _worker_main(worker_id: int, spec: dict, task_conn, result_conn) -> None:
    """One worker process: recv task -> serve -> send outcome, until sentinel.

    Module-level (spawn-picklable) and self-contained: the worker builds its
    own store/claims/cache handles from ``spec`` paths, so nothing but
    plain data crosses the process boundary.
    """
    store = ShardedFileStore(spec["store_dir"])
    claims = ClaimRegistry(
        spec["claims_dir"], ttl=spec.get("claim_ttl", 5.0), owner=f"worker-{worker_id}"
    )
    cache = ShardedLRUCache(shards=4, capacity_per_shard=spec.get("worker_cache", 512))
    result_conn.send(("ready", worker_id, os.getpid()))
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        ticket_id, _lane, request = message
        started = time.perf_counter()
        try:
            outcome, payload = _serve_one(request, cache, store, claims, spec)
            result_conn.send(
                ("done", worker_id, ticket_id, outcome, payload,
                 time.perf_counter() - started)
            )
        except Exception as exc:  # noqa: BLE001 - errors are an outcome, not a crash
            result_conn.send(
                ("done", worker_id, ticket_id, "error",
                 f"{type(exc).__name__}: {exc}", time.perf_counter() - started)
            )
    result_conn.close()
    task_conn.close()


# -- supervisor-side bookkeeping ------------------------------------------------------


class _Ticket:
    __slots__ = ("id", "request", "lane", "stable", "future", "submitted_at",
                 "warm", "redrives", "resolved", "followers")

    def __init__(self, ticket_id, request, lane, stable, warm=False):
        self.id = ticket_id
        self.request = request
        self.lane = lane
        self.stable = stable
        self.future: Future = Future()
        self.submitted_at = time.perf_counter()
        self.warm = warm
        self.redrives = 0
        self.resolved = False
        self.followers: list["_Ticket"] = []


class _WorkerHandle:
    __slots__ = ("id", "process", "task_conn", "result_conn", "outstanding",
                 "alive", "pid")

    def __init__(self, worker_id, process, task_conn, result_conn):
        self.id = worker_id
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.outstanding: dict[int, _Ticket] = {}
        self.alive = True
        self.pid = process.pid


class _LaneLedger:
    """Supervisor-side counters for one lane (all mutated under the farm lock)."""

    __slots__ = ("submitted", "resolved", "errors", "outcomes", "latency")

    def __init__(self):
        self.submitted = 0
        self.resolved = 0
        self.errors = 0
        self.outcomes = collections.Counter()
        self.latency = LatencyRecorder(_LATENCY_SAMPLES)


class CompileFarm:
    """A supervised pool of compile worker processes with SLO-grade serving.

    ``store`` roots the shared durable tier (a directory); ``None`` creates
    a private temporary directory that is removed on :meth:`close`.
    ``admission`` maps lane names to pending caps (see
    :mod:`repro.serve.admission` for the defaults and shed semantics).
    ``compile_delay`` artificially slows every fresh compile inside the
    workers (the chaos tests' kill window); leave it 0 in production.
    """

    def __init__(
        self,
        workers: int = 2,
        store: str | Path | None = None,
        admission: Mapping[str, int] | None = None,
        claim_ttl: float = 5.0,
        max_outstanding: int = 2,
        max_redrives: int = 3,
        compile_delay: float = 0.0,
        warm_table=None,
    ):
        if workers < 1:
            raise ValueError("CompileFarm requires at least one worker process")
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be positive")
        self.workers = workers
        self._owns_store = store is None
        self._store_root = Path(store) if store is not None else Path(
            tempfile.mkdtemp(prefix="repro-farm-")
        )
        self._store_root.mkdir(parents=True, exist_ok=True)
        self._store = ShardedFileStore(self._store_root / "kernels")
        self._claims_dir = self._store_root / "claims"
        self._spec = {
            "store_dir": str(self._store_root / "kernels"),
            "claims_dir": str(self._claims_dir),
            "claim_ttl": claim_ttl,
            "compile_delay": compile_delay,
        }
        self._ctx = multiprocessing.get_context(_MP_CONTEXT)
        self._admission = AdmissionController(admission)
        self._max_outstanding = max_outstanding
        self._max_redrives = max_redrives
        self.cache = ShardedLRUCache(shards=8, capacity_per_shard=2048)

        self._lock = threading.Lock()
        self._queues = {lane: collections.deque() for lane in self._admission.lanes}
        self._tickets: dict[int, _Ticket] = {}
        self._inflight: dict[str, int] = {}  # stable key -> leader ticket id
        self._lanes = {lane: _LaneLedger() for lane in self._admission.lanes}
        self._compile_counts: collections.Counter = collections.Counter()
        self._next_ticket = 0
        self._next_worker = 0
        self._submitted = 0
        self._resolved = 0
        self._errors = 0
        self._executions = 0
        self._redriven = 0
        self._restarts = 0
        self._warmed = 0
        self._closing = False
        self._stopping = False
        self._idle = threading.Condition(self._lock)

        self._workers: dict[int, _WorkerHandle] = {}
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        for _ in range(workers):
            self._spawn_worker()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-farm-supervisor", daemon=True
        )
        self._supervisor.start()
        if warm_table is not None:
            self.warm_from_table(warm_table)

    # -- public API -----------------------------------------------------------

    def submit(self, request: CompileRequest, lane: str = LANE_INTERACTIVE) -> Future:
        """Enqueue one request on ``lane``; the future resolves to a kernel,
        ``None`` (generator declined), or a :class:`Rejected` shed marker."""
        self._admission.check_lane(lane)
        with self._lock:
            if self._closing:
                raise RuntimeError("CompileFarm is closed")
        hit, kernel = self.cache.lookup(request.local_key())
        if hit:
            future: Future = Future()
            with self._lock:
                ledger = self._lanes[lane]
                ledger.submitted += 1
                ledger.resolved += 1
                ledger.outcomes["memory_hit"] += 1
                self._submitted += 1
                self._resolved += 1
                ledger.latency.record(0.0)
            future.set_result(kernel)
            return future
        admitted, depth = self._admission.try_admit(lane)
        if not admitted:
            record_farm_event("shed", lane=lane, app=request.app, depth=depth)
            future = Future()
            with self._lock:
                ledger = self._lanes[lane]
                ledger.submitted += 1
                self._submitted += 1
            future.set_result(Rejected(
                app=request.app, lane=lane, reason="queue_full",
                queue_depth=depth, limit=self._admission.limit(lane),
            ))
            return future
        return self._enqueue(request, lane, warm=False)

    def compile(self, request: CompileRequest, lane: str = LANE_INTERACTIVE):
        """Synchronous :meth:`submit`."""
        return self.submit(request, lane).result()

    def submit_batch(self, requests: Iterable[CompileRequest],
                     lane: str = LANE_SWEEP) -> list:
        """Fan a batch over the farm; results in submission order."""
        futures = [self.submit(request, lane) for request in requests]
        return [future.result() for future in futures]

    def warm_from_table(self, table, apps: Iterable[str] | None = None) -> int:
        """Pre-compile every current-source tuning-table winner (sweep lane).

        Warm traffic bypasses admission (it is the farm's own startup work,
        not client load) and blocks until every winner is resident, so the
        first client request for a tuned kernel is a memory hit.  Rows
        stamped by different source (``code`` fingerprint) warm nothing —
        the durable tier they would feed is unreachable under the current
        source salt anyway.  Returns the number of requests warmed.
        """
        requests = table_requests(table, apps=apps)
        futures = [self._enqueue(r, LANE_SWEEP, warm=True) for r in requests]
        for future in futures:
            future.result()
        with self._lock:
            self._warmed += len(futures)
        return len(futures)

    # -- chaos hooks (used by the kill tests and the burst benchmark) ----------

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [h.pid for h in self._workers.values() if h.alive]

    def kill_worker(self, index: int = 0, sig: int = signal.SIGKILL) -> int:
        """Chaos hook: signal the ``index``-th live worker (default SIGKILL).

        Returns the pid signalled.  The supervisor notices via pipe EOF,
        re-drives the worker's in-flight tickets and spawns a replacement —
        exactly the path the chaos suite asserts.
        """
        with self._lock:
            alive = [h for h in self._workers.values() if h.alive]
            if not alive:
                raise RuntimeError("no live workers to kill")
            target = alive[index % len(alive)]
            pid = target.pid
        os.kill(pid, sig)
        return pid

    # -- stats / lifecycle -----------------------------------------------------

    def stats(self) -> FarmStats:
        admission = self._admission.snapshot()
        with self._lock:
            lanes = []
            for lane in sorted(self._lanes):
                ledger = self._lanes[lane]
                gate = admission[lane]
                lanes.append(LaneStats(
                    lane=lane,
                    limit=gate["limit"],
                    submitted=ledger.submitted,
                    shed=gate["sheds"],
                    resolved=ledger.resolved,
                    pending=gate["pending"],
                    errors=ledger.errors,
                    memory_hits=ledger.outcomes["memory_hit"],
                    coalesced=ledger.outcomes["coalesced"],
                    compiled=ledger.outcomes["compiled"],
                    store_hits=ledger.outcomes["store_hit"],
                    worker_hits=ledger.outcomes["worker_memory_hit"],
                    dedup_waits=ledger.outcomes["dedup_wait"],
                    latency=ledger.latency.snapshot(),
                ))
            double = sum(1 for c in self._compile_counts.values() if c > 1)
            return FarmStats(
                workers=self.workers,
                alive=sum(1 for h in self._workers.values() if h.alive),
                submitted=self._submitted,
                shed=sum(g["sheds"] for g in admission.values()),
                resolved=self._resolved,
                errors=self._errors,
                compiled=sum(self._compile_counts.values()),
                executions=self._executions,
                redriven=self._redriven,
                restarts=self._restarts,
                warmed=self._warmed,
                double_compiled=double,
                store=self._store.stats() | {"entries": len(self._store)},
                lanes=tuple(lanes),
            )

    def register_metrics(self, name: str = "repro.farm", registry=None) -> str:
        """Absorb :meth:`stats` into the observability registry (like the
        service's ``register_metrics``); returns the source name."""
        from ..obs.metrics import REGISTRY

        target = registry if registry is not None else REGISTRY
        target.register_source(name, lambda: self.stats().as_dict())
        return name

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until every admitted request has resolved (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending_locked():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, 0.1))
        return True

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
        if drain:
            self.drain(timeout)
        with self._lock:
            self._stopping = True
        self._wakeup()
        self._supervisor.join(timeout=10.0)
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            for conn in (handle.task_conn, handle.result_conn):
                try:
                    conn.close()
                except OSError:
                    pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
        if self._owns_store:
            shutil.rmtree(self._store_root, ignore_errors=True)

    def __enter__(self) -> "CompileFarm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals: submission side -------------------------------------------

    def _pending_locked(self) -> int:
        return sum(1 for t in self._tickets.values() if not t.resolved)

    def _wakeup(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except (BlockingIOError, OSError):
            pass  # pipe full means a wakeup is already pending

    def _enqueue(self, request: CompileRequest, lane: str, warm: bool) -> Future:
        stable = request.stable_key()
        with self._lock:
            ledger = self._lanes[lane]
            ledger.submitted += 1
            self._submitted += 1
            self._next_ticket += 1
            ticket = _Ticket(self._next_ticket, request, lane, stable, warm=warm)
            self._tickets[ticket.id] = ticket
            leader_id = self._inflight.get(stable)
            if leader_id is not None and leader_id in self._tickets:
                # coalesce: ride the identical in-flight ticket's execution
                leader = self._tickets[leader_id]
                leader.followers.append(ticket)
                if lane == LANE_INTERACTIVE and leader.lane != LANE_INTERACTIVE:
                    # priority inversion guard: an interactive arrival must
                    # not wait at a sweep ticket's queue position, so a
                    # still-queued leader jumps to the interactive front
                    # (its ledger lane is unchanged; only dispatch order is)
                    try:
                        self._queues[leader.lane].remove(leader_id)
                    except ValueError:
                        pass  # already dispatched: it is in flight on a worker
                    else:
                        self._queues[LANE_INTERACTIVE].appendleft(leader_id)
            else:
                self._inflight[stable] = ticket.id
                self._queues[lane].append(ticket.id)
        self._wakeup()
        return ticket.future

    # -- internals: supervisor thread ------------------------------------------

    def _spawn_worker(self) -> None:
        """Start one worker process (called under no lock at init, under the
        farm lock from the supervisor on restart — Process.start is safe)."""
        worker_id = self._next_worker
        self._next_worker += 1
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, dict(self._spec), task_r, result_w),
            name=f"repro-farm-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # close the child's ends in this process so EOF propagates on death
        task_r.close()
        result_w.close()
        self._workers[worker_id] = _WorkerHandle(worker_id, process, task_w, result_r)

    def _supervise(self) -> None:
        """The supervisor loop: results, deaths, restarts, dispatch.

        Each iteration is exception-isolated: a surprise in one worker's
        message handling must not take the supervisor thread down with every
        client future still pending — serving limps on and the next health
        tick retries.  The surprise is never silent: each one bumps
        ``repro.farm.supervisor_errors`` and drops a ``farm.supervisor_error``
        instant carrying the exception.
        """
        while True:
            with self._lock:
                if self._stopping:
                    self._shutdown_workers_locked()
                    return
                waitables = [self._wake_r] + [
                    h.result_conn for h in self._workers.values() if h.alive
                ]
            try:
                try:
                    ready = connection_wait(waitables, timeout=_HEALTH_INTERVAL)
                except OSError:
                    ready = []
                if self._wake_r in ready:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                with self._lock:
                    for conn_or_fd in ready:
                        if conn_or_fd == self._wake_r:
                            continue
                        self._drain_conn_locked(conn_or_fd)
                    self._reap_dead_locked()
                    self._dispatch_locked()
                    if not self._pending_locked():
                        self._idle.notify_all()
            except Exception as exc:  # noqa: BLE001 - keep supervising, see docstring
                record_farm_event("supervisor_error", error=f"{type(exc).__name__}: {exc}")
                time.sleep(_HEALTH_INTERVAL)

    def _drain_conn_locked(self, conn) -> None:
        handle = next(
            (h for h in self._workers.values() if h.result_conn is conn), None
        )
        if handle is None or not handle.alive:
            return
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                self._on_worker_death_locked(handle)
                return
            kind = message[0]
            if kind == "ready":
                continue
            if kind == "done":
                self._on_done_locked(handle, *message[1:])

    def _reap_dead_locked(self) -> None:
        for handle in list(self._workers.values()):
            if handle.alive and not handle.process.is_alive():
                self._on_worker_death_locked(handle)

    def _on_worker_death_locked(self, handle: _WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        exitcode = handle.process.exitcode
        for conn in (handle.task_conn, handle.result_conn):
            try:
                conn.close()
            except OSError:
                pass
        self._restarts += 1
        record_farm_event("restart", worker=handle.id, exitcode=exitcode)
        # re-drive the dead worker's in-flight tickets to the lane *front*
        for ticket in list(handle.outstanding.values()):
            handle.outstanding.pop(ticket.id, None)
            if ticket.resolved:
                continue
            ticket.redrives += 1
            if ticket.redrives > self._max_redrives:
                self._resolve_locked(ticket, error=FarmCompileError(
                    f"request {ticket.request.app!r} killed "
                    f"{ticket.redrives} workers in a row"
                ))
                continue
            self._redriven += 1
            record_farm_event("redrive", ticket=ticket.id, app=ticket.request.app)
            self._queues[ticket.lane].appendleft(ticket.id)
        alive = sum(1 for h in self._workers.values() if h.alive)
        if not self._stopping and self._restarts <= _RESTART_LIMIT \
                and alive < self.workers:
            self._spawn_worker()
        elif alive == 0:
            # nothing left to run on: fail everything still queued
            for queue in self._queues.values():
                while queue:
                    ticket = self._tickets.get(queue.popleft())
                    if ticket is not None and not ticket.resolved:
                        self._resolve_locked(ticket, error=FarmCompileError(
                            "no live workers remain (restart limit reached)"
                        ))

    def _on_done_locked(self, handle, worker_id, ticket_id, outcome,
                        payload, seconds) -> None:
        handle.outstanding.pop(ticket_id, None)
        self._executions += 1
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            return
        if outcome == "compiled":
            # counted per *execution*, resolved or not: a second fresh
            # compile of the same kernel anywhere in the farm must trip
            # the double_compiled tripwire, never hide behind a redrive
            self._compile_counts[ticket.stable] += 1
        if ticket.resolved:
            return  # a re-driven duplicate finished after the first resolution
        if outcome == "error":
            self._resolve_locked(ticket, error=FarmCompileError(payload))
            return
        kernel = kernel_from_payload(payload)
        self.cache.put(ticket.request.local_key(), kernel)
        self._resolve_locked(ticket, value=kernel, outcome=outcome)

    def _resolve_locked(self, ticket: _Ticket, value=None, outcome: str = "",
                        error: BaseException | None = None) -> None:
        members = [(ticket, outcome or "compiled")] + [
            (f, "coalesced") for f in ticket.followers
        ]
        now = time.perf_counter()
        for member, member_outcome in members:
            if member.resolved:
                continue
            member.resolved = True
            ledger = self._lanes[member.lane]
            ledger.resolved += 1
            self._resolved += 1
            if error is not None:
                ledger.errors += 1
                self._errors += 1
            else:
                ledger.outcomes[member_outcome] += 1
            ledger.latency.record(now - member.submitted_at)
            if not member.warm:
                self._admission.release(member.lane)
            self._tickets.pop(member.id, None)
        if self._inflight.get(ticket.stable) == ticket.id:
            del self._inflight[ticket.stable]
        if error is not None:
            ticket.future.set_exception(error)
            for follower in ticket.followers:
                follower.future.set_exception(error)
        else:
            ticket.future.set_result(value)
            for follower in ticket.followers:
                follower.future.set_result(value)

    def _dispatch_locked(self) -> None:
        """Send queued tickets to workers with spare capacity, interactive
        lane strictly first — the "interactive never starves" guarantee."""
        lanes_in_priority = [LANE_INTERACTIVE] + [
            lane for lane in sorted(self._queues) if lane != LANE_INTERACTIVE
        ]
        while True:
            candidates = [
                h for h in self._workers.values()
                if h.alive and len(h.outstanding) < self._max_outstanding
            ]
            if not candidates:
                return
            ticket = None
            for lane in lanes_in_priority:
                queue = self._queues.get(lane)
                while queue:
                    candidate = self._tickets.get(queue.popleft())
                    if candidate is not None and not candidate.resolved:
                        ticket = candidate
                        break
                if ticket is not None:
                    break
            if ticket is None:
                return
            handle = min(candidates, key=lambda h: len(h.outstanding))
            try:
                handle.task_conn.send((ticket.id, ticket.lane, ticket.request))
            except (OSError, ValueError):
                self._queues[ticket.lane].appendleft(ticket.id)
                self._on_worker_death_locked(handle)
                continue
            handle.outstanding[ticket.id] = ticket

    def _shutdown_workers_locked(self) -> None:
        for handle in self._workers.values():
            if handle.alive:
                try:
                    handle.task_conn.send(None)
                except (OSError, ValueError):
                    pass
        # a timed-out drain may leave tickets unresolved: fail them loudly
        # rather than leaving their futures (and the clients behind them)
        # hanging forever
        for ticket in list(self._tickets.values()):
            if not ticket.resolved:
                self._resolve_locked(ticket, error=FarmCompileError(
                    "farm closed before the request resolved"
                ))
        self._idle.notify_all()
