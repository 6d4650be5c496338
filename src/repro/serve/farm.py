"""The multi-process compile farm: :class:`CompileService` with processes.

:class:`CompileFarm` keeps the service's whole request path — memory tier,
in-flight coalescing, ledger (:mod:`repro.serve.service`) — and supplies
only *where a leader runs*: N worker processes each hold a
:class:`~repro.cache.ResultCache` handle on one durable log
(``<store>/kernels/store.log``) and each runs the same
:func:`~repro.serve.service.resolve_tiers` leader path under claim files,
so the farm survives ``SIGKILL``-ed workers without losing or
double-compiling anything.  What processes need, and why it looks this way:

* **Per-worker pipes, not shared queues.**  A worker killed while blocked on
  a shared ``multiprocessing.Queue`` dies holding the queue's semaphore and
  deadlocks every sibling.  Each worker instead owns a private task pipe
  (supervisor writes) and result pipe (supervisor reads): single reader,
  single writer, no shared locks — and a dead worker is detected *instantly*
  as EOF on its result pipe, not on a health-check poll.
* **Central lanes in the supervisor.**  Leader tickets wait in supervisor
  deques, one per priority lane with a pending cap
  (:mod:`repro.serve.admission`); a worker is sent at most
  ``max_outstanding`` at a time.  Priority is therefore exact — every
  dispatch decision sees the full backlog and picks ``interactive`` first —
  and so is re-drive: the supervisor knows precisely which tickets a dead
  worker held, pushes them back onto the *front* of their lanes and spawns
  a replacement (``restarts`` / ``redriven``, ``farm.restart`` /
  ``farm.redrive`` instants).  ``FarmStats.double_compiled`` is the
  tripwire that stays 0 even through a chaos kill.
"""

from __future__ import annotations

import collections
import itertools
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
from typing import Mapping

from ..cache import ClaimRegistry, ResultCache, ShardedLRUCache
from ..obs import record_farm_event
from .admission import LANE_INTERACTIVE, LANE_SWEEP, AdmissionController, Rejected
from .metrics import FarmStats
from .service import (
    CompileRequest,
    CompileService,
    _Ticket,
    _TicketFuture,
    default_compiler,
    kernel_from_payload,
    resolve_tiers,
)

__all__ = ["CompileFarm", "FarmCompileError"]


#: start method of the worker processes — the only one that is safe
#: regardless of which threads the parent holds at fork time
_MP_CONTEXT = "spawn"
#: supervisor wake-up period (seconds): the longest a dead worker goes unnoticed
_HEALTH_INTERVAL = 0.1
#: worker respawns before the farm stops replacing dead processes
_RESTART_LIMIT = 32
#: longest wait (seconds) for a worker whose pipes broke to exit and be reaped
_REAP_TIMEOUT = 1.0
#: the durable log's name in the store's ``kernels`` directory
_STORE_LOG = "store.log"


class FarmCompileError(RuntimeError):
    """A farm request failed: compiler error, or the request kept killing
    workers past ``max_redrives``."""


# -- the worker process --------------------------------------------------------------


def _worker_main(worker_id: int, spec: dict, task_conn, result_conn) -> None:
    """One worker process: recv ``(ticket_id, request)`` -> lead it -> send
    ``(ticket_id, outcome, payload)``, until the ``None`` sentinel.

    Module-level (spawn-picklable) and self-contained: the worker builds its
    own store/claims handles from ``spec`` paths, so nothing but plain data
    crosses the process boundary (the kernel travels as its JSON payload).
    It keeps no memory tier of its own: the supervisor's front half caches
    every resolved kernel before a repeat could reach a worker.
    """
    store = ResultCache(Path(spec["store_dir"]) / _STORE_LOG)
    claims = ClaimRegistry(
        spec["claims_dir"], ttl=spec["claim_ttl"], owner=f"worker-{worker_id}"
    )
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        ticket_id, request = message
        try:
            outcome, _, payload = resolve_tiers(
                request, store, claims, default_compiler, None, spec["compile_delay"])
        except Exception as exc:  # noqa: BLE001 - errors are an outcome, not a crash
            outcome, payload = "error", f"{type(exc).__name__}: {exc}"
        result_conn.send((ticket_id, outcome, payload))
    result_conn.close()
    task_conn.close()


# -- supervisor-side bookkeeping ------------------------------------------------------


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

    def close_pipes(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass


class CompileFarm(CompileService):
    """A supervised pool of compile worker processes with SLO-grade serving.

    ``store`` roots the shared durable tier (a directory); ``None`` creates
    a private temporary directory that is removed on :meth:`close`.
    ``admission`` maps lane names to pending caps (see
    :mod:`repro.serve.admission` for the defaults and shed semantics).
    ``compile_delay`` artificially slows every fresh compile inside the
    workers (the chaos tests' kill window); leave it 0 in production.
    Futures resolve to a kernel, ``None`` (generator declined), or a
    :class:`Rejected` shed marker.
    """

    # bulk traffic (warming; batches, unless their caller says otherwise)
    # rides the sweep lane
    _WARM_LANE = LANE_SWEEP
    _BATCH_SUBMIT = {"lane": _WARM_LANE}

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
        self._owns_store = store is None
        self._store_root = Path(store) if store is not None else Path(
            tempfile.mkdtemp(prefix="repro-farm-")
        )
        self._store_root.mkdir(parents=True, exist_ok=True)
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
        self._open(
            workers,
            ShardedLRUCache(shards=8, capacity_per_shard=2048),
            ResultCache(Path(self._spec["store_dir"]) / _STORE_LOG),
            self._admission.lanes,
        )
        # in dispatch-priority order: interactive first
        self._queues = {lane: collections.deque() for lane in sorted(
            self._admission.lanes, key=lambda lane: (lane != LANE_INTERACTIVE, lane))}
        self._compile_counts: collections.Counter = collections.Counter()
        self._ticket_ids = itertools.count(1)
        self._next_worker = 0
        self._executions = 0
        self._redriven = 0
        self._restarts = 0
        self._stopping = False

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
        """Enqueue one request on ``lane`` (the shared front half); the future
        cannot be cancelled, as :meth:`CompileService.submit`'s cannot."""
        return self._submit(request, self._lane(lane))

    # -- chaos hook (used by the kill tests) -------------------------------------

    def kill_worker(self, index: int = 0) -> int:
        """Chaos hook: SIGKILL the ``index``-th live worker.

        Returns the pid killed.  The supervisor notices via pipe EOF,
        re-drives the worker's in-flight tickets and spawns a replacement —
        exactly the path the chaos suite asserts.
        """
        with self._lock:
            alive = [h for h in self._workers.values() if h.alive]
            if not alive:
                raise RuntimeError("no live workers to kill")
            target = alive[index % len(alive)]
            pid = target.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- stats / lifecycle -----------------------------------------------------

    def stats(self) -> FarmStats:
        with self._lock:
            return self._stats_locked(
                alive=sum(1 for h in self._workers.values() if h.alive),
                executions=self._executions,
                redriven=self._redriven,
                restarts=self._restarts,
                double_compiled=sum(1 for c in self._compile_counts.values() if c > 1),
            )

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
        if not self._begin_close():
            return
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
            handle.close_pipes()
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
        if self._owns_store:
            shutil.rmtree(self._store_root, ignore_errors=True)

    # -- where a leader runs: the front half's hooks ------------------------------

    def _lane(self, lane: str = LANE_INTERACTIVE) -> str:
        self._admission.check_lane(lane)
        return lane

    def _admit(self, request: CompileRequest, lane: str) -> Rejected | None:
        admitted, depth = self._admission.try_admit(lane)
        if admitted:
            return None
        record_farm_event("shed", lane=lane, app=request.app, depth=depth)
        return Rejected(app=request.app, lane=lane, reason="queue_full",
                        queue_depth=depth, limit=self._admission.limit(lane))

    def _release(self, lane: str) -> None:
        self._admission.release(lane)

    def _admission_locked(self) -> dict[str, dict]:
        return self._admission.snapshot()

    def _follow_locked(self, leader: _Ticket, follower: _Ticket) -> None:
        if follower.lane == LANE_INTERACTIVE and leader.lane != LANE_INTERACTIVE:
            # priority inversion guard: an interactive arrival must not wait
            # at a sweep ticket's queue position, so a still-queued leader
            # jumps to the interactive front (its ledger lane is unchanged;
            # only dispatch order is)
            try:
                self._queues[leader.lane].remove(leader)
            except ValueError:
                pass  # already dispatched: it is in flight on a worker
            else:
                self._queues[LANE_INTERACTIVE].appendleft(leader)

    def _lead_locked(self, ticket: _Ticket, inline: bool) -> Future:
        # every entry point, synchronous or not, leads in a worker process
        ticket.id = next(self._ticket_ids)
        ticket.future = _TicketFuture()
        self._queues[ticket.lane].append(ticket)
        self._wakeup()
        return ticket.future

    def _pending_locked(self) -> bool:
        return bool(self._inflight or self._settling)

    def _wakeup(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except (BlockingIOError, OSError):
            pass  # pipe full means a wakeup is already pending

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
                stopping = self._stopping
                if stopping:
                    self._shutdown_workers_locked()
                waitables = [self._wake_r] + [
                    h.result_conn for h in self._workers.values() if h.alive
                ]
            if not stopping:
                try:
                    self._supervise_once(waitables)
                except Exception as exc:  # noqa: BLE001 - keep supervising, see docstring
                    record_farm_event("supervisor_error", error=f"{type(exc).__name__}: {exc}")
                    time.sleep(_HEALTH_INTERVAL)
            # futures are set outside the lock, before drain() is woken
            self._settle()
            with self._idle:
                if not self._pending_locked():
                    self._idle.notify_all()
            if stopping:
                return

    def _supervise_once(self, waitables) -> None:
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
                if conn_or_fd != self._wake_r:
                    self._drain_conn_locked(conn_or_fd)
            self._reap_dead_locked()
            self._dispatch_locked()

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
                done = conn.recv()
            except (EOFError, OSError):
                self._on_worker_death_locked(handle)
                return
            self._on_done_locked(handle, *done)

    def _reap_dead_locked(self) -> None:
        for handle in list(self._workers.values()):
            if handle.alive and not handle.process.is_alive():
                self._on_worker_death_locked(handle)

    def _on_worker_death_locked(self, handle: _WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        # reap it before re-driving: a pipe can report EOF before the process
        # is a zombie, and an unreaped one still answers ``os.kill(pid, 0)``,
        # so its claims would hold the re-driven tickets for the whole lease
        handle.process.join(timeout=_REAP_TIMEOUT)
        exitcode = handle.process.exitcode
        handle.close_pipes()
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
            self._queues[ticket.lane].appendleft(ticket)
        alive = sum(1 for h in self._workers.values() if h.alive)
        if not self._stopping and self._restarts <= _RESTART_LIMIT \
                and alive < self.workers:
            self._spawn_worker()
        elif alive == 0:
            # nothing left to run on: fail everything still queued
            for queue in self._queues.values():
                while queue:
                    self._resolve_locked(queue.popleft(), error=FarmCompileError(
                        "no live workers remain (restart limit reached)"
                    ))

    def _on_done_locked(self, handle, ticket_id, outcome, payload) -> None:
        ticket = handle.outstanding.pop(ticket_id, None)
        if ticket is None:
            return
        self._executions += 1
        if outcome == "compiled":
            # counted per *execution*, resolved or not: a second fresh
            # compile of the same kernel anywhere in the farm must trip
            # the double_compiled tripwire, never hide behind a redrive
            self._compile_counts[ticket.key] += 1
        if outcome == "error":
            self._resolve_locked(ticket, error=FarmCompileError(payload))
        else:
            self._resolve_locked(ticket, outcome, kernel_from_payload(payload))

    def _dispatch_locked(self) -> None:
        """Send queued tickets to workers with spare capacity, interactive
        lane strictly first — the "interactive never starves" guarantee."""
        while True:
            candidates = [
                h for h in self._workers.values()
                if h.alive and len(h.outstanding) < self._max_outstanding
            ]
            ticket = self._next_queued_locked() if candidates else None
            if ticket is None:
                return
            handle = min(candidates, key=lambda h: len(h.outstanding))
            try:
                handle.task_conn.send((ticket.id, ticket.request))
            except (OSError, ValueError):
                self._queues[ticket.lane].appendleft(ticket)
                self._on_worker_death_locked(handle)
                continue
            handle.outstanding[ticket.id] = ticket

    def _next_queued_locked(self) -> _Ticket | None:
        for queue in self._queues.values():
            while queue:
                ticket = queue.popleft()
                if not ticket.resolved:
                    return ticket
        return None

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
        for ticket in list(self._inflight.values()):
            self._resolve_locked(ticket, error=FarmCompileError(
                "farm closed before the request resolved"
            ))
