"""The multi-process compile farm: claims, the shared durable log, chaos, replay.

Everything here runs real worker *processes* (spawn context) — these are the
tests that earn the farm's headline claims: exactly-once compilation across
processes, survival of a SIGKILL mid-compile, bounded admission with typed
shedding, strict interactive priority, and identical kernels for one request
list regardless of worker count.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cache import ClaimRegistry, ResultCache
from repro.obs import REGISTRY
from repro.obs.metrics import counter
from repro.serve import (
    CompileFarm,
    CompileRequest,
    CompileService,
    LANE_INTERACTIVE,
    LANE_SWEEP,
    Rejected,
    default_compiler,
    table_requests,
)
from repro.tune.tables import TuningTable
from synthetic_traffic import synthetic_requests

SPAWN = multiprocessing.get_context("spawn")


@pytest.fixture
def supervisor_errors():
    """Callable: exceptions the farm supervisor loop isolated since the test began."""
    def isolated() -> float:
        return counter("repro.farm.supervisor_errors").value

    before = isolated()
    return lambda: isolated() - before


# -- claim files --------------------------------------------------------------------


def test_claim_acquire_is_exclusive(tmp_path):
    a = ClaimRegistry(tmp_path, ttl=30.0, owner="a")
    b = ClaimRegistry(tmp_path, ttl=30.0, owner="b")
    claim = a.acquire("kernel-1")
    assert claim is not None
    assert b.acquire("kernel-1") is None, "a live claim must block other claimants"
    assert b.held("kernel-1")
    assert b.holder("kernel-1")["owner"] == "a"
    claim.release()
    assert not b.held("kernel-1")
    second = b.acquire("kernel-1")
    assert second is not None and second.registry is b
    second.release()
    assert a.outstanding() == []


def test_claim_release_is_idempotent_and_context_managed(tmp_path):
    registry = ClaimRegistry(tmp_path, ttl=30.0)
    with registry.acquire("k") as claim:
        assert registry.held("k")
    claim.release()  # second release is a no-op
    assert registry.outstanding() == []


def test_expired_lease_is_broken(tmp_path):
    holder = ClaimRegistry(tmp_path, ttl=0.05, owner="holder")
    claim = holder.acquire("k")
    assert claim is not None
    time.sleep(0.1)
    breaker = ClaimRegistry(tmp_path, ttl=30.0, owner="breaker")
    # make the pid check inconclusive so only the deadline can break it:
    # a live-pid same-host claim past its lease must still be breakable
    taken = breaker.acquire("k")
    assert taken is not None, "an expired lease must be breakable"
    assert breaker.broken == 1
    assert breaker.holder("k")["owner"] == "breaker"
    taken.release()


def test_dead_claimant_is_broken_before_lease_expiry(tmp_path):
    """A same-host claim whose pid is gone breaks immediately (no TTL wait)."""
    proc = SPAWN.Process(target=_exit_zero)
    proc.start()
    proc.join()
    registry = ClaimRegistry(tmp_path, ttl=3600.0, owner="breaker")
    path = registry._path("k")
    path.write_text(json.dumps({
        "owner": "ghost", "pid": proc.pid,
        "host": __import__("socket").gethostname(),
        "deadline": time.time() + 3600.0,
    }))
    started = time.perf_counter()
    claim = registry.acquire("k")
    assert claim is not None, "a dead claimant must not hold the claim"
    assert time.perf_counter() - started < 5.0, "broke via pid, not the 1h lease"
    assert registry.broken == 1
    claim.release()


def _exit_zero():
    pass


def test_claim_refresh_extends_lease(tmp_path):
    registry = ClaimRegistry(tmp_path, ttl=0.2)
    claim = registry.acquire("k")
    deadline = claim.deadline
    time.sleep(0.1)
    claim.refresh(ttl=30.0)
    assert claim.deadline > deadline
    time.sleep(0.15)  # past the original lease; refreshed claim still live
    other = ClaimRegistry(tmp_path, ttl=30.0)
    assert other.acquire("k") is None
    claim.release()


# -- the durable log, shared by handles and processes ------------------------------


def test_result_cache_roundtrip_and_enumeration(tmp_path):
    path = tmp_path / "s" / "store.log"
    store = ResultCache(path)
    assert store.get("missing") is None
    for i in range(20):
        store.put(f"key-{i}", {"index": i})
    store.save()
    assert len(store) == 20
    assert store.get("key-7") == {"index": 7}
    assert sorted(key for key, _ in store.items()) == sorted(f"key-{i}" for i in range(20))
    assert dict(store.items())["key-3"] == {"index": 3}
    store.put("key-3", {"index": 33})  # overwrite: the later record wins
    store.save()
    assert store.get("key-3") == {"index": 33}
    reader = ResultCache(path)
    assert len(reader) == 20 and reader.get("key-3") == {"index": 33}
    assert reader.corrupt_entries == 0
    assert [p.name for p in path.parent.iterdir()] == ["store.log"]


def test_result_cache_prune_compacts_the_log(tmp_path):
    path = tmp_path / "store.log"
    store = ResultCache(path)
    for i in range(10):
        store.put(f"key-{i}", {"index": i})
        store.save()  # ten records
    removed = store.prune(lambda key, value: value["index"] % 2 == 0)
    assert removed == 5
    assert len(store) == 5
    assert all(value["index"] % 2 == 0 for _, value in store.items())
    assert path.read_bytes().count(b"\n") == 2, "the prune left more than one record"
    assert len(ResultCache(path)) == 5


def test_result_cache_counts_foreign_corruption(tmp_path):
    """Junk appended *around* the record framing is counted, not crashed on."""
    path = tmp_path / "store.log"
    store = ResultCache(path)
    store.put("good", {"ok": True})
    store.save()
    with open(path, "ab") as log:
        log.write(b"\n{ not json\n")
    store.reload()
    assert store.corrupt_entries == 1
    assert store.get("good") == {"ok": True} and len(store) == 1


# -- multi-process contention stress (satellite: torn-write property) ----------------


def _save_after_barrier(path: str, barrier, keys: list[str]) -> None:
    store = ResultCache(path)  # both handles attach before either saves
    barrier.wait(timeout=60)
    for key in keys:
        store.put(key, {"from": key})
    store.save()


def test_two_processes_saving_one_path_lose_nothing(tmp_path):
    """Two handles on one path each put and save: neither loses the other's entries."""
    path = str(tmp_path / "store.log")
    barrier = SPAWN.Barrier(2)
    writers = [SPAWN.Process(target=_save_after_barrier,
                             args=(path, barrier, [f"{name}-{i}" for i in range(3)]))
               for name in ("from-a", "from-b")]
    for p in writers:
        p.start()
    for p in writers:
        p.join(timeout=120)
        assert p.exitcode == 0
    store = ResultCache(path)
    assert sorted(key for key, _ in store.items()) == sorted(
        f"{name}-{i}" for name in ("from-a", "from-b") for i in range(3))
    assert store.corrupt_entries == 0


def _hammer_store(path: str, writer_id: int, rounds: int, keys: int) -> None:
    store = ResultCache(path)
    for round_no in range(rounds):
        for k in range(keys):
            body = f"{writer_id}:{round_no}:{k}" * 20
            store.put(f"shared-{k}", {
                "writer": writer_id, "round": round_no, "body": body,
                "checksum": _checksum(body),
            })
        store.save()


def _checksum(body: str) -> str:
    import hashlib

    return hashlib.sha256(body.encode()).hexdigest()


def test_result_cache_multiprocess_writers_never_tear(tmp_path):
    """N processes re-putting the same keys: every read is a complete write."""
    path = str(tmp_path / "contended" / "store.log")
    writers = [
        SPAWN.Process(target=_hammer_store, args=(path, w, 30, 8))
        for w in range(4)
    ]
    for p in writers:
        p.start()
    reader = ResultCache(path)
    deadline = time.monotonic() + 60.0
    reads = 0
    while any(p.is_alive() for p in writers):
        assert time.monotonic() < deadline, "stress writers wedged"
        reader.reload()
        for k in range(8):
            value = reader.get(f"shared-{k}")
            if value is not None:
                reads += 1
                assert value["checksum"] == _checksum(value["body"]), (
                    "torn read: checksum does not match body"
                )
    for p in writers:
        p.join()
        assert p.exitcode == 0
    assert reads > 0, "the reader never overlapped the writers"
    reader.reload()
    assert reader.corrupt_entries == 0
    assert len(reader) == 8
    # every save wrote all eight keys, so all eight come from the last record
    final = [value for _, value in reader.items()]
    assert {(value["writer"], value["round"]) for value in final} == {(final[0]["writer"], 29)}


def _hammer_result_cache(path: str, writer_id: int, rounds: int) -> None:
    for round_no in range(rounds):
        cache = ResultCache(path)
        assert cache.corrupt_entries == 0, "a writer observed a torn store"
        cache.put(f"writer-{writer_id}/round-{round_no}", {"writer": writer_id})
        cache.reload()
        cache.save()


def test_result_cache_multiprocess_saves_stay_readable(tmp_path):
    """Concurrent reload+save cycles never leave a torn record, and lose no save."""
    path = str(tmp_path / "store.json")
    writers = [
        SPAWN.Process(target=_hammer_result_cache, args=(path, w, 15))
        for w in range(3)
    ]
    for p in writers:
        p.start()
    deadline = time.monotonic() + 60.0
    while any(p.is_alive() for p in writers):
        assert time.monotonic() < deadline, "result-cache writers wedged"
        observer = ResultCache(path)
        assert observer.corrupt_entries == 0, "a record was torn"
    for p in writers:
        p.join()
        assert p.exitcode == 0
    final = ResultCache(path)
    assert final.corrupt_entries == 0
    assert len(final) == 3 * 15


def _append_fresh_and_stale(path: str, writer_id: int, rounds: int) -> None:
    store = ResultCache(path)
    for round_no in range(rounds):
        store.put(f"fresh-{writer_id}-{round_no}", {"salt": "new"})
        store.put(f"stale-{writer_id}-{round_no}", {"salt": "old"})
        store.save()


def test_prune_under_concurrent_appends_loses_only_the_doomed(tmp_path):
    """Compactions race spawned appenders: every entry that was kept survives."""
    path = str(tmp_path / "store.log")
    seeded = ResultCache(path)
    for i in range(20):
        seeded.put(f"seed-stale-{i}", {"salt": "old"})
        seeded.put(f"seed-fresh-{i}", {"salt": "new"})
    seeded.save()
    writers = [SPAWN.Process(target=_append_fresh_and_stale, args=(path, w, 40))
               for w in range(3)]
    for p in writers:
        p.start()
    pruner = ResultCache(path)
    fresh = lambda key, entry: entry["salt"] == "new"  # noqa: E731
    deadline = time.monotonic() + 60.0
    compactions = 0
    while any(p.is_alive() for p in writers):
        assert time.monotonic() < deadline, "appenders wedged behind the compaction lock"
        compactions += pruner.prune(fresh) > 0
    for p in writers:
        p.join()
        assert p.exitcode == 0
    assert compactions > 0, "no compaction overlapped the appenders"
    pruner.prune(fresh)
    final = ResultCache(path)
    assert final.corrupt_entries == 0
    assert sorted(key for key, _ in final.items()) == sorted(
        [f"seed-fresh-{i}" for i in range(20)]
        + [f"fresh-{w}-{r}" for w in range(3) for r in range(40)])


# -- the farm: serving correctness ---------------------------------------------------


def _small_trace(total: int, duplicate_fraction: float = 0.5, seed: int = 11):
    return synthetic_requests(
        apps=["matmul", "lud"], total=total,
        duplicate_fraction=duplicate_fraction, seed=seed,
    )


def test_farm_dedups_duplicates_to_one_compile_each():
    requests = _small_trace(36, duplicate_fraction=0.7)
    distinct = len({r.stable_key() for r in requests})
    with CompileFarm(workers=3) as farm:
        futures = [farm.submit(r) for r in requests]
        for f in futures:
            f.result(timeout=120)
        stats = farm.stats()
        farm.store.reload()
        corrupt = farm.store.corrupt_entries
    assert stats.compiled == distinct, "duplicates must coalesce, not recompile"
    assert stats.double_compiled == 0
    assert stats.lost == 0
    assert corrupt == 0
    lane = stats.lane(LANE_INTERACTIVE)
    assert lane.coalesced == len(requests) - distinct
    assert lane.latency["p999_ms"] >= lane.latency["p99_ms"] >= 0.0


def test_farm_prunes_store_entries_stranded_by_a_code_change(tmp_path):
    """A persistent farm store must not only grow: stale-salt kernels go at start."""
    from repro.serve.service import kernel_payload

    current = CompileRequest("matmul", {"variant": "nn"})
    seeded = ResultCache(tmp_path / "kernels" / "store.log")
    seeded.put(current.stable_key(), kernel_payload(default_compiler(current)))
    seeded.put("kernel-from-older-source", {**kernel_payload(None), "salt": "0" * 64})
    seeded.put("tuner-entry", {"time_seconds": 1.0})  # unsalted, foreign: kept
    seeded.save()
    with CompileFarm(workers=1, store=tmp_path) as farm:
        assert farm.store.path == seeded.path
        assert sorted(key for key, _ in farm.store.items()) == sorted(
            [current.stable_key(), "tuner-entry"])
        assert farm.compile(current).source == default_compiler(current).source
        stats = farm.stats()
        entries, corrupt = len(farm.store), farm.store.corrupt_entries
    assert stats.lane(LANE_INTERACTIVE).store_hits == 1 and stats.compiled == 0
    assert corrupt == 0 and entries == 2
    assert len(ResultCache(seeded.path)) == 2, "the pruned entry is still in the log"


def test_farm_rejects_unknown_lane():
    with CompileFarm(workers=1) as farm:
        with pytest.raises(ValueError, match="unknown lane"):
            farm.submit(CompileRequest("matmul", {"variant": "nn"}), lane="batch")


# -- admission control ---------------------------------------------------------------


def test_sweep_overload_sheds_typed_rejections():
    requests = _small_trace(24, duplicate_fraction=0.0, seed=13)
    with CompileFarm(workers=1, admission={LANE_SWEEP: 2},
                     compile_delay=0.05) as farm:
        futures = [farm.submit(r, lane=LANE_SWEEP) for r in requests]
        results = [f.result(timeout=120) for f in futures]
        stats = farm.stats()
    shed = [r for r in results if isinstance(r, Rejected)]
    assert shed, "a 2-deep sweep lane must shed a 24-request instant flood"
    marker = shed[0]
    assert marker.lane == LANE_SWEEP and marker.reason == "queue_full"
    assert marker.limit == 2 and marker.queue_depth >= 2
    assert stats.lane(LANE_SWEEP).shed == len(shed)
    assert stats.lost == 0, "submitted must equal shed + resolved"
    assert stats.submitted == stats.shed + stats.resolved


def test_interactive_lane_jumps_the_sweep_queue():
    """With a sweep backlog queued, an interactive arrival resolves early."""
    sweep = _small_trace(8, duplicate_fraction=0.0, seed=17)
    order: list[tuple[str, int]] = []
    lock = threading.Lock()

    def record(tag, index):
        def _done(_future):
            with lock:
                order.append((tag, index))
        return _done

    with CompileFarm(workers=1, max_outstanding=1, compile_delay=0.05) as farm:
        futures = []
        for i, request in enumerate(sweep):
            future = farm.submit(request, lane=LANE_SWEEP)
            future.add_done_callback(record("sweep", i))
            futures.append(future)
        interactive = farm.submit(
            CompileRequest("matmul", {"variant": "tt"}), lane=LANE_INTERACTIVE
        )
        interactive.add_done_callback(record("interactive", 0))
        futures.append(interactive)
        for f in futures:
            f.result(timeout=120)
    position = [tag for tag, _ in order].index("interactive")
    # at submit time at most max_outstanding (1) sweep tickets are in flight,
    # plus one may complete while the interactive request is being enqueued —
    # strict priority means it is dispatched next, never after the backlog
    assert position <= 2, f"interactive resolved at position {position} of {order}"


# -- chaos: SIGKILL mid-compile ------------------------------------------------------


def test_sigkill_mid_compile_redrives_without_loss_or_double_compile(supervisor_errors):
    requests = _small_trace(8, duplicate_fraction=0.0, seed=19)
    with CompileFarm(workers=2, compile_delay=0.4, claim_ttl=2.0) as farm:
        futures = [farm.submit(r) for r in requests]
        time.sleep(0.5)  # land the kill inside a compile_delay window
        killed = farm.kill_worker(0)
        results = [f.result(timeout=180) for f in futures]
        stats = farm.stats()
        farm.store.reload()
        corrupt = farm.store.corrupt_entries
        claims_left = farm._claims_dir.glob("*.claim")
    assert killed > 0
    assert all(not isinstance(r, Rejected) for r in results)
    assert stats.restarts >= 1, "the dead worker was never replaced"
    assert stats.redriven >= 1, "the orphaned in-flight work was not re-driven"
    assert stats.alive == 2, "the farm did not return to full strength"
    assert stats.lost == 0
    assert stats.errors == 0
    assert stats.double_compiled == 0, "a kill must never double-compile a kernel"
    lane = stats.lane(LANE_INTERACTIVE)
    # a killed worker never reports: every leader resolution is backed by (at
    # least) one reported execution, re-drives notwithstanding
    assert stats.executions >= lane.compiled + lane.store_hits + lane.dedup_waits == len(requests)
    assert corrupt == 0, "the kill tore a store record"
    assert list(claims_left) == [], "a claim file outlived the drain"
    assert supervisor_errors() == 0, "the supervisor isolated a bug"


def test_a_killed_leader_is_reaped_so_its_claim_breaks_at_once(supervisor_errors):
    """The re-driven request breaks the dead leader's claim on its pid, not at
    lease expiry: the supervisor reaps the killed worker before re-driving,
    because an unreaped zombie still answers ``os.kill(pid, 0)``."""
    request = CompileRequest("matmul", {"variant": "nn"})
    with CompileFarm(workers=1, compile_delay=0.4, claim_ttl=30.0) as farm:
        future = farm.submit(request)
        deadline = time.monotonic() + 120.0
        while not list(farm._claims_dir.glob("*.claim")):
            assert time.monotonic() < deadline, "the worker never claimed the request"
            time.sleep(0.005)
        killed = farm.kill_worker(0)  # inside the compile_delay window, claim held
        started = time.monotonic()
        while farm.stats().restarts < 1:
            assert time.monotonic() < deadline, "the death was never handled"
            time.sleep(0.005)
        # the death is handled under the farm lock, so the pid is reaped by now
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)
        kernel = future.result(timeout=60)
        elapsed = time.monotonic() - started
        stats = farm.stats()
    assert kernel is not None and not isinstance(kernel, Rejected)
    assert elapsed < 5.0, f"the re-drive waited {elapsed:.1f}s on a dead claimant"
    assert stats.redriven == 1 and stats.lost == stats.errors == 0
    assert supervisor_errors() == 0, "the supervisor isolated a bug"


def test_repeated_kills_exhaust_into_farm_error(supervisor_errors):
    """A request that keeps killing its worker fails loudly, not forever."""
    request = CompileRequest("matmul", {"variant": "nn"})
    from repro.serve import FarmCompileError

    with CompileFarm(workers=1, compile_delay=0.6, max_redrives=1,
                     claim_ttl=1.0) as farm:
        future = farm.submit(request)
        deadline = time.monotonic() + 60.0
        kills = 0
        while not future.done() and time.monotonic() < deadline:
            try:
                farm.kill_worker(0)
                kills += 1
            except RuntimeError:
                pass  # between death and respawn: no live worker to kill
            time.sleep(0.3)
        assert future.done(), "the future never resolved under repeated kills"
        with pytest.raises(FarmCompileError):
            future.result()
        assert kills >= 2
        assert farm.stats().lost == 0
    assert supervisor_errors() == 0, "the supervisor isolated a bug"


def test_farm_and_service_take_only_the_options_callers_set():
    import inspect

    # the two constructor surfaces, pinned exactly: a PR cannot grow one
    assert list(inspect.signature(CompileService.__init__).parameters) == [
        "self", "compiler", "workers", "cache", "store", "verify"]
    assert list(inspect.signature(CompileFarm.__init__).parameters) == [
        "self", "workers", "store", "admission", "claim_ttl", "max_outstanding",
        "max_redrives", "compile_delay", "warm_table"]
    assert list(inspect.signature(CompileService.submit).parameters) == ["self", "request"]
    assert list(inspect.signature(CompileFarm.submit).parameters) == ["self", "request", "lane"]
    # and no hidden ones: a worker's spec carries exactly what __init__ sets
    # (claim_poll / claim_wait_limit are constants; worker_cache left with the
    # worker-local tier and the _serve_one that read all three)
    import repro.serve.farm as farm_module

    assert not hasattr(farm_module, "_serve_one")
    with CompileFarm(workers=1) as farm:
        assert sorted(farm._spec) == ["claim_ttl", "claims_dir", "compile_delay", "store_dir"]
    # the rest are module constants: binding fails before any process starts
    # (.close() only runs, and the test then fails, if an option came back)
    for removed in ({"mp_context": "spawn"}, {"health_interval": 0.1}, {"restart_limit": 32},
                    {"latency_samples": 100}, {"cache": None}, {"warm_apps": None}):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            CompileFarm(workers=1, **removed).close()
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        CompileService(workers=1, latency_samples=10).close()


def test_supervisor_exception_is_counted_and_serving_continues(supervisor_errors):
    """A bug inside the supervisor loop is isolated, but never silently."""
    with CompileFarm(workers=1) as farm:
        dispatch, raised = farm._dispatch_locked, []

        def dispatch_raising_once():
            if not raised and any(farm._queues.values()):
                raised.append(True)
                raise RuntimeError("injected dispatch bug")
            dispatch()

        farm._dispatch_locked = dispatch_raising_once
        kernel = farm.submit(CompileRequest("matmul", {"variant": "nn"})).result(timeout=120)
        stats = farm.stats()
    assert raised, "the injected bug never ran"
    assert kernel is not None, "the request did not survive the supervisor's bug"
    assert stats.lost == 0 and stats.errors == 0
    assert supervisor_errors() == 1


# -- cross-process / cross-farm claim dedup ------------------------------------------


def test_two_farms_sharing_a_store_compile_each_kernel_once(tmp_path, supervisor_errors):
    """Claims dedup across *farms* too: shared store, global exactly-once."""
    requests = _small_trace(4, duplicate_fraction=0.0, seed=23)
    distinct = len({r.stable_key() for r in requests})
    root = tmp_path / "shared-farm-store"
    farm_a = CompileFarm(workers=2, store=root, compile_delay=0.3)
    farm_b = CompileFarm(workers=2, store=root, compile_delay=0.3)
    try:
        futures = []
        for request in requests:
            futures.append(farm_a.submit(request))
            futures.append(farm_b.submit(request))
        for f in futures:
            assert f.result(timeout=180) is not None
        stats_a, stats_b = farm_a.stats(), farm_b.stats()
    finally:
        farm_a.close()
        farm_b.close()
    total_compiled = stats_a.compiled + stats_b.compiled
    assert total_compiled == distinct, (
        f"{total_compiled} fresh compiles for {distinct} kernels across two farms"
    )
    assert stats_a.double_compiled == 0 and stats_b.double_compiled == 0
    dedup_waits = (
        stats_a.lane(LANE_INTERACTIVE).dedup_waits
        + stats_b.lane(LANE_INTERACTIVE).dedup_waits
        + stats_a.lane(LANE_INTERACTIVE).store_hits
        + stats_b.lane(LANE_INTERACTIVE).store_hits
    )
    assert dedup_waits == 2 * distinct - total_compiled
    assert supervisor_errors() == 0, "a supervisor isolated a bug"


# -- cache warming from tuning tables ------------------------------------------------


def _winner_table(tmp_path, code=None):
    cache = ResultCache(tmp_path / "tables.json")
    table = TuningTable(cache)
    table.put("matmul", "devA", {"variant": "nn"}, time_ms=1.0,
              measured=True, code=code)
    table.put("lud", "devA", {"n": 1024, "block": 64, "cuda_block": 16},
              time_ms=2.0, measured=True, code=code)
    return table


def test_farm_warms_from_tuning_table(tmp_path, supervisor_errors):
    table = _winner_table(tmp_path)
    warm_requests = table_requests(table)
    assert len(warm_requests) == 2
    with CompileFarm(workers=2, warm_table=table) as farm:
        warmed_stats = farm.stats()
        # the very first client request for a warmed kernel is a memory hit
        first = farm.compile(warm_requests[0], lane=LANE_INTERACTIVE)
        stats = farm.stats()
    assert warmed_stats.warmed == 2
    assert first is not None
    lane = stats.lane(LANE_INTERACTIVE)
    assert lane.memory_hits == 1, "a warmed kernel still went to a worker"
    assert lane.hit_rate == 1.0
    sweep = stats.lane(LANE_SWEEP)
    assert sweep.submitted == 2, "warming rides the sweep lane"
    assert stats.compiled == 2 and stats.double_compiled == 0
    assert supervisor_errors() == 0, "the supervisor isolated a bug"


def test_stale_version_table_warms_nothing(tmp_path):
    table = _winner_table(tmp_path, code="0" * 16)
    assert table_requests(table) == []
    with CompileFarm(workers=1, warm_table=table) as farm:
        stats = farm.stats()
    assert stats.warmed == 0
    assert stats.compiled == 0 and stats.submitted == 0


# -- one request list, any worker count, a kill mid-submission -----------------------


def _both_lanes(farm, requests, sweep_every: int):
    """Submit ``requests`` in order, every ``sweep_every``-th on the sweep lane."""
    return [farm.submit(r, lane=LANE_SWEEP if i % sweep_every == 0 else LANE_INTERACTIVE)
            for i, r in enumerate(requests)]


def test_farm_replay_summary_identical_across_worker_counts():
    requests = synthetic_requests(apps=["matmul", "lud"], total=60,
                                  duplicate_fraction=0.8, seed=41)
    distinct = len({r.stable_key() for r in requests})
    served = {}
    for workers in (1, 4):
        with CompileFarm(workers=workers) as farm:
            results = [f.result(timeout=180) for f in _both_lanes(farm, requests, 3)]
            stats = farm.stats()
            store_entries = len(farm.store)
        assert stats.workers == workers
        assert stats.lost == stats.double_compiled == 0
        assert stats.shed == 0 and stats.resolved == len(requests)
        # a fresh store: one entry per compile, one compile per distinct kernel
        assert store_entries == stats.compiled == distinct
        served[workers] = [getattr(kernel, "source", None) for kernel in results]
    assert served[1] == served[4], "the kernels served depend on the worker count"


def test_burst_replay_absorbs_a_mid_burst_kill_without_loss_or_shedding():
    # 680 requests over every generating app (43 distinct kernels), a quarter
    # of them on the sweep lane: under both lanes' default caps even when all
    # are pending at once, with one worker SIGKILLed halfway through submitting,
    # once the farm is serving
    requests = synthetic_requests(total=680, duplicate_fraction=0.9, seed=7)
    half = len(requests) // 2
    with CompileFarm(workers=2) as farm:
        futures = _both_lanes(farm, requests[:half], 4)
        futures[0].result(timeout=120)
        farm.kill_worker(0)
        futures += _both_lanes(farm, requests[half:], 4)
        results = [f.result(timeout=300) for f in futures]
        stats = farm.stats()
    assert (stats.lost, stats.double_compiled, stats.errors) == (0, 0, 0)
    assert stats.restarts >= 1, "the mid-burst kill was never absorbed"
    assert {lane.lane: lane.shed for lane in stats.lanes} == {
        LANE_INTERACTIVE: 0, LANE_SWEEP: 0,
    }
    assert not any(isinstance(r, Rejected) for r in results)
    assert stats.submitted == stats.resolved == len(results) == 680


# -- observability ------------------------------------------------------------------


def test_farm_counts_shed_events():
    requests = _small_trace(12, duplicate_fraction=0.0, seed=43)
    before = REGISTRY.snapshot("repro.farm.")
    with CompileFarm(workers=1, admission={LANE_SWEEP: 1}) as farm:
        futures = [farm.submit(r, lane=LANE_SWEEP) for r in requests]
        for f in futures:
            f.result(timeout=120)
        stats = farm.stats()
    events = REGISTRY.delta(before, REGISTRY.snapshot("repro.farm."))
    assert stats.submitted == len(requests)
    assert stats.lost == 0
    assert stats.shed > 0
    assert events["repro.farm.sheds"] == stats.shed


def test_farm_restarts_counter_counts_each_kill():
    """The farm's ``restarts`` is the process registry's ``repro.farm.restarts``."""
    before = REGISTRY.snapshot("repro.farm.")
    with CompileFarm(workers=1) as farm:
        farm.kill_worker(0)
        # the one worker is dead: this resolves only on its replacement
        farm.submit(CompileRequest("matmul", {"variant": "nn"})).result(timeout=120)
        stats = farm.stats()
    events = REGISTRY.delta(before, REGISTRY.snapshot("repro.farm."))
    assert stats.restarts >= 1 and stats.lost == 0
    assert events["repro.farm.restarts"] == stats.restarts


def test_kill_worker_sigkills_a_live_worker_and_the_farm_replaces_it():
    with CompileFarm(workers=1) as farm:
        killed = farm.kill_worker(0)
        farm.submit(CompileRequest("matmul", {"variant": "nn"})).result(timeout=120)
        stats = farm.stats()
        handles = list(farm._workers.values())
    # close() joined every process it started, the dead one included
    assert [h.process.exitcode for h in handles if h.pid == killed] == [-signal.SIGKILL]
    live = [h.pid for h in handles if h.alive]
    assert len(live) == 1 and killed not in live
    assert stats.alive == 1 and stats.restarts == 1 and stats.lost == 0
