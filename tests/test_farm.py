"""The multi-process compile farm: claims, sharded store, chaos, SLO replay.

Everything here runs real worker *processes* (spawn context) — these are the
tests that earn the farm's headline claims: exactly-once compilation across
processes, survival of a SIGKILL mid-compile, bounded admission with typed
shedding, strict interactive priority, and bit-identical replay summaries
regardless of worker count.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.cache import ClaimRegistry, ResultCache, ShardedFileStore
from repro.obs.metrics import counter
from repro.serve import (
    CompileFarm,
    CompileRequest,
    CompileService,
    LANE_INTERACTIVE,
    LANE_SWEEP,
    Rejected,
    default_compiler,
    synthetic_requests,
    table_requests,
    trace_summary,
    traffic_trace,
)
from repro.serve.__main__ import main as serve_main, parse_phases
from repro.tune.tables import TuningTable

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


# -- the sharded file store ---------------------------------------------------------


def test_filestore_roundtrip_and_enumeration(tmp_path):
    store = ShardedFileStore(tmp_path / "s", shards=4)
    assert store.get("missing") is None
    for i in range(20):
        store.put(f"key-{i}", {"index": i})
    assert len(store) == 20
    assert store.get("key-7") == {"index": 7}
    assert "key-7" in store and "key-99" not in store
    assert sorted(store.keys()) == sorted(f"key-{i}" for i in range(20))
    assert dict(store.items())["key-3"] == {"index": 3}
    store.put("key-3", {"index": 33})  # overwrite wins
    assert store.get("key-3") == {"index": 33}
    assert store.stats()["corrupt_entries"] == 0
    assert store.verify_integrity() == {"entries": 20, "corrupt": 0, "stray_tmp": 0}


def test_filestore_prune(tmp_path):
    store = ShardedFileStore(tmp_path / "s", shards=2)
    for i in range(10):
        store.put(f"key-{i}", {"index": i})
    removed = store.prune(lambda key, value: value["index"] % 2 == 0)
    assert removed == 5
    assert len(store) == 5
    assert all(value["index"] % 2 == 0 for _, value in store.items())


def test_filestore_flags_foreign_corruption(tmp_path):
    """Junk written *around* the atomic protocol is detected, not crashed on."""
    store = ShardedFileStore(tmp_path / "s", shards=2)
    store.put("good", {"ok": True})
    path = store._path("bad")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    assert store.get("bad") is None
    assert store.stats()["corrupt_entries"] == 1
    integrity = store.verify_integrity()
    assert integrity["corrupt"] == 1 and integrity["entries"] == 2
    # and a writer that died between mkstemp and replace leaves legal debris
    (path.parent / "dead.json.x.tmp").write_text("partial")
    assert store.verify_integrity()["stray_tmp"] == 1
    assert store.get("good") == {"ok": True}


# -- multi-process contention stress (satellite: torn-write property) ----------------


def _hammer_store(root: str, writer_id: int, rounds: int, keys: int) -> None:
    store = ShardedFileStore(root)
    for round_no in range(rounds):
        for k in range(keys):
            body = f"{writer_id}:{round_no}:{k}" * 20
            store.put(f"shared-{k}", {
                "writer": writer_id, "round": round_no, "body": body,
                "checksum": _checksum(body),
            })


def _checksum(body: str) -> str:
    import hashlib

    return hashlib.sha256(body.encode()).hexdigest()


def test_filestore_multiprocess_writers_never_tear(tmp_path):
    """N processes overwriting the same keys: every read is a complete write."""
    root = str(tmp_path / "contended")
    writers = [
        SPAWN.Process(target=_hammer_store, args=(root, w, 30, 8))
        for w in range(4)
    ]
    for p in writers:
        p.start()
    reader = ShardedFileStore(root)
    deadline = time.monotonic() + 60.0
    reads = 0
    while any(p.is_alive() for p in writers):
        assert time.monotonic() < deadline, "stress writers wedged"
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
    assert reader.stats()["corrupt_entries"] == 0
    integrity = reader.verify_integrity()
    assert integrity["corrupt"] == 0
    assert integrity["entries"] == 8


def _hammer_result_cache(path: str, writer_id: int, rounds: int) -> None:
    for round_no in range(rounds):
        cache = ResultCache(path)
        assert not cache.corrupt_reset, "a writer observed a torn store"
        cache.put(f"writer-{writer_id}/round-{round_no}", {"writer": writer_id})
        cache.reload()
        cache.save()


def test_result_cache_multiprocess_saves_stay_readable(tmp_path):
    """Concurrent reload+save cycles never leave a torn/unparseable store."""
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
        assert not observer.corrupt_reset, "os.replace atomicity was violated"
    for p in writers:
        p.join()
        assert p.exitcode == 0
    final = ResultCache(path)
    assert not final.corrupt_reset
    assert len(final) > 0


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
        integrity = farm.store.verify_integrity()
    assert stats.compiled == distinct, "duplicates must coalesce, not recompile"
    assert stats.double_compiled == 0
    assert stats.lost == 0
    assert integrity["corrupt"] == 0
    lane = stats.lane(LANE_INTERACTIVE)
    assert lane.coalesced == len(requests) - distinct
    assert lane.latency["p999_ms"] >= lane.latency["p99_ms"] >= 0.0


def test_farm_prunes_store_entries_stranded_by_a_code_change(tmp_path):
    """A persistent farm store must not only grow: stale-salt kernels go at start."""
    from repro.serve.service import kernel_payload

    current = CompileRequest("matmul", {"variant": "nn"})
    seeded = ShardedFileStore(tmp_path / "kernels")
    seeded.put(current.stable_key(), kernel_payload(default_compiler(current)))
    seeded.put("kernel-from-older-source", {**kernel_payload(None), "salt": "0" * 64})
    seeded.put("tuner-entry", {"time_seconds": 1.0})  # unsalted, foreign: kept
    with CompileFarm(workers=1, store=tmp_path) as farm:
        assert sorted(farm.store.keys()) == sorted([current.stable_key(), "tuner-entry"])
        assert farm.compile(current).source == default_compiler(current).source
        stats = farm.stats()
        integrity = farm.store.verify_integrity()
    assert stats.lane(LANE_INTERACTIVE).store_hits == 1 and stats.compiled == 0
    assert integrity["corrupt"] == 0 and integrity["entries"] == 2


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
        integrity = farm.store.verify_integrity()
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
    assert integrity["corrupt"] == 0, "the kill corrupted a store shard"
    assert list(claims_left) == [], "a claim file outlived the drain"
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


# -- deterministic replay across worker counts ---------------------------------------


def test_traffic_trace_is_deterministic():
    kwargs = dict(apps=["matmul", "lud"], unique=8, seed=31)
    one = traffic_trace(**kwargs)
    two = traffic_trace(**kwargs)
    assert [(t.at, t.lane, t.phase, t.request.local_key()) for t in one] == \
        [(t.at, t.lane, t.phase, t.request.local_key()) for t in two]
    assert trace_summary(one) == trace_summary(two)
    assert trace_summary(traffic_trace(apps=["matmul", "lud"], unique=8,
                                       seed=32)) != trace_summary(one)


def test_parse_phases():
    phases = parse_phases("steady:1:100,burst:0.5:400:0.6")
    assert [p.name for p in phases] == ["steady", "burst"]
    assert phases[0].interactive_fraction == 0.8  # the default
    assert phases[1].rate == 400.0 and phases[1].interactive_fraction == 0.6
    with pytest.raises(ValueError):
        parse_phases("oops:1")
    with pytest.raises(ValueError):
        parse_phases(" , ")


#: a two-app trace small enough to replay twice per test
_SMALL_TRACE = (
    "--apps", "matmul,lud", "--unique", "10", "--seed", "41",
    "--phases", "steady:0.3:60:0.9,burst:0.2:200:0.7",
)


def _replay_report(tmp_path, workers: int, *trace: str) -> dict:
    """The JSON report of a speed-0 farm replay of the ``trace`` options."""
    out = tmp_path / f"replay-{workers}.json"
    serve_main([
        "--farm", "--workers", str(workers), "--speed", "0", *trace,
        "--json", str(out),
    ])
    return json.loads(out.read_text())


def test_farm_replay_summary_identical_across_worker_counts(tmp_path, capsys):
    solo = _replay_report(tmp_path, 1, *_SMALL_TRACE)
    quad = _replay_report(tmp_path, 4, *_SMALL_TRACE)
    capsys.readouterr()  # swallow the CLI's JSON dumps
    assert solo["trace"] == quad["trace"], (
        "the trace fingerprint must not depend on how many workers served it"
    )
    for report in (solo, quad):
        farm = report["farm"]
        assert farm["lost"] == 0
        assert farm["double_compiled"] == 0
        assert report["replay"]["served"] + report["replay"]["shed"] == \
            report["trace"]["requests"]
    assert quad["farm"]["workers"] == 4 and solo["farm"]["workers"] == 1


def test_burst_replay_absorbs_a_mid_burst_kill_without_loss_or_shedding(tmp_path, capsys):
    # steady serving, a 4x burst, a cool-down: 679 requests, under both
    # lanes' default caps, with one worker SIGKILLed 1.6 trace-seconds in
    report = _replay_report(
        tmp_path, 2,
        "--phases", "steady:1.2:100:0.9,burst:1.2:400:0.7,cooldown:0.8:80:0.9",
        "--unique", "48", "--seed", "7", "--kill-worker-at", "1.6",
    )
    capsys.readouterr()
    farm = report["farm"]
    assert (farm["lost"], farm["double_compiled"], farm["errors"]) == (0, 0, 0)
    assert farm["restarts"] >= 1, "the mid-burst kill was never absorbed"
    assert {lane: row["shed"] for lane, row in farm["lanes"].items()} == {
        LANE_INTERACTIVE: 0, LANE_SWEEP: 0,
    }
    assert report["replay"]["served"] == report["trace"]["requests"] == 679


# -- observability ------------------------------------------------------------------


def test_farm_counts_shed_events():
    from repro.obs import REGISTRY

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


def test_cli_farm_metrics_expose_each_family_once(capsys):
    """The farm's ledger is the report's ``farm`` block; the exposition is the
    process registry, where every family is declared once."""
    report = serve_main([
        "--farm", "--workers", "1", "--speed", "0", "--kill-worker-at", "0",
        "--apps", "matmul,lud", "--unique", "6", "--seed", "41",
        "--phases", "steady:0.2:60:0.9", "--metrics",
    ])
    from repro.obs.metrics import _prom_name

    printed = capsys.readouterr().out
    assert report["farm"]["restarts"] >= 1
    declared = [line.split()[2] for line in printed.splitlines() if line.startswith("# TYPE ")]
    assert "repro_farm_restarts" in declared
    assert len(declared) == len(set(declared)), sorted(declared)
    # the report's snapshot is the same registry: no ledger key, no epoch
    assert {_prom_name(key) for key in report["metrics"]} <= set(declared)
