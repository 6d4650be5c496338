"""The concurrent compilation service and the symbolic layer's thread safety."""

import sys
import threading

import pytest

from repro.apps.registry import get_app
from repro.cache import ShardedLRUCache
from repro.serve import (
    LANE_INTERACTIVE,
    CompileFarm,
    CompileRequest,
    CompileService,
    FarmCompileError,
    FarmStats,
    PersistedKernel,
    default_compiler,
    synthetic_requests,
)
from repro.serve.service import kernel_from_payload, kernel_payload
from repro.symbolic import CostWeights, Var


# -- the symbolic layer under threads -----------------------------------------------


def test_parallel_interning_yields_one_node():
    """N threads racing to build the same expression get the same object."""
    from repro.symbolic.expr import Add, FloorDiv, Mod, Mul

    threads = 8
    barrier = threading.Barrier(threads)
    results: list = [None] * threads

    def build(slot: int):
        # fresh variable names so this test really exercises first interning
        a, b, c = Var("tsafe_a"), Var("tsafe_b"), Var("tsafe_c")
        barrier.wait()
        results[slot] = Mod(FloorDiv(Add(Mul(a, 7), Mul(b, 3), 11), c), Add(a, c))

    pool = [threading.Thread(target=build, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch mid-constructor, not between them
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    ids = {expr.expr_id for expr in results}
    assert len(ids) == 1, "racing constructors minted distinct nodes"
    assert all(expr is results[0] for expr in results)
    # every Add/Mul above went through the operand-keyed memo family (the test
    # starts on an empty table): racing writers filed the one interned node,
    # and a node is never published before its stored sort key
    from repro.symbolic.expr import _TYPE_ORDER
    from repro.symbolic.memo import MEMO

    a, b = Var("tsafe_a"), Var("tsafe_b")
    total = Add(Mul(a, 7), Mul(b, 3), 11)
    assert MEMO[("mul", a.expr_id, (7,))] is Mul(a, 7)
    assert MEMO[("add", Mul(a, 7).expr_id, Mul(b, 3).expr_id, (11,))] is total
    assert total is results[0].args[0].args[0]
    for node in results[0].walk():
        assert node.sort_key() == (_TYPE_ORDER[type(node).__name__], node._ekey)


def test_parallel_generation_matches_sequential_goldens(tmp_path):
    """Concurrent batch compiles are byte-identical to the inline path."""
    requests = [
        CompileRequest("matmul", {"variant": "nn"}),
        CompileRequest("matmul", {"variant": "tn"}),
        CompileRequest("lud", {"n": 1024, "block": 64, "cuda_block": 16}),
        CompileRequest("softmax", {"implementation": "lego"}),
    ] * 4
    sequential = [get_app(r.app).generate(r.config).source for r in requests]
    with CompileService(workers=4) as service:
        kernels = service.submit_batch(requests)
    assert [k.source for k in kernels] == sequential
    # and the first two match the checked-in goldens byte for byte
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    assert kernels[0].source == (golden / "matmul_nn.triton.txt").read_text()
    assert kernels[1].source == (golden / "matmul_tn.triton.txt").read_text()


# -- requests -----------------------------------------------------------------------


def test_request_keys_are_value_based():
    a = CompileRequest("matmul", {"variant": "nn"})
    b = CompileRequest("matmul", {"variant": "nn"})
    c = CompileRequest("matmul", {"variant": "tn"})
    assert a.local_key() == b.local_key() and a.stable_key() == b.stable_key()
    assert a.local_key() != c.local_key() and a.stable_key() != c.stable_key()
    weighted = CompileRequest("matmul", {"variant": "nn"}, cost_weights=CostWeights.gpu_default())
    assert weighted.local_key() != a.local_key()
    assert weighted.stable_key() != a.stable_key()
    backended = CompileRequest("matmul", {"variant": "nn"}, backend="triton")
    assert backended.local_key() != a.local_key()


def test_stable_key_is_salted_by_the_code_fingerprint(monkeypatch):
    from repro.cache import persistent

    request = CompileRequest("matmul", {"variant": "nn"})
    baseline = request.stable_key()
    assert request.stable_key() == baseline  # stable within one process
    # different source tree -> different durable-tier key space
    monkeypatch.setattr(persistent, "_CODE_FINGERPRINT", "edited-source")
    assert request.stable_key() != baseline


def test_request_config_is_copied():
    config = {"variant": "nn"}
    request = CompileRequest("matmul", config)
    config["variant"] = "tt"
    assert request.config == {"variant": "nn"}


# -- deduplication and counters -----------------------------------------------------


def _counting_compiler(release: threading.Event | None = None):
    """A compiler that records its calls; with ``release``, every call (a
    leader, by construction) holds until the event is set."""
    calls: list[tuple] = []
    lock = threading.Lock()

    def compiler(request: CompileRequest):
        with lock:
            calls.append(request.local_key())
        if release is not None:
            assert release.wait(timeout=60), "the test never released the leaders"
        return get_app(request.app).generate(request.config)

    return compiler, calls


def test_batch_compiles_each_distinct_kernel_exactly_once():
    # leaders hold until the whole batch is submitted, so every duplicate
    # meets its leader in flight however fast a compile is
    release = threading.Event()
    compiler, calls = _counting_compiler(release)
    distinct = [
        CompileRequest("matmul", {"variant": v}) for v in ("nn", "nt", "tn", "tt")
    ] + [CompileRequest("softmax", {"implementation": "lego"})]
    requests = distinct * 8  # 40 requests, 5 distinct kernels
    with CompileService(compiler=compiler, workers=4) as service:
        try:
            futures = [service.submit(request) for request in requests]
            assert service.stats().submitted == len(requests)
        finally:
            release.set()
        kernels = [future.result(timeout=60) for future in futures]
        stats = service.stats()
        service.submit_batch(requests)  # the same batch, replayed warm
        warm = service.stats()
    assert len(calls) == len(distinct), "a kernel compiled more than once"
    assert sorted(set(calls)) == sorted(r.local_key() for r in distinct)
    assert stats.compiled == len(distinct)
    assert stats.deduped == len(requests) - len(distinct) and stats.memory_hits == 0
    # all duplicates share the leader's kernel object
    assert kernels[0] is kernels[5] is kernels[-5]
    # the warm replay is all memory hits and compiles nothing
    assert warm.memory_hits - stats.memory_hits == len(requests)
    assert warm.compiled == stats.compiled


def test_stats_invariants_hold_under_concurrent_submitters():
    compiler, calls = _counting_compiler()
    requests = synthetic_requests(apps=["matmul", "softmax", "layernorm"],
                                  total=120, duplicate_fraction=0.7, seed=3)
    distinct = len({r.local_key() for r in requests})
    service = CompileService(compiler=compiler, workers=4)
    threads = 6
    barrier = threading.Barrier(threads)
    chunks = [requests[i::threads] for i in range(threads)]

    def client(chunk):
        barrier.wait()
        service.submit_batch(chunk)

    pool = [threading.Thread(target=client, args=(chunk,)) for chunk in chunks]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    stats = service.stats()
    service.close()
    assert stats.submitted == stats.completed == len(requests)
    assert stats.submitted == stats.memory_hits + stats.memory_misses
    assert stats.memory_misses == stats.deduped + stats.compiled + stats.persistent_hits + stats.errors
    assert stats.compiled == len(calls) == distinct
    assert stats.errors == 0 and stats.queue_depth == 0
    assert stats.latency["count"] == len(requests)
    assert sum(s["hits"] for s in stats.shards) == stats.memory_hits


def test_compiler_errors_propagate_and_are_not_cached():
    attempts = []

    def flaky(request):
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient backend failure")
        return get_app(request.app).generate(request.config)

    request = CompileRequest("matmul", {"variant": "nn"})
    with CompileService(compiler=flaky, workers=2) as service:
        with pytest.raises(RuntimeError, match="transient"):
            service.compile(request)
        kernel = service.compile(request)  # error was not cached; retried
        stats = service.stats()
    assert kernel is not None and len(attempts) == 2
    assert stats.errors == 1 and stats.compiled == 1


# -- one contract, both spellings ---------------------------------------------------
#
# CompileFarm is CompileService with processes: everything below runs once on
# the in-process service and once on a one-worker farm.


@pytest.fixture(params=["service", "farm"])
def serving_stack(request, tmp_path):
    """Factory of the stack under test; ``durable=True`` roots it on one
    store location per test, so a second call is a restart on that store.
    With ``hold``, the service's leaders wait for it before compiling: an
    in-process compile holds the interpreter lock and can starve the
    submitting thread until it is done (a farm compiles in another process)."""

    def open_stack(durable: bool = False, hold: threading.Event | None = None):
        if request.param == "service":
            def held(compile_request):
                hold.wait(timeout=120)
                return default_compiler(compile_request)

            return CompileService(held if hold is not None else None, workers=2,
                                  store=tmp_path / "kernels.json" if durable else None)
        return CompileFarm(workers=1, store=tmp_path / "farm" if durable else None)

    return open_stack


def _ledger(stack) -> dict:
    """The default lane's ledger under one set of names, after checking the
    view-specific invariants (exact at quiescence)."""
    stats = stack.stats()
    if isinstance(stats, FarmStats):
        assert stats.lost == 0 and stats.double_compiled == 0
        assert stats.submitted == stats.shed + stats.resolved
        for lane in stats.lanes:
            assert lane.submitted == lane.shed + lane.resolved
            assert lane.resolved == (lane.memory_hits + lane.coalesced + lane.compiled
                                     + lane.store_hits + lane.dedup_waits + lane.errors)
            assert "worker_hits" not in lane.as_dict()  # the tier that never hit is gone
        # every leader resolution is one worker execution (nothing was re-driven;
        # the only errors here are worker-reported, on the leader of each group)
        leaders = sum(l.compiled + l.store_hits + l.dedup_waits for l in stats.lanes)
        assert stats.redriven == 0 and leaders <= stats.executions <= leaders + stats.errors
        lane = stats.lane(LANE_INTERACTIVE)
        return {"compiled": lane.compiled, "memory_hits": lane.memory_hits,
                "coalesced": lane.coalesced, "store_hits": lane.store_hits,
                "errors": lane.errors, "latency": lane.latency}
    assert stats.submitted == stats.completed == stats.memory_hits + stats.memory_misses
    assert stats.memory_misses == (stats.deduped + stats.compiled
                                   + stats.persistent_hits + stats.errors)
    assert stats.queue_depth == 0 and stats.latency["count"] == stats.completed
    return {"compiled": stats.compiled, "memory_hits": stats.memory_hits,
            "coalesced": stats.deduped, "store_hits": stats.persistent_hits,
            "errors": stats.errors, "latency": stats.latency}


_CONTRACT_REQUESTS = [
    CompileRequest("matmul", {"variant": "nn"}),
    CompileRequest("lud", {"n": 1024, "block": 64, "cuda_block": 16}),
    CompileRequest("softmax", {"implementation": "pytorch"}),  # generator declines: None
]


def test_contract_serves_the_default_compilers_kernels(serving_stack):
    expected = [getattr(default_compiler(r), "source", None) for r in _CONTRACT_REQUESTS]
    with serving_stack() as stack:
        served = [stack.compile(r) for r in _CONTRACT_REQUESTS]
        ledger = _ledger(stack)
    assert [getattr(k, "source", None) for k in served] == expected
    assert expected[-1] is None and ledger["compiled"] == len(_CONTRACT_REQUESTS)


def test_contract_duplicates_compile_once_and_share_the_result(serving_stack):
    distinct = _CONTRACT_REQUESTS[:2]
    requests = distinct * 6
    submitted = threading.Event()
    with serving_stack(hold=submitted) as stack:
        futures = [stack.submit(r) for r in requests]  # duplicates arrive mid-compile
        submitted.set()
        kernels = [f.result(timeout=120) for f in futures]
        ledger = _ledger(stack)
    assert ledger["compiled"] == len(distinct), "a kernel compiled more than once"
    assert ledger["coalesced"] + ledger["memory_hits"] == len(requests) - len(distinct)
    assert ledger["coalesced"] > 0, "no duplicate met its leader in flight"
    for index, kernel in enumerate(kernels):
        assert kernel is kernels[index % len(distinct)], "duplicates must share one kernel"


def test_contract_negative_result_is_cached_not_recompiled(serving_stack):
    declined = _CONTRACT_REQUESTS[-1]
    with serving_stack() as stack:
        assert stack.compile(declined) is None
        assert stack.compile(declined) is None
        ledger = _ledger(stack)
    assert ledger["compiled"] == 1 and ledger["memory_hits"] == 1


def test_contract_compiler_error_reaches_every_waiter_and_is_not_cached(serving_stack):
    wrong_backend = CompileRequest("matmul", {"variant": "nn"}, backend="cuda")
    with serving_stack() as stack:
        for future in [stack.submit(wrong_backend) for _ in range(3)]:
            with pytest.raises((ValueError, FarmCompileError), match="targets backend"):
                future.result(timeout=120)
        with pytest.raises((ValueError, FarmCompileError), match="targets backend"):
            stack.compile(wrong_backend)  # not cached: a retry leads (and fails) again
        ledger = _ledger(stack)
    assert ledger["errors"] == 4
    assert ledger["memory_hits"] == 0 and ledger["compiled"] == 0


def test_contract_closed_stack_rejects_submissions(serving_stack):
    stack = serving_stack()
    stack.close()
    stack.close()  # idempotent
    with pytest.raises(RuntimeError, match=f"{type(stack).__name__} is closed"):
        stack.submit(_CONTRACT_REQUESTS[0])


def test_contract_restart_on_the_same_store_compiles_nothing(serving_stack):
    with serving_stack(durable=True) as first:
        fresh = [first.compile(r) for r in _CONTRACT_REQUESTS]
        assert _ledger(first)["compiled"] == len(_CONTRACT_REQUESTS)
    with serving_stack(durable=True) as second:
        restored = [second.compile(r) for r in _CONTRACT_REQUESTS]
        ledger = _ledger(second)
    assert ledger["compiled"] == 0 and ledger["store_hits"] == len(_CONTRACT_REQUESTS)
    assert [getattr(k, "source", None) for k in restored] == \
        [getattr(k, "source", None) for k in fresh]


def test_contract_memory_hit_is_done_on_return_and_its_latency_is_measured(serving_stack):
    request = _CONTRACT_REQUESTS[0]
    with serving_stack() as stack:
        first = stack.compile(request)
        hits = [stack.submit(request) for _ in range(5)]
        assert all(f.done() for f in hits), "a memory hit settles before submit returns"
        assert all(f.result() is first for f in hits)
        ledger = _ledger(stack)
    assert ledger["memory_hits"] == 5 and ledger["compiled"] == 1
    # five of the six samples are memory hits, so the median is a hit's own
    # measured time: microseconds, but never a literal zero
    assert 0.0 < ledger["latency"]["p50_ms"] < ledger["latency"]["max_ms"]


# -- the persistent tier ------------------------------------------------------------


def test_persistent_tier_warms_a_fresh_service(tmp_path):
    store = tmp_path / "kernels.json"
    request = CompileRequest("lud", {"n": 1024, "block": 64, "cuda_block": 16})
    with CompileService(workers=2, store=store) as first:
        fresh = first.compile(request)
    assert store.exists()

    compiler, calls = _counting_compiler()
    with CompileService(compiler=compiler, workers=2, store=store) as second:
        restored = second.compile(request)
        stats = second.stats()
    assert calls == [], "the durable tier should have answered"
    assert stats.persistent_hits == 1 and stats.compiled == 0
    assert isinstance(restored, PersistedKernel)
    assert restored.source == fresh.source
    assert restored.rendered_expressions() == fresh.rendered_expressions()
    assert restored.binding_ops(CostWeights.gpu_default()) == fresh.binding_ops(
        CostWeights.gpu_default()
    )


def test_store_prunes_entries_stranded_by_a_code_change(tmp_path, monkeypatch):
    from repro.cache import ResultCache, persistent

    store = tmp_path / "kernels.json"
    with CompileService(workers=1, store=store) as first:
        first.compile(CompileRequest("matmul", {"variant": "nn"}))
    # tuner-style entries without a salt field must survive untouched
    shared = ResultCache(store)
    shared.put("eval-entry", {"time_seconds": 1.0})
    shared.save()
    assert len(ResultCache(store)) == 2

    # a source edit changes the fingerprint: the stranded kernel entry is
    # reclaimed on attach, the foreign entry is kept
    monkeypatch.setattr(persistent, "_CODE_FINGERPRINT", "edited-source")
    with CompileService(workers=1, store=store) as second:
        second.compile(CompileRequest("matmul", {"variant": "nn"}))
        assert second.stats().persistent_hits == 0  # old entry unreachable
        assert second.stats().compiled == 1
    reloaded = ResultCache(store)
    assert reloaded.get("eval-entry") == {"time_seconds": 1.0}
    assert len(reloaded) == 2  # foreign entry + the freshly salted kernel


def test_kernel_payload_roundtrip_includes_negative_results():
    fresh = get_app("matmul").generate({"variant": "nn"})
    restored = kernel_from_payload(kernel_payload(fresh))
    assert restored.source == fresh.source
    assert restored.name == fresh.name and restored.backend == fresh.backend
    assert restored.rendered_expressions() == fresh.rendered_expressions()
    assert kernel_from_payload(kernel_payload(None)) is None


# -- the autotuner on the service ---------------------------------------------------


def test_autotune_generation_dedups_through_the_service():
    from repro.tune import autotune

    service = CompileService(workers=4, cache=ShardedLRUCache(shards=4, capacity_per_shard=512))
    try:
        result = autotune("matmul", service=service)
        stats = service.stats()
        # 2 000 candidates project onto the 4 operand-layout variants, and the
        # tuner submits each distinct projected config once
        assert len(result) == 2000
        assert stats.submitted == stats.compiled == 4
        # a second sweep is served entirely from the warm cache
        again = autotune("matmul", service=service)
        assert service.stats().compiled == 4
        assert service.stats().memory_hits == 4
        assert again.best.config == result.best.config
        assert [c.index_ops for c in again.evaluations] == [
            c.index_ops for c in result.evaluations
        ]
    finally:
        service.close()


def test_autotune_ranking_unchanged_by_persisted_kernels(tmp_path):
    from repro.tune import autotune

    store = tmp_path / "kernels.json"
    with CompileService(workers=2, store=store) as first:
        cold = autotune("lud", service=first)
    with CompileService(workers=2, store=store) as second:
        warm = autotune("lud", service=second)
        stats = second.stats()
    assert stats.persistent_hits > 0 and stats.compiled == 0
    # the space has grown satellite axes since the paper's grid; the paper
    # winner is the subset that must survive
    assert warm.best.config == cold.best.config
    assert cold.best.config["block"] == 64 and cold.best.config["cuda_block"] == 16
    assert [c.index_ops for c in warm.evaluations] == [c.index_ops for c in cold.evaluations]
    assert [c.time_seconds for c in warm.evaluations] == [
        c.time_seconds for c in cold.evaluations
    ]


# -- synthetic traffic and the CLI --------------------------------------------------


def test_synthetic_requests_are_deterministic_and_duplicated():
    first = synthetic_requests(total=60, duplicate_fraction=0.5, seed=9)
    second = synthetic_requests(total=60, duplicate_fraction=0.5, seed=9)
    assert [(r.app, r.config) for r in first] == [(r.app, r.config) for r in second]
    assert len(first) == 60
    distinct = len({r.local_key() for r in first})
    assert distinct <= 30  # at least the duplicate fraction repeats
    shuffled = synthetic_requests(total=60, duplicate_fraction=0.5, seed=10)
    assert [(r.app, r.config) for r in first] != [(r.app, r.config) for r in shuffled]
    with pytest.raises(ValueError):
        synthetic_requests(total=0)
    with pytest.raises(ValueError):
        synthetic_requests(duplicate_fraction=1.0)


def test_cli_replay_reports_warm_second_pass(tmp_path, capsys):
    from repro.serve.__main__ import main

    out = tmp_path / "replay.json"
    report = main([
        "--apps", "matmul,softmax", "--requests", "40", "--workers", "2",
        "--passes", "2", "--store", str(tmp_path / "kernels.json"),
        "--json", str(out),
    ])
    assert report["requests"] == 40 and len(report["passes"]) == 2
    stats = report["stats"]
    assert stats["submitted"] == 80 and stats["errors"] == 0
    # the second pass never compiles: everything is already resident
    assert stats["compiled"] + stats["persistent_hits"] + stats["deduped"] <= 40
    assert stats["memory_hits"] >= 40
    assert out.exists()
    printed = capsys.readouterr().out
    assert '"requests_per_second"' in printed


def test_service_stats_latency_includes_p999():
    with CompileService(workers=2) as service:
        service.compile(CompileRequest("matmul", {"variant": "nn"}))
        latency = service.stats().latency
    assert {"p50_ms", "p95_ms", "p99_ms", "p999_ms"} <= set(latency)
    assert latency["p999_ms"] >= latency["p99_ms"] >= latency["p50_ms"] >= 0.0


def test_warm_from_table_skips_stale_version_rows(tmp_path):
    """Rows stamped by different source warm nothing at the service tier."""
    from repro.cache import ResultCache
    from repro.serve.service import table_requests
    from repro.tune.tables import TuningTable

    table = TuningTable(ResultCache(tmp_path / "stale.json"))
    from repro.cache import code_fingerprint

    table.put("matmul", "devA", {"variant": "nn"}, code="0" * 16)
    key = table.put("matmul", "devB", {"variant": "tn"})  # current source
    assert table.cache.get(key)["code"] == code_fingerprint()
    assert "version" not in table.cache.get(key)  # no hand-bumped label decides staleness
    requests = table_requests(table)
    assert [r.config["variant"] for r in requests] == ["tn"]
    with CompileService(workers=1) as service:
        assert service.warm_from_table(table) == 1
        assert service.stats().compiled == 1
