"""The concurrent compilation service and the symbolic layer's thread safety."""

import dataclasses
import importlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.apps.registry import get_app
from repro.cache import ShardedLRUCache
from repro.serve import (
    CompileFarm,
    CompileRequest,
    CompileService,
    FarmCompileError,
    FarmStats,
    PersistedKernel,
    default_compiler,
)
from repro.serve.service import kernel_from_payload, kernel_payload
from repro.symbolic import CostWeights, Var
from synthetic_traffic import synthetic_requests


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
    """Batch compiles through the service are byte-identical to the generators."""
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
    assert stats.coalesced == len(requests) - len(distinct) and stats.memory_hits == 0
    # all duplicates share the leader's kernel object
    assert kernels[0] is kernels[5] is kernels[-5]
    # the warm replay is all memory hits and compiles nothing
    assert warm.memory_hits - stats.memory_hits == len(requests)
    assert warm.compiled == stats.compiled


def _wait_for(condition, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting for the service"
        time.sleep(0.001)


def test_compiler_errors_propagate_and_are_not_cached():
    """A compile() leads on its own thread; its error reaches a follower that
    rode its ticket, with the same type, and a retry compiles afresh."""
    attempts, release = [], threading.Event()

    def flaky(request):
        attempts.append(threading.current_thread())
        if len(attempts) == 1:
            assert release.wait(timeout=60)
            raise RuntimeError("transient backend failure")
        return get_app(request.app).generate(request.config)

    request = CompileRequest("matmul", {"variant": "nn"})
    raised = []

    def lead():
        try:
            service.compile(request)
        except RuntimeError as exc:
            raised.append(exc)

    with CompileService(compiler=flaky, workers=2) as service:
        leader = threading.Thread(target=lead)
        leader.start()
        try:
            _wait_for(lambda: attempts)
            follower = service.submit(request)  # rides the inline leader's ticket
        finally:
            release.set()
        leader.join(timeout=60)
        assert not leader.is_alive()
        with pytest.raises(RuntimeError, match="transient") as followed:
            follower.result(timeout=60)
        kernel = service.compile(request)  # error was not cached; retried
        stats = service.stats()
    assert attempts == [leader, threading.current_thread()], "compile() led off its thread"
    assert [type(exc) for exc in raised] == [type(followed.value)]
    assert kernel is not None
    # the follower settles as an error too, on the leader's one compile
    assert stats.errors == 2 and stats.compiled == 1 and stats.resolved == 3


def test_a_queued_leader_refuses_cancel_and_still_resolves():
    """A cancelled leader queued behind another compile would never run: its
    ticket would stay in flight and every later request would coalesce onto it."""
    release = threading.Event()
    compiler, calls = _counting_compiler(release)
    running, queued = CompileRequest("matmul", {"variant": "nn"}), CompileRequest("matmul", {"variant": "tn"})
    with CompileService(compiler=compiler, workers=1) as service:
        try:
            first = service.submit(running)
            leader = service.submit(queued)  # waits for the one worker
            assert not leader.cancel() and not leader.cancelled()
        finally:
            release.set()
        assert first.result(timeout=60) is not None
        assert service.submit(queued).result(timeout=60) is leader.result(timeout=60)
        stats = service.stats()
    (lane,) = stats.lanes
    assert len(calls) == 2
    assert stats.submitted == stats.resolved == 3 and lane.pending == 0


def test_a_follower_refuses_cancel_and_every_waiter_gets_the_kernel():
    """A cancelled follower would make the leader's settling raise
    ``InvalidStateError`` and leave the followers after it unset."""
    release = threading.Event()
    compiler, calls = _counting_compiler(release)
    request = CompileRequest("matmul", {"variant": "nn"})
    with CompileService(compiler=compiler, workers=1) as service:
        try:
            futures = [service.submit(request) for _ in range(3)]  # a leader, two followers
            assert not futures[1].cancel()
        finally:
            release.set()
        kernels = [future.result(timeout=60) for future in futures]
        stats = service.stats()
    assert kernels[0] is not None and kernels[0] is kernels[1] is kernels[2]
    assert len(calls) == 1 and stats.coalesced == 2 and stats.resolved == 3


# -- where a leader runs: the caller's thread, or a pool thread for submit() ---------


def _pool_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("repro-serve")}


def test_synchronous_calls_lead_on_the_callers_thread_and_submit_stays_async(tmp_path):
    from repro.cache import ResultCache
    from repro.tune.tables import TuningTable

    table = TuningTable(ResultCache(tmp_path / "table.json"))
    table.put("matmul", "devA", {"variant": "tn"})
    release, leaders = threading.Event(), []

    def compiler(request):
        leaders.append(threading.current_thread())
        if request.config["variant"] == "tt":
            assert release.wait(timeout=60)
        return default_compiler(request)

    before = _pool_threads()
    with CompileService(compiler, workers=2) as service:
        service.compile(CompileRequest("matmul", {"variant": "nn"}))
        service.submit_batch([CompileRequest("matmul", {"variant": "nt"})] * 2)
        assert service.warm_from_table(table) == 1
        assert leaders == [threading.current_thread()] * 3
        assert _pool_threads() == before, "a synchronous call started a pool thread"
        try:
            future = service.submit(CompileRequest("matmul", {"variant": "tt"}))
            assert not future.done(), "submit() led on the caller's thread"
        finally:
            release.set()
        assert future.result(timeout=60) is not None
        assert leaders[-1] in _pool_threads() - before
        stats = _ledger(service)
    # the batch's repeat is a memory hit: its first member had led and finished
    assert stats.compiled == 4 and stats.memory_hits == 1


def test_an_inline_leader_serves_submit_and_batch_followers_once():
    """A compile() leading on its own thread is an in-flight leader like any
    other: a submit() and a submit_batch() of its key ride its ticket."""
    release = threading.Event()
    compiler, calls = _counting_compiler(release)
    request = CompileRequest("matmul", {"variant": "nn"})
    before = _pool_threads()
    with CompileService(compiler=compiler, workers=2) as service:
        led, batched = [], []
        leader = threading.Thread(target=lambda: led.append(service.compile(request)))
        batch = threading.Thread(target=lambda: batched.extend(service.submit_batch([request])))
        leader.start()
        try:
            _wait_for(lambda: calls)  # the leader is held inside the compiler
            follower = service.submit(request)
            batch.start()
            # the ledger counts a follower when it resolves, so watch the ticket
            _wait_for(lambda: len(service._inflight[request.local_key()].followers) == 2)
            assert not follower.done()
        finally:
            release.set()
        leader.join(timeout=60)
        batch.join(timeout=60)
        assert not leader.is_alive() and not batch.is_alive()
        assert _pool_threads() == before, "no request of this test needed the pool"
        stats = _ledger(service)
    assert len(calls) == 1 and stats.compiled == 1 and stats.coalesced == 2
    assert led[0] is not None and led[0] is follower.result() is batched[0]


def test_close_waits_for_a_caller_thread_leader_before_saving(tmp_path):
    """close() racing a compile() that leads on its own thread: the kernel the
    leader puts after close() began still reaches the durable log."""
    from repro.cache import ResultCache

    entered, release = threading.Event(), threading.Event()

    def gated(request):
        entered.set()
        assert release.wait(timeout=60)
        return default_compiler(request)

    request = CompileRequest("matmul", {"variant": "nn"})
    store = tmp_path / "kernels.json"
    service = CompileService(gated, workers=1, store=store)
    served = []
    leader = threading.Thread(target=lambda: served.append(service.compile(request)))
    leader.start()
    assert entered.wait(timeout=60)
    opener = threading.Timer(0.2, release.set)
    opener.start()
    try:
        service.close()
        assert release.is_set(), "close() returned while a leader was still compiling"
    finally:
        release.set()
        opener.join()
        leader.join(timeout=60)
    assert not leader.is_alive()
    stats = _ledger(service)
    assert stats.compiled == 1 and served[0] is not None
    saved = ResultCache(store).get(request.stable_key())
    assert saved is not None and saved["kernel"]["source"] == served[0].source


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
    submitting thread until it is done (a farm compiles in another process).
    ``compiler`` replaces the service's compiler (a farm's workers always run
    the default one)."""

    def open_stack(durable: bool = False, hold: threading.Event | None = None,
                   compiler=None):
        if request.param == "service":
            def held(compile_request):
                hold.wait(timeout=120)
                return default_compiler(compile_request)

            return CompileService(held if hold is not None else compiler, workers=4,
                                  store=tmp_path / "kernels.json" if durable else None)
        return CompileFarm(workers=1, store=tmp_path / "farm" if durable else None)

    return open_stack


#: the fields each lane row of a snapshot carries, on either stack (``pending``
#: and ``hit_rate`` are properties derived from them)
_LANE_ROW = {"lane", "limit", "submitted", "shed", "resolved", "errors",
             "memory_hits", "coalesced", "compiled", "store_hits", "dedup_waits",
             "latency"}


def _ledger(stack) -> FarmStats:
    """The stack's snapshot, after checking the one ledger's invariants (exact
    at quiescence) on its totals and on every lane."""
    stats = stack.stats()
    assert stats.lost == 0 and stats.double_compiled == 0 and stats.redriven == 0
    for ledger in (stats, *stats.lanes):
        assert ledger.submitted == ledger.shed + ledger.resolved
        assert ledger.resolved == (ledger.memory_hits + ledger.coalesced + ledger.compiled
                                   + ledger.store_hits + ledger.dedup_waits + ledger.errors)
    for lane in stats.lanes:
        assert lane.pending == 0 and lane.latency["count"] == lane.resolved
        assert {f.name for f in dataclasses.fields(lane)} == _LANE_ROW
        assert 0.0 <= lane.hit_rate <= 1.0
    if isinstance(stack, CompileFarm):
        # every leader resolution is one worker execution (nothing was re-driven;
        # the only errors here are worker-reported, on the leader of each group)
        leaders = stats.compiled + stats.store_hits + stats.dedup_waits
        assert leaders <= stats.executions <= leaders + stats.errors
    return stats


def test_contract_one_ledger_balances_under_concurrent_submitters(serving_stack):
    compiler, calls = _counting_compiler()
    requests = synthetic_requests(apps=["matmul", "softmax", "layernorm"],
                                  total=120, duplicate_fraction=0.7, seed=3)
    distinct = len({r.local_key() for r in requests})
    threads = 6
    barrier = threading.Barrier(threads)
    with serving_stack(compiler=compiler) as stack:
        def client(chunk):
            barrier.wait()
            stack.submit_batch(chunk)

        pool = [threading.Thread(target=client, args=(requests[i::threads],))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = _ledger(stack)
        cache = stack.cache.stats()
    assert stats.submitted == len(requests) and stats.errors == 0
    # the ledger's count against one kept outside it: the service's compiler
    # calls, the farm's worker executions (none store-served on a fresh store)
    outside = stats.executions if isinstance(stack, CompileFarm) else len(calls)
    assert stats.compiled == outside == distinct, "a kernel compiled more than once"
    # one counted memory-tier lookup per submission, summed over the shards
    assert cache["hits"] + cache["misses"] == stats.submitted
    assert sum(shard["hits"] for shard in cache["per_shard"]) == cache["hits"] == stats.memory_hits


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
    assert expected[-1] is None and ledger.compiled == len(_CONTRACT_REQUESTS)


def test_contract_duplicates_compile_once_and_share_the_result(serving_stack):
    distinct = _CONTRACT_REQUESTS[:2]
    requests = distinct * 6
    submitted = threading.Event()
    with serving_stack(hold=submitted) as stack:
        futures = [stack.submit(r) for r in requests]  # duplicates arrive mid-compile
        submitted.set()
        kernels = [f.result(timeout=120) for f in futures]
        ledger = _ledger(stack)
    assert ledger.compiled == len(distinct), "a kernel compiled more than once"
    assert ledger.coalesced + ledger.memory_hits == len(requests) - len(distinct)
    assert ledger.coalesced > 0, "no duplicate met its leader in flight"
    for index, kernel in enumerate(kernels):
        assert kernel is kernels[index % len(distinct)], "duplicates must share one kernel"


def test_contract_negative_result_is_cached_not_recompiled(serving_stack):
    declined = _CONTRACT_REQUESTS[-1]
    with serving_stack() as stack:
        assert stack.compile(declined) is None
        assert stack.compile(declined) is None
        ledger = _ledger(stack)
    assert ledger.compiled == 1 and ledger.memory_hits == 1


def test_contract_compiler_error_reaches_every_waiter_and_is_not_cached(serving_stack):
    wrong_backend = CompileRequest("matmul", {"variant": "nn"}, backend="cuda")
    with serving_stack() as stack:
        for future in [stack.submit(wrong_backend) for _ in range(3)]:
            with pytest.raises((ValueError, FarmCompileError), match="targets backend"):
                future.result(timeout=120)
        with pytest.raises((ValueError, FarmCompileError), match="targets backend"):
            stack.compile(wrong_backend)  # not cached: a retry leads (and fails) again
        ledger = _ledger(stack)
    assert ledger.errors == 4
    assert ledger.memory_hits == 0 and ledger.compiled == 0


def test_contract_closed_stack_rejects_submissions(serving_stack):
    stack = serving_stack()
    stack.close()
    stack.close()  # idempotent
    with pytest.raises(RuntimeError, match=f"{type(stack).__name__} is closed"):
        stack.submit(_CONTRACT_REQUESTS[0])


def test_contract_restart_on_the_same_store_compiles_nothing(serving_stack):
    with serving_stack(durable=True) as first:
        fresh = [first.compile(r) for r in _CONTRACT_REQUESTS]
        assert _ledger(first).compiled == len(_CONTRACT_REQUESTS)
        # one durable entry per kernel, the declined generation's included
        assert len(first.store) == len(_CONTRACT_REQUESTS)
    with serving_stack(durable=True) as second:
        restored = [second.compile(r) for r in _CONTRACT_REQUESTS]
        ledger = _ledger(second)
    assert ledger.compiled == 0 and ledger.store_hits == len(_CONTRACT_REQUESTS)
    assert [getattr(k, "source", None) for k in restored] == \
        [getattr(k, "source", None) for k in fresh]


def test_contract_warm_second_pass_compiles_nothing(serving_stack):
    """One request list served twice on a fresh store: the second pass is all
    memory hits, and the store holds one durable entry per distinct kernel."""
    requests = synthetic_requests(apps=["matmul", "softmax"], total=40, seed=5)
    distinct = len({r.local_key() for r in requests})
    with serving_stack(durable=True) as stack:
        first = stack.submit_batch(requests)
        cold = _ledger(stack)
        second = stack.submit_batch(requests)
        warm = _ledger(stack)
        cache = stack.cache.stats()
        store_entries = len(stack.store)
    assert warm.submitted == 2 * len(requests) and warm.errors == 0
    assert cold.compiled == distinct
    assert warm.compiled == cold.compiled and warm.store_hits == cold.store_hits
    assert warm.coalesced == cold.coalesced
    assert warm.memory_hits - cold.memory_hits == len(requests)
    assert cache["hits"] == warm.memory_hits
    assert store_entries == distinct
    assert [getattr(k, "source", None) for k in second] == \
        [getattr(k, "source", None) for k in first]


def test_contract_memory_hit_is_done_on_return_and_its_latency_is_measured(serving_stack):
    request = _CONTRACT_REQUESTS[0]
    with serving_stack() as stack:
        first = stack.compile(request)
        hits = [stack.submit(request) for _ in range(5)]
        assert all(f.done() for f in hits), "a memory hit settles before submit returns"
        assert all(f.result() is first for f in hits)
        ledger = _ledger(stack)
    assert ledger.memory_hits == 5 and ledger.compiled == 1
    # five of the six samples are memory hits, so the median is a hit's own
    # measured time: microseconds, but never a literal zero
    (lane,) = [lane for lane in ledger.lanes if lane.submitted]
    assert 0.0 < lane.latency["p50_ms"] < lane.latency["max_ms"]


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
    assert stats.store_hits == 1 and stats.compiled == 0
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
        assert second.stats().store_hits == 0  # old entry unreachable
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
    assert stats.store_hits > 0 and stats.compiled == 0
    # the space has grown satellite axes since the paper's grid; the paper
    # winner is the subset that must survive
    assert warm.best.config == cold.best.config
    assert cold.best.config["block"] == 64 and cold.best.config["cuda_block"] == 16
    assert [c.index_ops for c in warm.evaluations] == [c.index_ops for c in cold.evaluations]
    assert [c.time_seconds for c in warm.evaluations] == [
        c.time_seconds for c in cold.evaluations
    ]


# -- synthetic traffic ----------------------------------------------------------------


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


def test_the_replay_cli_and_its_traffic_module_are_gone():
    """The serving surface is the request path: no replay CLI, no traffic traces."""
    root = Path(__file__).resolve().parents[1]
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serve.traffic")
    run = subprocess.run(
        [sys.executable, "-m", "repro.serve"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode != 0
    assert "No module named repro.serve.__main__" in run.stderr, run.stderr


def test_service_stats_latency_includes_p999():
    with CompileService(workers=2) as service:
        service.compile(CompileRequest("matmul", {"variant": "nn"}))
        (lane,) = service.stats().lanes
    latency = lane.latency
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
