"""The unified observability layer: tracer, metrics registry, attribution.

Covers these contracts explicitly:

* the shared ceil-based nearest-rank percentile (one implementation, both
  call sites pinned),
* :class:`~repro.obs.metrics.Histogram` under concurrent ``observe()`` —
  exact count/total at quiescence, reservoir eviction order — and the serve
  ledger's millisecond view of it,
* registry deltas (``after - before``: counters never reset) and the keys
  the measured ladder reads,
* span-tree reconstruction, per-stage attribution and the Chrome trace-event
  schema validator,
* the instrumented autotune's stage coverage (``python -m repro.obs``) and
  the cost of disabled spans against a serve replay.
"""

import json
import threading
import time

import pytest

from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    SpanNode,
    Tracer,
    attribution,
    percentile,
    span,
    span_trees,
    validate_chrome_trace,
)
from repro.obs.trace import TRACER, tracing


# -- shared percentile helper -------------------------------------------------------


def test_percentile_nearest_rank_semantics():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([7.0], 0.99) == 7.0
    # ceil-based nearest rank: p50 of [1, 2] is the 1st smallest
    assert percentile([1.0, 2.0], 0.50) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
    ordered = [float(i) for i in range(1, 101)]
    assert percentile(ordered, 0.50) == 50.0
    assert percentile(ordered, 0.95) == 95.0
    assert percentile(ordered, 0.99) == 99.0
    assert percentile(ordered, 1.0) == 100.0
    assert percentile(ordered, 0.0) == 1.0


def test_percentile_is_the_single_shared_implementation():
    """The serve ledger's latency is the one obs reservoir, read in milliseconds."""
    from repro.obs.metrics import Histogram
    from repro.serve.metrics import LaneLedger

    ledger, histogram = LaneLedger(10_000), Histogram("latency")
    assert isinstance(ledger.latency, Histogram)
    for ms in (5, 1, 4, 2, 3):
        ledger.settle("compiled", ms / 1e3)
        histogram.observe(ms / 1e3)
    snap, collected = ledger.read()["latency"], histogram.collect()
    assert set(snap) == {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms"}
    for name in ("mean", "p50", "p95", "p99", "p999", "max"):
        assert snap[f"{name}_ms"] == collected[f"latency.{name}"] * 1e3
    assert collected["latency.p999"] == percentile([0.001, 0.002, 0.003, 0.004, 0.005], 0.999)


def test_ledger_latency_percentiles_pinned():
    """The p50/p95/p99 regression behaviour the serve side always had."""
    from repro.serve.metrics import LaneLedger

    ledger = LaneLedger(10_000)
    for ms in range(1, 101):
        ledger.settle("memory_hit", ms / 1e3)
    snap = ledger.read()["latency"]
    assert snap["count"] == 100
    assert snap["p50_ms"] == pytest.approx(50.0)
    assert snap["p95_ms"] == pytest.approx(95.0)
    assert snap["p99_ms"] == pytest.approx(99.0)
    assert snap["max_ms"] == pytest.approx(100.0)


# -- Histogram under concurrency ----------------------------------------------------


def test_histogram_concurrent_observe_exact_at_quiescence():
    from repro.obs.metrics import Histogram

    histogram = Histogram("latency", max_samples=50_000)
    threads, per_thread = 8, 2_000
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(per_thread):
            histogram.observe(0.001)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    snap = histogram.collect()
    assert histogram.count == threads * per_thread
    assert snap["latency.count"] == threads * per_thread
    # the running sum is exact: mean of identical samples is the sample
    assert snap["latency.mean"] == pytest.approx(0.001)


def test_histogram_reservoir_evicts_oldest_first():
    from repro.obs.metrics import Histogram

    histogram = Histogram("latency", max_samples=10)
    for value in range(25):
        histogram.observe(float(value))
    # the reservoir keeps exactly the 10 most recent samples (15..24) while
    # count/total still cover all 25
    snap = histogram.collect()
    assert snap["latency.max"] == 24.0
    assert snap["latency.p999"] == 24.0
    assert snap["latency.count"] == 25
    assert snap["latency.mean"] == pytest.approx(sum(range(25)) / 25)
    assert snap["latency.p50"] == 19.0


def test_histogram_rejects_nonpositive_bound():
    from repro.obs.metrics import Histogram

    with pytest.raises(ValueError):
        Histogram("latency", max_samples=0)


# -- registry deltas ----------------------------------------------------------------


def test_registry_delta_is_after_minus_before():
    """Counters never reset, so a delta is the exact count over the window;
    a gauge's may be negative."""
    registry = MetricsRegistry()
    hits, misses = registry.counter("t.simplify_hits"), registry.counter("t.simplify_misses")
    rule = registry.counter("t.rule_applications.mod_fold")
    size = {"entries": 40}
    registry.gauge("t.memo_entries", fn=lambda: size["entries"])
    hits.inc(100)
    before = registry.snapshot()
    hits.inc(5)
    misses.inc()
    rule.inc()
    rule.inc()
    size["entries"] = 3  # the table was cleared mid-window
    registry.counter("t.late").inc(4)
    delta = MetricsRegistry.delta(before, registry.snapshot())
    assert delta == {"t.simplify_hits": 5.0, "t.simplify_misses": 1.0,
                     "t.rule_applications.mod_fold": 2.0, "t.memo_entries": -37.0,
                     "t.late": 4.0}


def test_registry_snapshot_prefix_narrows_to_one_family():
    registry = MetricsRegistry()
    registry.counter("a.hits").inc()
    registry.gauge("a.size", fn=lambda: 4)
    registry.counter("b.hits").inc(2)
    assert registry.snapshot("a.") == {"a.hits": 1.0, "a.size": 4.0}
    assert set(registry.snapshot()) == {"a.hits", "a.size", "b.hits"}


def test_counter_concurrent_inc_exact_at_quiescence():
    """The symbolic cache counters are registry counters: exact under threads."""
    import sys

    counter = MetricsRegistry().counter("t.hits")
    threads, per_thread = 8, 5_000
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(per_thread):
            counter.inc()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often: an unlocked += would lose updates
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert counter.value == threads * per_thread


def test_rewrite_rule_holds_its_registry_counter():
    from repro.symbolic import CACHE_PREFIX, SymbolicEnv, cache_statistics, simplify
    from repro.symbolic.simplify import RULE_REGISTRY

    (rule,) = [r for r in RULE_REGISTRY if r.name == "mod-range-identity"]
    key = f"{CACHE_PREFIX}rule_applications.{rule.name}"
    assert rule.counter is REGISTRY.counter(key)
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    before = cache_statistics()
    assert simplify(i % 8, env) == i
    assert MetricsRegistry.delta(before, cache_statistics())[key] == 1.0


def test_generation_report_hit_rate_from_hits_and_misses():
    from repro.codegen import GenerationReport
    from repro.symbolic import CACHE_PREFIX

    report = GenerationReport("k", 0.0, 0, 0, cache_stats={
        CACHE_PREFIX + "simplify_hits": 5.0, CACHE_PREFIX + "simplify_misses": 1.0,
        CACHE_PREFIX + "proof_hits": 0.0, CACHE_PREFIX + "proof_misses": 0.0,
    })
    assert report.cache_hit_rate("simplify") == pytest.approx(5 / 6)
    assert report.cache_hit_rate("proof") is None


# -- tracer -------------------------------------------------------------------------


def test_disabled_tracer_records_nothing_and_reuses_null_span():
    from repro.obs.trace import _NULL_SPAN

    tracer = Tracer(enabled=False)
    s1 = tracer.span("a")
    s2 = tracer.span("b", app="x")
    assert s1 is _NULL_SPAN and s2 is _NULL_SPAN
    with s1 as inner:
        inner.add(key="value")
    tracer.instant("point")
    assert len(tracer) == 0


def test_tracer_records_nested_spans_with_containment():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", "test"):
        with tracer.span("inner", "test", detail=1):
            time.sleep(0.001)
    events = tracer.events()
    assert [e["name"] for e in events] == ["inner", "outer"]
    outer = events[1]
    inner = events[0]
    assert outer["ph"] == inner["ph"] == "X"
    assert outer["ts"] <= inner["ts"]
    assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]
    assert inner["args"] == {"detail": 1}


def test_span_records_exception_and_propagates():
    tracer = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tracer.span("failing", "test"):
            raise RuntimeError("boom")
    (event,) = tracer.events()
    assert event["args"]["error"] == "RuntimeError"


def test_tracer_bounded_buffer_counts_drops():
    tracer = Tracer(enabled=True, max_events=3)
    for index in range(5):
        with tracer.span(f"s{index}"):
            pass
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert tracer.chrome_trace()["otherData"]["dropped"] == 2
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


def test_tracer_threads_share_one_clock_and_metadata():
    tracer = Tracer(enabled=True)

    def worker():
        with tracer.span("worker.task", "test"):
            pass

    with tracer.span("main.task", "test"):
        thread = threading.Thread(target=worker, name="obs-worker")
        thread.start()
        thread.join()
    trace = tracer.chrome_trace()
    names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert "obs-worker" in names
    tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert len(tids) == 2


def test_chrome_trace_export_is_valid_json_and_schema(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("stage", "test", app="matmul"):
        tracer.instant("marker", "test", note="hello")
    path = tracer.export(tmp_path / "trace.json")
    loaded = json.loads(path.read_text())
    assert validate_chrome_trace(loaded) == []
    assert loaded["otherData"]["producer"] == "repro.obs"
    phases = sorted(e["ph"] for e in loaded["traceEvents"])
    assert phases == ["M", "X", "i"]


def test_trace_schema_validator_flags_malformed_events():
    bad = {
        "traceEvents": [
            {"name": 7, "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0},
            {"name": "neg", "ph": "X", "pid": 1, "tid": 1, "ts": -5.0, "dur": 1.0},
            {"name": "nodur", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0},
            {"name": "badph", "ph": "?", "pid": 1, "tid": 1, "ts": 0.0},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) == 4


def test_tracing_context_manager_restores_state():
    previous = TRACER.enabled
    with tracing(True):
        assert TRACER.enabled
    assert TRACER.enabled == previous


# -- metrics registry ---------------------------------------------------------------


def test_registry_counter_gauge_histogram_snapshot():
    registry = MetricsRegistry()
    registry.counter("test.requests").inc(3)
    registry.gauge("test.depth").set(7)
    hist = registry.histogram("test.latency")
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    snap = registry.snapshot()
    assert snap["test.requests"] == 3.0
    assert snap["test.depth"] == 7.0
    assert snap["test.latency.count"] == 4.0
    assert snap["test.latency.mean"] == pytest.approx(2.5)
    assert snap["test.latency.p50"] == 2.0
    assert snap["test.latency.max"] == 4.0


def test_registry_create_or_get_and_type_conflicts():
    registry = MetricsRegistry()
    c1 = registry.counter("dup.name")
    assert registry.counter("dup.name") is c1
    with pytest.raises(ValueError):
        registry.gauge("dup.name")
    with pytest.raises(ValueError):
        registry.counter("x").inc(-1)
    backed = registry.gauge("cb", fn=lambda: 42.0)
    assert backed.value == 42.0
    with pytest.raises(ValueError):
        backed.set(1.0)


def test_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("test.total", help="requests").inc(2)
    registry.gauge("test-depth").set(3)
    hist = registry.histogram("test.lat")
    for v in range(1, 101):
        hist.observe(float(v))
    text = registry.render_prometheus()
    assert "# HELP test_total requests" in text
    assert "# TYPE test_total counter" in text
    assert "test_total 2" in text
    assert "test_depth 3" in text  # dashes sanitized
    assert 'test_lat{quantile="0.5"} 50' in text
    assert 'test_lat{quantile="0.99"} 99' in text
    assert "test_lat_count 100" in text


def test_default_registry_holds_symbolic_cache_counters():
    snap = REGISTRY.snapshot()
    assert any(key.startswith("repro.symbolic.cache.") for key in snap)


#: every registry key perfbench's ladder reads (``perfbench/layers.py``)
_LADDER_KEYS = (
    *(f"repro.symbolic.cache.{kind}_{outcome}"
      for kind in ("simplify", "fixpoint", "proof", "range") for outcome in ("hits", "misses")),
    "repro.symbolic.cache.interned_nodes",
    "repro.symbolic.guards_eliminated",
    "repro.symbolic.proofs_static",
    "repro.symbolic.proofs_fallback",
)


def test_registry_carries_every_key_the_ladder_reads():
    from repro.apps.registry import get_app
    from repro.serve import CompileRequest
    from repro.serve.service import default_compiler
    from repro.serve.traffic import generating_apps

    for name in generating_apps():
        space = get_app(name).space
        default_compiler(CompileRequest(name, next(iter(space))))
    snap = REGISTRY.snapshot()
    missing = [key for key in _LADDER_KEYS if key not in snap]
    assert not missing, missing
    # one executor per substrate: nothing counts fallbacks, perfbench reads a 0
    assert snap.get("repro.vm.fallbacks", 0.0) == 0.0
    assert not any("epoch" in key for key in snap), "counters never reset: no epoch"


# -- span trees and attribution -----------------------------------------------------


def _event(name, ts, dur, tid=1, pid=1, cat="test"):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid}


def test_span_tree_reconstruction_from_containment():
    events = [
        _event("child.b", 60.0, 30.0),
        _event("root", 0.0, 100.0),
        _event("child.a", 10.0, 40.0),
        _event("grandchild", 15.0, 10.0),
    ]
    trees = span_trees(events)
    ((_, roots),) = trees.items()
    (root,) = roots
    assert root.name == "root"
    assert [c.name for c in root.children] == ["child.a", "child.b"]
    assert [g.name for g in root.children[0].children] == ["grandchild"]
    assert root.self_time == pytest.approx(100.0 - 40.0 - 30.0)
    assert isinstance(root, SpanNode)
    assert sum(1 for _ in root.walk()) == 4


def test_attribution_self_times_sum_to_wall():
    events = [
        _event("root", 0.0, 100.0),
        _event("stage.a", 5.0, 50.0),
        _event("stage.b", 60.0, 35.0),
        _event("stage.a", 20.0, 10.0),  # nested under the first stage.a
    ]
    report = attribution(events, root_name="root")
    assert report["root"] == "root"
    assert report["wall_ms"] == pytest.approx(0.1)
    # within one tree the self-times sum exactly to the root duration
    assert report["self_sum_ms"] == pytest.approx(report["wall_ms"])
    assert report["coverage"] == pytest.approx(1.0 - (100 - 50 - 35) / 100)
    stages = report["stages"]
    assert stages["stage.a"]["count"] == 2
    assert stages["stage.a"]["self_ms"] == pytest.approx(0.05)
    assert stages["stage.b"]["self_ms"] == pytest.approx(0.035)


def test_attribution_separates_worker_threads():
    events = [
        _event("root", 0.0, 100.0, tid=1),
        _event("stage.a", 10.0, 80.0, tid=1),
        _event("worker.compile", 20.0, 30.0, tid=2),
    ]
    report = attribution(events, root_name="root")
    assert "worker.compile" not in report["stages"]
    assert report["other_threads"]["worker.compile"]["self_ms"] == pytest.approx(0.03)
    # overlapping worker time never inflates main-tree coverage past 100%
    assert report["coverage"] <= 1.0


def test_end_to_end_traced_block_attributes(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("job", "test"):
        with tracer.span("job.load", "test"):
            time.sleep(0.002)
        with tracer.span("job.compute", "test"):
            time.sleep(0.002)
    report = attribution(tracer.events(), root_name="job")
    assert set(report["stages"]) >= {"job.load", "job.compute"}
    assert report["coverage"] > 0.5
    assert validate_chrome_trace(tracer.chrome_trace()) == []


def test_instrumented_autotune_attributes_its_wall_time_to_the_named_stages():
    from repro.obs.__main__ import run_instrumented_autotune

    report = run_instrumented_autotune("matmul", measure_top_k=3)
    assert report["missing_stages"] == [], "the span tree misses a required stage"
    assert report["coverage"] >= 0.90
    # self-times sum to the root's wall (a containment bug breaks this first)
    wall, self_sum = report["attribution"]["wall_ms"], report["attribution"]["self_sum_ms"]
    assert wall > 0 and abs(self_sum - wall) <= 0.1 * wall
    assert report["schema_problems"] == []
    assert len(report["trace"]["traceEvents"]) > 10


def test_disabled_spans_cost_under_two_percent_of_a_serve_replay():
    # arithmetic, not an A/B of wall clocks: the per-call cost of a disabled
    # span times the spans a traced 400-request replay records
    from repro.serve import CompileService, synthetic_requests

    calls = 20_000
    with tracing(False):
        started = time.perf_counter()
        for _ in range(calls):
            with span("test.noop", "test", key=1):
                pass
        disabled_seconds = (time.perf_counter() - started) / calls
    requests = synthetic_requests(total=400, duplicate_fraction=0.5, seed=3)
    with tracing(True):
        TRACER.clear()
        with CompileService(workers=2) as service:
            started = time.perf_counter()
            service.submit_batch(requests)
            replay_seconds = time.perf_counter() - started
        spans = len(TRACER.events())
        TRACER.clear()
    assert spans > 0, "the traced replay recorded no spans"
    assert spans * disabled_seconds < 0.02 * replay_seconds


# -- serialization satellites -------------------------------------------------------


def test_kernel_profile_serializes_device():
    from repro.perf.profile import KernelProfile

    profile = KernelProfile(app="matmul", device="a100-80gb")
    payload = profile.as_dict()
    assert payload["device"] == "a100-80gb"


def test_search_result_serializes_stage_seconds():
    from repro.tune import Candidate, TuneResult

    result = TuneResult(
        app="matmul", device="h100", strategy="halving", space_size=10,
        evaluations=[Candidate(config={"BM": 64}, time_seconds=1e-3)],
        stage_seconds={"prefilter": 0.5, "measure": 1.5},
    )
    summary = result.summary()
    assert summary["stage_seconds"] == {"prefilter": 0.5, "measure": 1.5}
    assert summary["device"] == "h100"


# -- range-analysis instrumentation (ISSUE: stride-aware range analysis) ------------


def test_symbolic_range_span_nests_under_codegen_lower():
    from repro.codegen import CodegenContext, prove_guard_redundant
    from repro.symbolic import SymbolicEnv

    with tracing(True):
        TRACER.clear()
        ctx = CodegenContext("traced_obligation")
        i = ctx.index("i", 16)
        ctx.bind("offset", i * 4 + 3)
        ctx.require_in_bounds("offset", 0, 63)
        ctx.lower()
        events = TRACER.events()
    assert ctx.proven_bounds == {"offset": True}
    # touch the other proof outcomes so all three counters are registered
    env = SymbolicEnv()
    j = env.declare_index("j", 8)
    assert prove_guard_redundant(j.lt(8), env, kernel="traced_obligation")
    assert not prove_guard_redundant(j.lt(7), env, kernel="traced_obligation")
    lower = [e for e in events if e["name"] == "codegen.lower"]
    proofs = [e for e in events if e["name"] == "symbolic.range"]
    assert lower and proofs
    outer = lower[-1]
    for inner in proofs:
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]
    assert proofs[-1]["args"]["kernel"] == "traced_obligation"
    assert proofs[-1]["args"]["query"] == "in_bounds"
    # the proof outcome counters are registered on the shared registry
    names = set(REGISTRY.snapshot())
    assert "repro.symbolic.proofs_static" in names
    assert "repro.symbolic.proofs_fallback" in names
    assert "repro.symbolic.guards_eliminated" in names
