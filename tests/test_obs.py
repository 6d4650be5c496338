"""The unified observability layer: tracer, metrics registry, attribution.

Covers the ISSUE-8 satellite contracts explicitly:

* the shared ceil-based nearest-rank percentile (one implementation, both
  call sites pinned),
* :class:`~repro.serve.metrics.LatencyRecorder` under concurrent
  ``record()`` — exact count/total at quiescence, reservoir eviction order,
* :class:`~repro.symbolic.stats.CacheCounters` snapshot/delta round-trips,
  including a reset between the snapshots (negative deltas are impossible),
* span-tree reconstruction, per-stage attribution and the Chrome trace-event
  schema validator the ``obs-smoke`` CI job runs.
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
    """The serve recorder is a millisecond view over the one obs reservoir."""
    from repro.obs.metrics import Histogram
    from repro.serve.metrics import LatencyRecorder

    recorder, histogram = LatencyRecorder(), Histogram("latency")
    assert isinstance(recorder._histogram, Histogram)
    for ms in (5, 1, 4, 2, 3):
        recorder.record(ms / 1e3)
        histogram.observe(ms / 1e3)
    snap, collected = recorder.snapshot(), histogram.collect()
    assert set(snap) == {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms"}
    for name in ("mean", "p50", "p95", "p99", "p999", "max"):
        assert snap[f"{name}_ms"] == collected[f"latency.{name}"] * 1e3
    assert collected["latency.p999"] == percentile([0.001, 0.002, 0.003, 0.004, 0.005], 0.999)


def test_latency_recorder_percentiles_pinned():
    """The p50/p95/p99 regression behaviour the serve side always had."""
    from repro.serve.metrics import LatencyRecorder

    recorder = LatencyRecorder()
    for ms in range(1, 101):
        recorder.record(ms / 1e3)
    snap = recorder.snapshot()
    assert snap["count"] == 100
    assert snap["p50_ms"] == pytest.approx(50.0)
    assert snap["p95_ms"] == pytest.approx(95.0)
    assert snap["p99_ms"] == pytest.approx(99.0)
    assert snap["max_ms"] == pytest.approx(100.0)


# -- LatencyRecorder under concurrency (satellite 3) --------------------------------


def test_latency_recorder_concurrent_record_exact_at_quiescence():
    from repro.serve.metrics import LatencyRecorder

    recorder = LatencyRecorder(max_samples=50_000)
    threads, per_thread = 8, 2_000
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(per_thread):
            recorder.record(0.001)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    snap = recorder.snapshot()
    assert recorder.count == threads * per_thread
    assert snap["count"] == threads * per_thread
    # the running sum is exact: mean of identical samples is the sample
    assert snap["mean_ms"] == pytest.approx(1.0)


def test_latency_recorder_reservoir_evicts_oldest_first():
    from repro.serve.metrics import LatencyRecorder

    recorder = LatencyRecorder(max_samples=10)
    for value in range(25):
        recorder.record(float(value))
    # the reservoir keeps exactly the 10 most recent samples (15..24) while
    # count/total still cover all 25
    snap = recorder.snapshot()
    assert snap["max_ms"] == pytest.approx(24.0 * 1e3)
    assert snap["p999_ms"] == pytest.approx(24.0 * 1e3)
    assert snap["count"] == 25
    assert snap["mean_ms"] == pytest.approx(sum(range(25)) / 25 * 1e3)
    assert snap["p50_ms"] == pytest.approx(19.0 * 1e3)


def test_latency_recorder_rejects_nonpositive_bound():
    from repro.serve.metrics import LatencyRecorder

    with pytest.raises(ValueError):
        LatencyRecorder(max_samples=0)


# -- CacheCounters snapshot/delta round-trips (satellites 3 + 6) --------------------


def test_cache_counters_delta_roundtrip():
    from repro.symbolic.stats import CacheCounters

    counters = CacheCounters()
    before = counters.snapshot()
    counters.simplify_hits += 5
    counters.simplify_misses += 1
    counters.count_rule("mod_fold")
    counters.count_rule("mod_fold")
    after = counters.snapshot()
    delta = CacheCounters.delta(before, after)
    assert delta["simplify_hits"] == 5
    assert delta["simplify_misses"] == 1
    assert delta["simplify_hit_rate"] == pytest.approx(5 / 6)
    assert delta["rule_applications"] == {"mod_fold": 2}
    assert "epoch" not in delta


def test_cache_counters_delta_never_negative_across_reset():
    """A third-party snapshot holder survives a reset mid-window (satellite 6)."""
    from repro.symbolic.stats import CacheCounters

    counters = CacheCounters()
    counters.simplify_hits = 100
    counters.proof_misses = 40
    counters.count_rule("add_fold")
    before = counters.snapshot()
    counters.reset()  # bumps the epoch
    counters.simplify_hits = 3
    after = counters.snapshot()
    delta = CacheCounters.delta(before, after)
    assert all(
        value >= 0
        for value in delta.values()
        if isinstance(value, (int, float))
    ), delta
    # the delta is the exact count since the reset, not after-minus-stale
    assert delta["simplify_hits"] == 3
    assert delta["proof_misses"] == 0
    assert delta["rule_applications"] == {}


def test_reset_cache_statistics_routes_through_registry():
    from repro.symbolic.stats import reset_cache_statistics

    before = REGISTRY.snapshot()
    reset_cache_statistics()
    after = REGISTRY.snapshot()
    assert after["__epoch__"] > before["__epoch__"]
    # registry-level deltas across the reset are clamped non-negative too
    delta = MetricsRegistry.delta(before, after)
    assert all(value >= 0 for value in delta.values())


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


def test_registry_absorbs_live_sources_and_delta_clamps():
    registry = MetricsRegistry()
    state = {"hits": 10, "nested": {"misses": 2}}
    registry.register_source("svc", lambda: state)
    before = registry.snapshot()
    assert before["svc.hits"] == 10.0
    assert before["svc.nested.misses"] == 2.0
    state["hits"] = 25  # sources are read live, never copied
    after = registry.snapshot()
    delta = MetricsRegistry.delta(before, after)
    assert delta["svc.hits"] == 15.0
    # a shrinking value (reset without epoch bump) clamps to zero
    state["hits"] = 1
    assert MetricsRegistry.delta(after, registry.snapshot())["svc.hits"] == 0.0
    assert registry.unregister_source("svc")
    assert "svc.hits" not in registry.snapshot()


def test_registry_epoch_reset_semantics():
    registry = MetricsRegistry()
    counts = {"n": 100}
    registry.register_source("src", lambda: counts)
    before = registry.snapshot()
    registry.on_reset("src")
    counts["n"] = 5
    after = registry.snapshot()
    delta = MetricsRegistry.delta(before, after)
    # after the reset the delta is the exact post-reset count, never -95
    assert delta["src.n"] == 5.0
    assert registry.snapshot()["repro.obs.source_resets"] == 1.0


def test_registry_dead_source_skipped():
    registry = MetricsRegistry()

    def dead():
        raise RuntimeError("service closed")

    registry.register_source("healthy", lambda: {"hits": 3})
    registry.counter("alive").inc()
    assert registry.snapshot().get("repro.obs.source_errors", 0.0) == 0.0
    registry.register_source("gone", dead)
    snap = registry.snapshot()
    assert snap["alive"] == 1.0 and snap["healthy.hits"] == 3.0
    assert not any(key.startswith("gone") for key in snap)
    assert snap["repro.obs.source_errors"] == 1.0, "a swallowed source failure left no trace"
    text = registry.render_prometheus()  # the exposition isolates and counts too
    assert "healthy_hits 3" in text and "repro_obs_source_errors 2" in text


def test_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("test.total", help="requests").inc(2)
    registry.gauge("test-depth").set(3)
    hist = registry.histogram("test.lat")
    for v in range(1, 101):
        hist.observe(float(v))
    registry.register_source("src", lambda: {"hits": 9})
    text = registry.render_prometheus()
    assert "# HELP test_total requests" in text
    assert "# TYPE test_total counter" in text
    assert "test_total 2" in text
    assert "test_depth 3" in text  # dashes sanitized
    assert 'test_lat{quantile="0.5"} 50' in text
    assert 'test_lat{quantile="0.99"} 99' in text
    assert "test_lat_count 100" in text
    assert "src_hits 9" in text


def test_default_registry_absorbs_symbolic_cache():
    snap = REGISTRY.snapshot()
    assert any(key.startswith("repro.symbolic.cache.") for key in snap)


def test_service_register_metrics_roundtrip():
    from repro.serve import CompileService

    registry = MetricsRegistry()
    with CompileService(workers=1) as service:
        name = service.register_metrics(registry=registry)
        snap = registry.snapshot()
        assert f"{name}.submitted" in snap
        assert registry.unregister_source(name)


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
        stage_seconds={"prefilter": 0.5, "model": 0.01, "measure": 1.5},
    )
    summary = result.summary()
    assert summary["stage_seconds"]["measure"] == 1.5
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
