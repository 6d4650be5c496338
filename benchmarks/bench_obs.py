"""Observability benchmark: span coverage of an instrumented autotune,
Chrome-trace schema validity, and the disabled-instrumentation overhead.

Three gates (the ``obs-smoke`` CI job runs all of them):

* **Coverage** — a traced two-stage matmul autotune (bounded subspace,
  ``measure_top_k=3``) must produce a span tree rooted at ``tune.search``
  whose named stages include the analytic pre-filter, the cost model, the
  compile-service batch, VM execution and the measured re-rank, with
  self-times summing to within 10% of the root's wall time (coverage
  >= 90%) and the tree's total self-time matching the wall clock.
* **Schema** — the exported trace passes
  :func:`repro.obs.validate_chrome_trace`, so ``chrome://tracing`` /
  Perfetto can always open what we emit.
* **Overhead** — with tracing disabled, the fully instrumented serve
  replay costs < 2% over baseline.  Wall-clock A/B runs of a multi-worker
  replay are far noisier than 2% on shared CI runners, so the gate is
  arithmetic instead: the measured per-call cost of a disabled ``span()``
  times the number of span call sites the replay actually executes must be
  under 2% of the replay's wall time.

Run standalone to emit the JSON artifact the CI job uploads::

    PYTHONPATH=src python benchmarks/bench_obs.py   # writes BENCH_obs.json

or under pytest for the assertions only.
"""

import json
import time
from pathlib import Path

REPLAY_REQUESTS = 400
MEASURE_TOP_K = 3


def _disabled_span_overhead() -> dict:
    """Measure the per-call cost of ``span()`` with tracing off."""
    from repro.obs.trace import Tracer, span, tracing

    calls = 200_000
    with tracing(False):
        started = time.perf_counter()
        for _ in range(calls):
            with span("bench.noop", "bench", key=1):
                pass
        per_call = (time.perf_counter() - started) / calls
    # an enabled tracer for contrast (records, allocates, locks)
    enabled = Tracer(enabled=True, max_events=1000)
    started = time.perf_counter()
    for _ in range(1000):
        with enabled.span("bench.noop", "bench", key=1):
            pass
    per_call_enabled = (time.perf_counter() - started) / 1000
    return {
        "calls": calls,
        "disabled_ns_per_call": per_call * 1e9,
        "enabled_ns_per_call": per_call_enabled * 1e9,
    }


def run_obs_bench() -> dict:
    from repro.obs import TRACER, tracing
    from repro.obs.__main__ import REQUIRED_STAGES, run_instrumented_autotune
    from repro.serve import CompileService, synthetic_requests

    # Gate 1 + 2: instrumented autotune -> attribution + schema validation.
    autotune_report = run_instrumented_autotune("matmul", measure_top_k=MEASURE_TOP_K)
    trace = autotune_report.pop("trace")

    # Gate 3: replay wall time vs the arithmetic cost of its disabled spans.
    overhead = _disabled_span_overhead()
    requests = synthetic_requests(total=REPLAY_REQUESTS, duplicate_fraction=0.5, seed=3)
    with tracing(True):
        TRACER.clear()
        with CompileService(workers=2) as service:
            started = time.perf_counter()
            service.submit_batch(requests)
            replay_seconds = time.perf_counter() - started
        replay_spans = len(TRACER.events())
        TRACER.clear()
    span_cost_seconds = replay_spans * overhead["disabled_ns_per_call"] / 1e9
    overhead_fraction = span_cost_seconds / replay_seconds if replay_seconds > 0 else 0.0

    return {
        "autotune": {
            key: value for key, value in autotune_report.items()
            if key != "attribution"
        } | {"stages": {
            name: row for name, row in autotune_report["attribution"]["stages"].items()
        }},
        "coverage": autotune_report["coverage"],
        "wall_ms": autotune_report["attribution"]["wall_ms"],
        "self_sum_ms": autotune_report["attribution"]["self_sum_ms"],
        "missing_stages": autotune_report["missing_stages"],
        "required_stages": list(REQUIRED_STAGES),
        "schema_problems": autotune_report["schema_problems"],
        "trace_events": len(trace["traceEvents"]),
        "replay": {
            "requests": REPLAY_REQUESTS,
            "wall_seconds": replay_seconds,
            "spans_recorded": replay_spans,
            "disabled_span_cost_seconds": span_cost_seconds,
            "disabled_overhead_fraction": overhead_fraction,
        },
        "span_overhead": overhead,
    }


def check_report(report: dict) -> None:
    # Gate 1: every acceptance stage present, >= 90% of wall attributed.
    assert not report["missing_stages"], (
        f"span tree misses required stages: {report['missing_stages']}"
    )
    assert report["coverage"] >= 0.90, (
        f"named stages cover {report['coverage']:.1%} of the autotune wall "
        f"time; the acceptance bar is 90%"
    )
    # tree consistency: the reconstructed self-times sum to the root span's
    # wall time (a containment bug would break this before it breaks coverage)
    assert report["wall_ms"] > 0
    assert abs(report["self_sum_ms"] - report["wall_ms"]) <= 0.1 * report["wall_ms"], (
        f"span-tree self-times ({report['self_sum_ms']:.2f}ms) diverge from "
        f"the root wall time ({report['wall_ms']:.2f}ms)"
    )

    # Gate 2: the export loads in any Chrome-trace viewer.
    assert report["schema_problems"] == [], report["schema_problems"]
    assert report["trace_events"] > 10

    # Gate 3: disabled instrumentation costs < 2% of the replay.
    replay = report["replay"]
    assert replay["disabled_overhead_fraction"] < 0.02, (
        f"disabled tracing overhead {replay['disabled_overhead_fraction']:.2%} "
        f"of replay wall time exceeds the 2% bar"
    )
    assert replay["spans_recorded"] > 0, "replay recorded no spans while traced"


def test_obs_bench():
    check_report(run_obs_bench())


if __name__ == "__main__":
    # one run serves both purposes in CI: the assertions run on the same
    # report that becomes the uploaded artifact
    artifact = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    report = run_obs_bench()
    check_report(report)
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({k: v for k, v in report.items() if k != "autotune"},
                     indent=2, sort_keys=True))
    print(f"\nwrote {artifact}")
