"""``python -m repro.obs`` — instrumented autotune + per-stage attribution.

Runs a bounded two-stage matmul autotune (analytic pre-filter over a small
subspace, measured re-rank of the top-k) with tracing forced on, prints the
per-stage self-time attribution table reconstructed from the span tree, and
writes ``BENCH_obs.json``.  Optionally (``--replay``) it also replays a short
burst of synthetic compile traffic so the serve-side spans and registry
metrics show up in the same report::

    PYTHONPATH=src python -m repro.obs --measure-top-k 3 --trace trace.json

The exported trace is Chrome trace-event JSON: open it directly in
``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from .metrics import REGISTRY
from .report import attribution, render_attribution, validate_chrome_trace
from .trace import TRACER, set_tracing

__all__ = ["main", "run_instrumented_autotune"]

#: the named stages the acceptance gate requires the span tree to cover
REQUIRED_STAGES = (
    "search.prefilter",   # analytic pre-filter sweep
    "tune.model",         # analytic cost-model evaluation
    "serve.compile",      # compile-service batch (client side)
    "vm.execute",         # substrate execution under the VM engine
    "search.measure",     # measured re-rank of the survivors
)

#: bounded matmul subspace (the full space is 2 000 points; this is 2^3 = 8)
_SUBSPACE_AXES = dict(
    variant=("nn",),
    BM=(128, 64),
    BN=(128, 64),
    BK=(64, 32),
    GM=(8,),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Instrumented autotune with per-stage span attribution.",
    )
    parser.add_argument("--app", default="matmul",
                        help="app to autotune (default: matmul, on a bounded subspace)")
    parser.add_argument("--measure-top-k", type=int, default=3,
                        help="candidates to measure on the substrate (default: 3)")
    parser.add_argument("--replay", type=int, default=0, metavar="N",
                        help="also replay N synthetic compile requests through the service")
    parser.add_argument("--trace", default=None, metavar="PATH", dest="trace_path",
                        help="export the Chrome trace-event JSON to this file")
    parser.add_argument("--json", default="BENCH_obs.json", metavar="PATH", dest="json_path",
                        help="report output path (default: BENCH_obs.json)")
    return parser


def run_instrumented_autotune(app: str = "matmul", measure_top_k: int = 3) -> dict:
    """Tune ``app`` exhaustively with tracing on; return the attribution report.

    Calls the driver (:func:`repro.tune.search`) directly, with
    ``autotune``'s arguments, so the trace is rooted at the driver's own
    ``tune.search`` span and coverage measures the driver's body.  The
    returned dict is :func:`repro.obs.attribution` of the captured events
    plus the tune summary, the stage coverage check and the Chrome-trace
    schema validation problems.
    """
    from ..apps.registry import get_app
    from ..tune import search

    spec = get_app(app)
    space = spec.space
    if app == "matmul":
        space = space.subspace(**_SUBSPACE_AXES)

    was_enabled = TRACER.enabled
    set_tracing(True)
    TRACER.clear()
    try:
        started = time.perf_counter()
        result = search(spec, space=space, budget=None, measure_top_k=measure_top_k)
        wall = time.perf_counter() - started
        events = TRACER.events()
        trace = TRACER.chrome_trace()
    finally:
        set_tracing(was_enabled)

    report = attribution(events, root_name="tune.search")
    stages_present = set(report["stages"])
    missing = [s for s in REQUIRED_STAGES if s not in stages_present]
    best = result.best
    return {
        "app": spec.name,
        "space_size": len(space),
        "measure_top_k": measure_top_k,
        "wall_seconds": wall,
        "best": {
            "config": dict(best.config),
            "time_ms": (best.measured_time_seconds or best.time_seconds) * 1e3,
            "measured": best.measured,
        },
        "attribution": report,
        "required_stages": list(REQUIRED_STAGES),
        "missing_stages": missing,
        "coverage": report["coverage"],
        "coverage_ok": not missing and report["coverage"] >= 0.9,
        "schema_problems": validate_chrome_trace(trace),
        "events": len(events),
        "trace": trace,
    }


def _run_replay(requests: int) -> dict:
    """A short serve replay: the service's ledger and the process registry."""
    from ..cache import ShardedLRUCache
    from ..serve.service import CompileService
    from ..serve.traffic import synthetic_requests

    trace = synthetic_requests(total=requests, duplicate_fraction=0.5, seed=0)
    with CompileService(workers=2, cache=ShardedLRUCache(shards=4)) as service:
        started = time.perf_counter()
        service.submit_batch(trace)
        elapsed = time.perf_counter() - started
        stats = service.stats().as_dict()
    return {"requests": requests, "wall_seconds": elapsed, "stats": stats,
            "metrics": REGISTRY.snapshot()}


def main(argv: list[str] | None = None) -> dict:
    args = _build_parser().parse_args(argv)
    report = run_instrumented_autotune(args.app, measure_top_k=args.measure_top_k)
    trace = report.pop("trace")

    print(render_attribution(report["attribution"]))
    print()
    coverage = report["coverage"]
    print(f"stage coverage: {coverage:.1%} of root wall time "
          f"({'ok' if report['coverage_ok'] else 'INSUFFICIENT'})")
    if report["missing_stages"]:
        print(f"missing stages: {', '.join(report['missing_stages'])}")
    if report["schema_problems"]:
        print(f"schema problems: {report['schema_problems']}")

    if args.replay > 0:
        report["replay"] = _run_replay(args.replay)
        print(f"replay: {args.replay} requests in "
              f"{report['replay']['wall_seconds'] * 1e3:.1f}ms")

    if args.trace_path:
        Path(args.trace_path).write_text(json.dumps(trace) + "\n")
        print(f"trace: {args.trace_path} ({report['events']} events)")

    if args.json_path:
        Path(args.json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report: {args.json_path}")
    return report


if __name__ == "__main__":
    main()
