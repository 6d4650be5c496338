"""``repro.obs`` — the unified tracing & metrics layer.

The stack spans five subsystems (codegen -> serve -> check -> perf ->
tune.search); this package is where all of their telemetry converges:

* :mod:`repro.obs.trace` — the structured **span tracer**: context-manager
  spans (:func:`span`), thread-safe and nestable, ~zero-cost when disabled,
  enabled process-wide by the ``REPRO_TRACE`` environment variable and
  exported as Chrome trace-event / Perfetto-compatible JSON
  (:func:`export_trace`), so a whole ``autotune(measure_top_k=...)`` run or
  serve replay opens directly in a trace viewer.
* :mod:`repro.obs.metrics` — the **metrics registry**
  (:data:`REGISTRY`), the only place a process-wide count lives: counters
  (the symbolic cache counters among them), gauges and reservoir
  histograms, the shared ceil-based nearest-rank :func:`percentile`, one
  snapshot/delta API and a Prometheus-style text exposition.  A service's
  ledger is a per-instance value its ``stats()`` returns, not a registry
  entry.
* :mod:`repro.obs.report` — **attribution**: per-thread span trees,
  per-stage self-time breakdown and Chrome-trace schema validation.

``python -m repro.obs`` runs an instrumented autotune plus a short serve
replay, prints the per-stage attribution report and writes
``BENCH_obs.json`` (the ``obs-smoke`` CI artifact).
"""

from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    percentile,
)
from .report import (
    SpanNode,
    attribution,
    render_attribution,
    span_trees,
    validate_chrome_trace,
)
from .trace import (
    TRACE_ENV,
    TRACER,
    Span,
    Tracer,
    chrome_trace,
    clear_trace,
    export_trace,
    instant,
    set_tracing,
    span,
    trace_enabled,
    trace_events,
    tracing,
)

def record_farm_event(kind: str, **fields) -> None:
    """Record one farm lifecycle event (``shed`` / ``restart`` / ``redrive`` /
    ``supervisor_error``).

    Called by the compile-farm supervisor (:mod:`repro.serve.farm`) at the
    points production debugging cares about: a capped lane shedding a
    request, a worker process dying and being replaced, an orphaned
    in-flight request being re-driven to a fresh worker, and an exception
    the supervisor loop isolated.  Each call bumps
    the ``repro.farm.<kind>s`` counter and — when tracing is enabled —
    drops a ``farm.<kind>`` instant into the timeline so the event lines up
    with the serve spans around it.
    """
    counter(f"repro.farm.{kind}s").inc()
    instant(f"farm.{kind}", "farm", **fields)


__all__ = [
    "record_farm_event",
    # tracing
    "TRACE_ENV",
    "TRACER",
    "Span",
    "Tracer",
    "span",
    "instant",
    "trace_enabled",
    "set_tracing",
    "tracing",
    "trace_events",
    "chrome_trace",
    "export_trace",
    "clear_trace",
    # metrics
    "REGISTRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "percentile",
    # reporting
    "SpanNode",
    "span_trees",
    "attribution",
    "render_attribution",
    "validate_chrome_trace",
]
