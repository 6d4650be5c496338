"""``repro.serve`` — serving compile requests: one path, two executors.

* :class:`CompileRequest` — the value object clients submit
  (``app``, ``config``, optional backend and cost weights),
* :class:`CompileService` — the request path (:mod:`repro.serve.service`):
  memory tier → in-flight coalescing → leader (durable-tier probe, compile,
  verify, store), with leaders on a thread pool,
* :class:`CompileFarm` — the same service with leaders in worker
  *processes* (:mod:`repro.serve.farm`): priority lanes with bounded
  admission (over-cap submissions shed with a typed :class:`Rejected`),
  cross-process claim-file dedup, worker health checking with restart and
  request re-drive,
* :class:`ServiceStats` / :class:`FarmStats` + :class:`LaneStats` — two
  views of the per-lane ledger (:mod:`repro.serve.metrics`),
* :func:`synthetic_requests` / :func:`traffic_trace` + ``python -m
  repro.serve`` — deterministic traffic replay (uniform-duplicate traces,
  or Zipf-popular Poisson arrivals across configurable burst phases).

Quickstart::

    from repro.serve import CompileRequest, CompileService
    with CompileService(workers=4) as service:
        kernel = service.compile(CompileRequest("matmul", {"variant": "nn"}))
        batch = service.submit_batch([...])
        service.stats().hit_rate

The autotuner (:func:`repro.tune.autotune`) routes candidate generation
through the shared :func:`default_service`, so sweeps get batching, dedup
and a warm cross-sweep kernel cache with no caller changes.
"""

from .admission import (
    LANE_INTERACTIVE,
    LANE_SWEEP,
    LANES,
    AdmissionController,
    Rejected,
)
from .farm import CompileFarm, FarmCompileError
from .metrics import FarmStats, LaneStats, ServiceStats
from .service import (
    CompileRequest,
    CompileService,
    PersistedKernel,
    default_compiler,
    default_service,
    table_requests,
)
from .traffic import (
    DEFAULT_PHASES,
    BurstPhase,
    TimedRequest,
    generating_apps,
    synthetic_requests,
    trace_summary,
    traffic_trace,
    zipf_requests,
)

__all__ = [
    "AdmissionController",
    "BurstPhase",
    "CompileFarm",
    "CompileRequest",
    "CompileService",
    "DEFAULT_PHASES",
    "FarmCompileError",
    "FarmStats",
    "LANES",
    "LANE_INTERACTIVE",
    "LANE_SWEEP",
    "LaneStats",
    "PersistedKernel",
    "Rejected",
    "ServiceStats",
    "TimedRequest",
    "default_compiler",
    "default_service",
    "generating_apps",
    "synthetic_requests",
    "table_requests",
    "trace_summary",
    "traffic_trace",
    "zipf_requests",
]
