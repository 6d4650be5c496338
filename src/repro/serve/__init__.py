"""``repro.serve`` — serving compile requests: one path, two executors.

* :class:`CompileRequest` — the value object clients submit
  (``app``, ``config``, optional backend and cost weights),
* :class:`CompileService` — the request path (:mod:`repro.serve.service`):
  memory tier → in-flight coalescing → leader (durable-tier probe, compile,
  verify, store), led on the caller's thread by ``compile``, ``submit_batch``
  and table warming and on a thread pool by ``submit``,
* :class:`CompileFarm` — the same service with leaders in worker
  *processes* (:mod:`repro.serve.farm`): priority lanes with bounded
  admission (over-cap submissions shed with a typed :class:`Rejected`),
  cross-process claim-file dedup, worker health checking with restart and
  request re-drive,
* :class:`FarmStats` + :class:`LaneStats` — the one snapshot of the
  per-lane ledger either executor's ``stats()`` returns
  (:mod:`repro.serve.metrics`).

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
from .metrics import FarmStats, LaneStats
from .service import (
    CompileRequest,
    CompileService,
    PersistedKernel,
    default_compiler,
    default_service,
    table_requests,
)

__all__ = [
    "AdmissionController",
    "CompileFarm",
    "CompileRequest",
    "CompileService",
    "FarmCompileError",
    "FarmStats",
    "LANES",
    "LANE_INTERACTIVE",
    "LANE_SWEEP",
    "LaneStats",
    "PersistedKernel",
    "Rejected",
    "default_compiler",
    "default_service",
    "table_requests",
]
