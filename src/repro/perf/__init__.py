"""``repro.perf`` — measured profiling: trace-driven kernel costs.

All three execution substrates (mini-Triton, mini-CUDA, the MLIR
interpreter) record traces of every launch; until this package only the
autotuner's *analytic* model consumed them.  ``repro.perf`` closes the
loop from execution back into tuning:

* :mod:`repro.perf.adapters` — :func:`trace_to_cost`, the one function
  that turns any of the three substrate traces into a
  measured :class:`~repro.gpusim.KernelCost`, charging DRAM at the sector
  granularity of the :class:`~repro.gpusim.DeviceSpec` (never a hardcoded
  32) and carrying the measured bank-conflict factor;
* :func:`profile` — execute one ``(app, config)`` pair on its substrate
  (through :func:`repro.check.run_case`, the case machinery shared with the
  differential runner, and optionally a
  :class:`~repro.serve.CompileService`) and return a
  :class:`KernelProfile`: the differential verdict on that execution's
  output, measured cost, measured + extrapolated
  :class:`~repro.gpusim.TimeBreakdown`, the analytic estimate of the same
  problem and the disagreement between the two;
* ``search(measure_top_k=...)`` / ``autotune(measure_top_k=...)``
  (:mod:`repro.tune`) — two-stage tuning: pre-filter analytically, re-rank
  the top-k by measured cost;
* ``python -m repro.perf`` — the sweep CLI writing ``BENCH_perf.json``
  (see :mod:`repro.perf.__main__`).

Quickstart::

    from repro.perf import profile
    p = profile("transpose", {"variant": "smem", "skew": 1, "tile": 32,
                              "generator": "lego"})
    p.measured_seconds, p.analytic_seconds, p.analytic_error
"""

from .adapters import trace_metrics, trace_to_cost
from .profile import KernelProfile, profile, profile_all, profile_app

__all__ = [
    "KernelProfile",
    "profile",
    "profile_app",
    "profile_all",
    "trace_to_cost",
    "trace_metrics",
]
