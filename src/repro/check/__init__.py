"""The evidence pass: execute every generated kernel once, judge it, measure it.

The subsystem that turns the repository's golden-*text* safety net into an
executable one, and reads the measured cost off the same execution:

* :mod:`repro.check.runner` — the one pass over an ``(app, config)`` pair:
  generate the kernel, execute its case — a small full launch — on its
  substrate (mini-Triton, mini-CUDA or the MLIR interpreter), compare the
  output with the app's NumPy reference model
  (:attr:`~repro.apps.registry.AppSpec.reference`) within per-dtype
  tolerances and, when measuring, cost the trace of that run.  One
  :class:`CheckReport` row holds the verdict and the measurement:
  :func:`run_check` / :func:`check_kernel` give the verdict,
  :func:`profile` adds the measured and extrapolated breakdowns and the
  analytic estimate, :func:`sweep` profiles every app's sampled draw;
* :mod:`repro.check.adapters` — :func:`trace_to_cost`, the one mapping of
  any substrate trace to a measured :class:`~repro.gpusim.KernelCost`
  (DRAM charged per sector the device moves), and :func:`trace_summary`,
  the trace view every row carries;
* :mod:`repro.check.fuzz` — property-based fuzzing of the symbolic layer:
  random expression trees with random integer bindings assert that
  ``simplify`` / ``simplify_fixpoint`` / the Python printer / the full
  lowering path all preserve concrete evaluation;
* :func:`differential_verifier` — the hook ``CompileService(verify=...)``
  runs on the first compilation of each distinct kernel;
  ``search(measure_top_k=..., verify_top_k=...)`` (:mod:`repro.tune`)
  profiles the analytic leaders and reads the winners' verdicts off those
  rows;
* ``python -m repro.check`` — the sweep CLI: verdicts, measured vs analytic
  under per-app bounds, and the fuzz (see :mod:`repro.check.__main__`).

Everything is seed-deterministic end to end: any failure reproduces from the
seed printed in its report.
"""

from .adapters import trace_summary, trace_to_cost
from .fuzz import FuzzFailure, FuzzReport, fuzz_symbolic, fuzz_trial, random_expr
from .runner import (
    TOLERANCES,
    CheckFailure,
    CheckReport,
    Tolerance,
    check_kernel,
    differential_verifier,
    profile,
    resolve_case_kernel,
    run_check,
    sample_configs,
    stable_seed,
    sweep,
    tolerance_for,
)

__all__ = [
    "CheckFailure",
    "CheckReport",
    "Tolerance",
    "TOLERANCES",
    "tolerance_for",
    "stable_seed",
    "sample_configs",
    "resolve_case_kernel",
    "run_check",
    "check_kernel",
    "profile",
    "sweep",
    "differential_verifier",
    "trace_to_cost",
    "trace_summary",
    "FuzzFailure",
    "FuzzReport",
    "fuzz_symbolic",
    "fuzz_trial",
    "random_expr",
]
