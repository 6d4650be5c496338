"""Differential verification: execute every generated kernel, prove it right.

The subsystem that turns the repository's golden-*text* safety net into an
executable one:

* :mod:`repro.check.runner` — the differential runner: generate a kernel for
  an ``(app, config)`` pair, execute it at small full-launch sizes on its
  substrate (mini-Triton, mini-CUDA or the MLIR interpreter) and assert the
  result against the app's NumPy reference model
  (:attr:`~repro.apps.registry.AppSpec.reference`) within per-dtype
  tolerances, returning a structured :class:`CheckReport`;
  :func:`run_case` ("seed, build the case, resolve the kernel, execute
  under the engine") and :func:`judge_case` (output vs reference) are the
  two halves it shares with :func:`repro.perf.profile`, which verifies the
  one execution it measures;
* :mod:`repro.check.fuzz` — property-based fuzzing of the symbolic layer:
  random expression trees with random integer bindings assert that
  ``simplify`` / ``simplify_fixpoint`` / the Python printer / the full
  lowering path all preserve concrete evaluation;
* :func:`differential_verifier` — the hook ``CompileService(verify=...)``
  runs on the first compilation of each distinct kernel, and
  ``search(verify_top_k=...)`` / ``autotune(verify_top_k=...)`` run on a
  sweep's winning configurations;
* ``python -m repro.check`` — the CLI sweep over apps x sampled configs
  (see :mod:`repro.check.__main__`).

Everything is seed-deterministic end to end: any failure reproduces from the
seed printed in its report.
"""

from .fuzz import FuzzFailure, FuzzReport, fuzz_symbolic, fuzz_trial, random_expr
from .runner import (
    TOLERANCES,
    CheckFailure,
    CheckReport,
    Tolerance,
    check_all,
    check_app,
    check_kernel,
    differential_verifier,
    judge_case,
    resolve_case_kernel,
    run_case,
    run_check,
    sample_configs,
    stable_seed,
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
    "run_case",
    "judge_case",
    "run_check",
    "check_kernel",
    "check_app",
    "check_all",
    "differential_verifier",
    "FuzzFailure",
    "FuzzReport",
    "fuzz_symbolic",
    "fuzz_trial",
    "random_expr",
]
