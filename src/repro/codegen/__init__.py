"""Code generation: templates, contexts and the unified backend registry.

* :func:`render_template` — the ``{{ }}`` placeholder engine,
* :class:`CodegenContext` — symbols, assumptions and named layout bindings;
  :class:`KernelFamily` — a context lowered once in its sizes, the one input
  of every backend (Triton's as lowered, CUDA's and MLIR's specialised by
  substitution),
* :class:`GeneratedKernel` / :class:`Backend` / :func:`get_backend` /
  :func:`register_backend` — the backend protocol and registry shared by the
  Triton, CUDA and MLIR generators (one input type, one result type),
* :func:`generate_accessor_wrapper` — CUDA accessor-struct emission for
  layouts applied per-access (the NW integration style),
* :func:`prove_guard_redundant` / :func:`discharge_in_bounds` — static guard
  elimination on top of the stride-aware range analysis; obligations are
  registered via :meth:`CodegenContext.require_in_bounds` and surfaced as
  ``GeneratedKernel.proven_bounds``,
* :class:`GenerationReport`, :func:`time_generation`,
  :func:`compare_expansion_strategies` — the latency / op-count reporting used
  by Tables III and IV.

The MLIR backend lives in :mod:`repro.codegen.mlir` and registers lazily
(``get_backend("mlir")`` imports it on first use) to keep the MLIR substrate
optional at import time.
"""

from .template import TemplateError, extract_placeholders, render_template
from .context import CodegenContext, KernelFamily, LoweredBinding, SpecialisationError, lower_expression
from .guards import (
    GuardProofError,
    discharge_in_bounds,
    note_static_proof,
    prove_guard_redundant,
)
from .backend import (
    Backend,
    GeneratedKernel,
    TemplateBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .triton import TritonKernel
from .cuda import CudaKernel, generate_accessor_wrapper
from .pipeline import GenerationReport, compare_expansion_strategies, time_generation

__all__ = [
    "TemplateError",
    "extract_placeholders",
    "render_template",
    "CodegenContext",
    "LoweredBinding",
    "KernelFamily",
    "SpecialisationError",
    "lower_expression",
    "GuardProofError",
    "prove_guard_redundant",
    "discharge_in_bounds",
    "note_static_proof",
    "Backend",
    "GeneratedKernel",
    "TemplateBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "TritonKernel",
    "CudaKernel",
    "generate_accessor_wrapper",
    "GenerationReport",
    "compare_expansion_strategies",
    "time_generation",
]
