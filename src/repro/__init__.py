"""LEGO: a layout expression language for code generation of hierarchical mapping.

This package is a from-scratch reproduction of the CGO 2026 paper
"LEGO: A Layout Expression Language for Code Generation of Hierarchical
Mapping" (Tavakkoli, Oancea, Hall).  It provides:

* :mod:`repro.core` — the LEGO layout algebra (``GroupBy`` / ``OrderBy`` /
  ``RegP`` / ``GenP`` / ``ExpandBy`` and the ``Row`` / ``Col`` / ``TileBy``
  sugar), the paper's primary contribution;
* :mod:`repro.symbolic` — the integer symbolic engine with range-aware
  division/modulo simplification (the SymPy + Z3 substitute);
* :mod:`repro.codegen` — template instantiation for Triton and CUDA and the
  MLIR emission path;
* :mod:`repro.minitriton`, :mod:`repro.minicuda`, :mod:`repro.mlir` — the
  execution substrates standing in for the Triton compiler, CUDA runtime and
  MLIR toolchain (see DESIGN.md for the substitution rationale);
* :mod:`repro.gpusim` — the analytic A100-class performance model;
* :mod:`repro.apps` — the paper's benchmark applications (matmul, grouped
  GEMM, softmax, LayerNorm, NW, LUD, stencils, transpose), each registered
  as a uniform ``AppSpec`` in :mod:`repro.apps.registry`;
* :mod:`repro.tune` — the layout autotuner: declarative search spaces,
  candidate generation through the backend registry, analytic-model
  ranking and a persistent result cache;
* :mod:`repro.serve` — the concurrent layout-compilation service: batch
  submission with in-flight deduplication over a sharded two-tier kernel
  cache, per-lane service metrics and a multi-process farm
  (``CompileFarm``) on the same request path;
* :mod:`repro.cache` — the shared cache tiers (sharded in-memory LRU,
  append-only durable record log) behind the service, farm and autotuner;
* :mod:`repro.check` — the evidence pass: NumPy reference models per app,
  one pass that executes every generated kernel on its substrate, proves it
  numerically correct and costs the trace of that run against the analytic
  model, property-based fuzzing of the symbolic layer and a sweep CLI
  (``python -m repro.check``);
* :mod:`repro.bench` — the harness that regenerates every table and figure
  of the evaluation section.

The most common entry points are re-exported here::

    from repro import GroupBy, OrderBy, RegP, GenP, Row, Col, TileBy
    layout = GroupBy([6, 4]).OrderBy(RegP([2, 2], [2, 1]), ...)
    layout.apply(4, 1)   # logical index -> physical position
    layout.inv(6)        # physical position -> logical index
"""

from .core import (
    Col,
    ExpandBy,
    GenP,
    GroupBy,
    InjectiveLayout,
    Layout,
    OrderBy,
    RegP,
    Row,
    StrideLayout,
    TileBy,
    TileOrderBy,
    antidiagonal,
    equivalent,
    flatten_index,
    hilbert2d,
    morton,
    reverse_permutation,
    strides_from_layout,
    unflatten_index,
    xor_swizzle,
)
from .symbolic import SymbolicEnv, Var, simplify, simplify_fixpoint, symbols
from .codegen import (
    CodegenContext,
    GeneratedKernel,
    available_backends,
    get_backend,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # layout algebra
    "GroupBy",
    "OrderBy",
    "Layout",
    "RegP",
    "GenP",
    "ExpandBy",
    "InjectiveLayout",
    "Row",
    "Col",
    "TileBy",
    "TileOrderBy",
    "antidiagonal",
    "reverse_permutation",
    "morton",
    "xor_swizzle",
    "hilbert2d",
    "flatten_index",
    "unflatten_index",
    "StrideLayout",
    "strides_from_layout",
    "equivalent",
    # symbolic engine
    "Var",
    "symbols",
    "SymbolicEnv",
    "simplify",
    "simplify_fixpoint",
    # code generation
    "CodegenContext",
    "GeneratedKernel",
    "available_backends",
    "get_backend",
]
