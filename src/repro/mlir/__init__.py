"""A small MLIR-style SSA IR used as the MLIR-integration substrate.

The paper integrates LEGO into MLIR through the Python bindings, emitting a
module that mixes ``arith``, ``memref``, ``scf`` and ``gpu`` dialect
operations.  This reproduction has no LLVM/MLIR build, so this package
provides the minimum honest equivalent:

* :mod:`repro.mlir.ir` — modules, functions, blocks, operations, SSA values
  and types, plus an :class:`~repro.mlir.ir.OpBuilder`;
* :mod:`repro.mlir.dialects` — constructors for the ``arith`` / ``memref`` /
  ``scf`` / ``gpu`` / ``func`` operations the transpose kernels need;
* :mod:`repro.mlir.printer` — the generic textual form;
* :mod:`repro.mlir.verifier` — structural/SSA checks;
* :mod:`repro.mlir.interp` — an interpreter that executes ``gpu.func``
  kernels over a launch grid on mini-CUDA's block runtime (:mod:`repro.vm.blocks`),
  recording memory traffic.

The op names, SSA structure and type syntax follow MLIR so that the emitted
modules read like the ones the paper's artifact produces.
"""

from .ir import Block, FuncOp, Module, OpBuilder, Operation, Value
from .types import F32, IndexType, IntType, MemRefType
from .printer import print_module
from .verifier import VerificationError, verify_module
from .interp import GpuLaunchResult, run_gpu_kernel

__all__ = [
    "Module",
    "FuncOp",
    "Block",
    "Operation",
    "Value",
    "OpBuilder",
    "F32",
    "IndexType",
    "IntType",
    "MemRefType",
    "print_module",
    "verify_module",
    "VerificationError",
    "run_gpu_kernel",
    "GpuLaunchResult",
]
