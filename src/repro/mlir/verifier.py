"""Structural and SSA verification of the mini MLIR IR.

Checks performed (a practical subset of what ``mlir-opt -verify-diagnostics``
would enforce for the emitted modules):

* every operand is defined before use (by an earlier operation, an enclosing
  region's block argument, or the function's arguments);
* every SSA value is defined exactly once;
* ``memref.load`` / ``memref.store`` index counts match the memref rank and
  the indices have ``index`` type;
* ``gpu.func`` bodies terminate with ``gpu.return``; ``func.func`` bodies
  terminate with ``func.return``;
* ``scf.for`` bodies terminate with ``scf.yield``;
* operations with a known arity have the right number of operands.
"""

from __future__ import annotations

from .ir import Block, FuncOp, Module, Operation, Value
from .types import IndexType, MemRefType

__all__ = ["VerificationError", "verify_module", "verify_function"]


class VerificationError(ValueError):
    """Raised when the module violates a structural rule."""


_BINARY_ARITH = (
    "arith.addi",
    "arith.subi",
    "arith.muli",
    "arith.divsi",
    "arith.remsi",
    "arith.minsi",
    "arith.maxsi",
    "arith.addf",
    "arith.mulf",
)
#: operation name -> (operand count or None, position of the accessed memref or None)
_SIGNATURES = {name: (2, None) for name in _BINARY_ARITH}
_SIGNATURES["memref.load"] = (None, 0)
_SIGNATURES["memref.store"] = (None, 1)


def _verify_block(block: Block, defined: set[Value], func_name: str, terminator: str | None) -> None:
    """One pass over the block: each operation's operands, signature, regions and results.

    ``defined`` holds the values in scope (SSA values compare by identity).
    """
    defined.update(block.arguments)
    for op in block.operations:
        name, operands = op.name, op.operands
        for operand in operands:
            if operand not in defined:
                raise VerificationError(f"{func_name}: operand {operand} of {name} used before definition")
        signature = _SIGNATURES.get(name)
        if signature is not None:
            arity, source = signature
            if arity is not None and len(operands) != arity:
                raise VerificationError(f"{func_name}: {name} expects {arity} operands, got {len(operands)}")
            if source is not None:
                _verify_memref_access(op, operands[source], operands[source + 1:], func_name)
        if name == "scf.for":
            if len(operands) != 3:
                raise VerificationError(f"{func_name}: scf.for expects 3 operands (lb, ub, step)")
            if not op.regions or not op.regions[0].blocks:
                raise VerificationError(f"{func_name}: scf.for requires a body region")
            _verify_block(op.regions[0].blocks[0], set(defined), func_name, terminator="scf.yield")
        elif op.regions:
            for region in op.regions:
                for inner in region.blocks:
                    _verify_block(inner, set(defined), func_name, terminator=None)
        for result in op.results:
            if result in defined:
                raise VerificationError(f"{func_name}: value {result} defined twice")
            defined.add(result)
    if terminator is not None:
        if not block.operations or block.operations[-1].name != terminator:
            raise VerificationError(
                f"{func_name}: block must terminate with {terminator}"
            )


def _verify_memref_access(op: Operation, source: Value, indices, func_name: str) -> None:
    if not isinstance(source.type, MemRefType):
        raise VerificationError(
            f"{func_name}: {op.name} source must be a memref, got {source.type}"
        )
    rank = len(source.type.shape)
    if len(indices) != rank:
        raise VerificationError(
            f"{func_name}: {op.name} on rank-{rank} memref needs {rank} indices, got {len(indices)}"
        )
    for index in indices:
        if not isinstance(index.type, IndexType):
            raise VerificationError(
                f"{func_name}: {op.name} index {index} must have index type, got {index.type}"
            )


def verify_function(fn: FuncOp) -> None:
    terminator = "gpu.return" if fn.kind == "gpu.func" else "func.return"
    _verify_block(fn.body, set(fn.arguments), fn.name, terminator=terminator)


def verify_module(module: Module) -> None:
    """Verify every function; raises :class:`VerificationError` on failure."""
    names = set()
    for fn in module.functions:
        if fn.name in names:
            raise VerificationError(f"duplicate function name {fn.name!r}")
        names.add(fn.name)
        verify_function(fn)
