"""Error paths of the MLIR verifier and interpreter.

The happy paths are pinned by the transpose goldens and the substrate tests;
these exercise what ``mlir-opt -verify-diagnostics`` (and a crashing kernel)
would catch: unverifiable modules, type mismatches and out-of-bounds memref
accesses.
"""

import numpy as np
import pytest

from repro.mlir import VerificationError, run_gpu_kernel, verify_module
from repro.mlir.dialects import arith, build_gpu_module, func, gpu, memref
from repro.mlir.ir import Module, OpBuilder, Operation, Value
from repro.mlir.types import F32, INDEX, MemRefType


def _gpu_kernel(argument_types):
    """A fresh module + gpu.func + builder over its body."""
    module = build_gpu_module("m")
    fn = gpu.func(module, "k", argument_types)
    return module, fn, OpBuilder(fn.body)


# -- verifier -----------------------------------------------------------------------------


def test_verifier_rejects_use_before_definition():
    module, fn, builder = _gpu_kernel([])
    dangling = Value(name="ghost", type=INDEX)
    builder.insert("arith.addi", [dangling, dangling], [INDEX])
    gpu.return_(builder)
    with pytest.raises(VerificationError, match="used before definition"):
        verify_module(module)


def test_verifier_rejects_double_definition():
    module, fn, builder = _gpu_kernel([])
    first = builder.insert("arith.constant", [], [INDEX], {"value": 1})
    twin = Operation(name="arith.constant", operands=[], attributes={"value": 2})
    twin.results.append(first.result)  # re-defines an existing SSA value
    fn.body.operations.append(twin)
    gpu.return_(builder)
    with pytest.raises(VerificationError, match="defined twice"):
        verify_module(module)


def test_verifier_rejects_missing_gpu_terminator():
    module, fn, builder = _gpu_kernel([])
    func.return_(builder)  # wrong dialect's terminator
    with pytest.raises(VerificationError, match="terminate with gpu.return"):
        verify_module(module)


def test_verifier_rejects_memref_rank_mismatch():
    module, fn, builder = _gpu_kernel([MemRefType((4, 4), F32)])
    index = arith.constant(builder, 0)
    builder.insert("memref.load", [fn.argument(0), index], [F32])  # rank 2, one index
    gpu.return_(builder)
    with pytest.raises(VerificationError, match="rank-2 memref needs 2 indices"):
        verify_module(module)


def test_verifier_rejects_non_index_subscript_type():
    module, fn, builder = _gpu_kernel([MemRefType((4,), F32)])
    bad_index = arith.constant(builder, 1.5, F32)
    builder.insert("memref.load", [fn.argument(0), bad_index], [F32])
    gpu.return_(builder)
    with pytest.raises(VerificationError, match="must have index type"):
        verify_module(module)


def test_verifier_rejects_wrong_binary_arity():
    module, fn, builder = _gpu_kernel([])
    one = arith.constant(builder, 1)
    builder.insert("arith.addi", [one], [INDEX])
    gpu.return_(builder)
    with pytest.raises(VerificationError, match="expects 2 operands"):
        verify_module(module)


def test_verifier_rejects_duplicate_function_names():
    module = build_gpu_module("m")
    for _ in range(2):
        fn = gpu.func(module, "same", [])
        gpu.return_(OpBuilder(fn.body))
    with pytest.raises(VerificationError, match="duplicate function name"):
        verify_module(module)


# -- interpreter --------------------------------------------------------------------------


def _loading_kernel(index_value, size=8):
    module, fn, builder = _gpu_kernel([MemRefType((size,), F32)])
    index = arith.constant(builder, index_value)
    memref.load(builder, fn.argument(0), [index])
    gpu.return_(builder)
    verify_module(module)  # the error paths below are runtime-only
    return module


def test_interpreter_rejects_non_gpu_functions():
    module = Module()
    fn = func.func(module, "host", [])
    func.return_(OpBuilder(fn.body))
    with pytest.raises(ValueError, match="not a gpu.func kernel"):
        run_gpu_kernel(module, "host", grid=(1, 1, 1), block=(1, 1, 1), arguments=[])


def test_interpreter_rejects_wrong_argument_count():
    module = _loading_kernel(0)
    with pytest.raises(ValueError, match="expects 1 arguments, got 0"):
        run_gpu_kernel(module, "k", grid=(1, 1, 1), block=(1, 1, 1), arguments=[])


def test_interpreter_rejects_wrong_buffer_size():
    module = _loading_kernel(0)
    with pytest.raises(ValueError, match="has 4 elements, expected 8"):
        run_gpu_kernel(module, "k", grid=(1, 1, 1), block=(1, 1, 1),
                       arguments=[np.zeros(4, dtype=np.float32)])


def _lane_kernel(shape, index_of):
    """A kernel loading ``shape``-memref element ``index_of(builder, tx, bx)``."""
    module, fn, builder = _gpu_kernel([MemRefType(shape, F32)])
    tx, bx = gpu.thread_id(builder, "x"), gpu.block_id(builder, "x")
    memref.load(builder, fn.argument(0), index_of(builder, tx, bx))
    gpu.return_(builder)
    verify_module(module)
    return module


def _below_zero(builder, tx, bx):  # tx - 3 over (8,) wrapped to the end
    return [arith.subi(builder, tx, arith.constant(builder, 3))]


def _past_the_row(builder, tx, bx):  # column tx + 2 of (2, 4) ran into row 1
    return [arith.constant(builder, 0), arith.addi(builder, tx, arith.constant(builder, 2))]


def _past_the_end(builder, tx, bx):  # a too-large flat index named no memref
    return [arith.addi(builder, tx, arith.constant(builder, 5))]


def _split_past_the_end(builder, tx, bx):  # block + lane, checked on the parts
    return [arith.addi(builder, tx, arith.muli(builder, bx, arith.constant(builder, 6)))]


@pytest.mark.parametrize("module, shape, grid, block, message", [
    (lambda: _loading_kernel(99), (8,), 1, 1, r"axis 0 index out of range \[0, 8\) \(got \[99, 99\]\)"),
    (lambda: _lane_kernel((8,), _below_zero), (8,), 1, 8,
     r"axis 0 index out of range \[0, 8\) \(got \[-3, 4\]\)"),
    (lambda: _lane_kernel((2, 4), _past_the_row), (2, 4), 1, 4,
     r"axis 1 index out of range \[0, 4\) \(got \[2, 5\]\)"),
    (lambda: _lane_kernel((8,), _past_the_end), (8,), 1, 4,
     r"axis 0 index out of range \[0, 8\) \(got \[5, 8\]\)"),
    (lambda: _lane_kernel((8,), _split_past_the_end), (8,), 2, 4,
     r"axis 0 index out of range \[0, 8\) \(got \[0, 9\]\)"),
], ids=["constant", "below-zero", "past-the-row", "past-the-end", "split"])
def test_interpreter_raises_on_out_of_bounds_memref_access(module, shape, grid, block, message):
    """Every axis is checked, on the dense and the split path, and the error names
    the memref — a negative index does not wrap, a column does not run into the
    next row."""
    with pytest.raises(IndexError, match="^%arg0: " + message + "$"):
        run_gpu_kernel(module(), "k", grid=(grid, 1, 1), block=(block, 1, 1),
                       arguments=[np.zeros(shape, dtype=np.float32)])


def test_interpreter_rejects_unsupported_operations():
    module, fn, builder = _gpu_kernel([])
    one = arith.constant(builder, 1)
    builder.insert("arith.xori", [one, one], [INDEX])
    gpu.return_(builder)
    with pytest.raises(NotImplementedError, match="arith.xori"):
        run_gpu_kernel(module, "k", grid=(1, 1, 1), block=(1, 1, 1), arguments=[])


def test_unverified_module_fails_before_interpretation():
    """The generation pipeline's contract: verify first, interpret second —
    an unverifiable module is caught by the verifier, not by a crash."""
    module, fn, builder = _gpu_kernel([MemRefType((4,), F32)])
    dangling = Value(name="ghost", type=INDEX)
    memref.load(builder, fn.argument(0), [dangling])
    gpu.return_(builder)
    with pytest.raises(VerificationError):
        verify_module(module)
    # and the interpreter, if misused without verification, still refuses
    with pytest.raises(KeyError, match="undefined SSA value"):
        run_gpu_kernel(module, "k", grid=(1, 1, 1), block=(1, 1, 1),
                       arguments=[np.zeros(4, dtype=np.float32)])
