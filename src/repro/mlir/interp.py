"""Interpreter for ``gpu.func`` kernels emitted by the LEGO MLIR backend.

The interpreter is an op dispatcher over the block runtime mini-CUDA runs on
(:mod:`repro.vm.blocks`): a launch is :func:`repro.vm.blocks.launch_blocks`,
and each pass of thread blocks interprets the function body once over its
:class:`~repro.vm.blocks.BlockContext` (each SSA value is a per-thread array
with one row per block, or a block-uniform value).  ``gpu.block_id`` /
``gpu.thread_id`` / ``gpu.block_dim`` read ``ctx.blockIdx``, ``ctx.tx/ty/tz``
and ``ctx.blockDim``; the ids are :class:`~repro.vm.split.SplitIndex` values,
so ``arith.addi`` / ``subi`` / ``muli`` by a constant keep an index ``block
(B, 1) + lane (T,) + int`` and every other op reads the materialised array.
A kernel-argument memref is a :class:`~repro.vm.arrays.GlobalArray` named
after its SSA value over the caller's buffer (stores mutate it in place), and
a workgroup ``memref.alloc`` is ``ctx.shared_array``; ``memref.load`` /
``memref.store`` are the arrays' own accesses, which check every axis (an
``IndexError`` names the memref, the axis and the range) and log to the
launch result's access log, so the per-warp sector transactions and
shared-memory bank conflicts that feed the analytic device model are
mini-CUDA's.

Supported operations: the ``arith`` / ``memref`` / ``gpu`` / ``scf`` subset
produced by :mod:`repro.codegen.mlir`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..vm.arrays import GlobalArray, SharedArray
from ..vm.blocks import BlockTrace, launch_blocks
from ..vm.split import SplitIndex, per_block
from .ir import Block, Module, Operation, Value
from .types import MemRefType

__all__ = ["GpuLaunchResult", "run_gpu_kernel"]

#: ``arith.cmpi`` predicates
_COMPARE = {"eq": np.equal, "ne": np.not_equal, "slt": np.less, "sle": np.less_equal,
            "sgt": np.greater, "sge": np.greater_equal}


@dataclass
class GpuLaunchResult(BlockTrace):
    """Traffic counters accumulated while interpreting a launch (final once its log is flushed)."""

    smem_bytes: float = 0.0

    def add_smem_bytes(self, nbytes: float, is_store: bool) -> None:
        self.smem_bytes += nbytes


def _index(value):
    """A memref subscript as the arrays take it: a scalar becomes one lane.  A
    shared array already reads all-scalar indices as one lane per block,
    ``(B, 1)``; a global one returns the block-uniform scalar, so the lane is
    what keeps every MLIR load an array."""
    return value if type(value) is SplitIndex else np.atleast_1d(value)


class _Pass:
    """One interpretation of a function body over a pass of blocks (``ctx``)."""

    def __init__(self, ctx, bindings: dict):
        self.ctx = ctx
        self.values = dict(bindings)  # id(Value) -> array, memref array or scalar

    def get(self, value: Value):
        try:
            return self.values[id(value)]
        except KeyError as exc:
            raise KeyError(f"use of undefined SSA value {value}") from exc

    def set(self, value: Value, concrete) -> None:
        self.values[id(value)] = concrete

    def run_block(self, block: Block) -> None:
        for op in block.operations:
            self.run_operation(op)

    def run_operation(self, op: Operation) -> None:
        name = op.name
        ctx = self.ctx
        if name == "arith.constant":
            self.set(op.result, op.attributes["value"])
        elif name in ("arith.addi", "arith.addf"):
            self.set(op.result, self.get(op.operands[0]) + self.get(op.operands[1]))
            self._count_flops(op)
        elif name == "arith.subi":
            self.set(op.result, self.get(op.operands[0]) - self.get(op.operands[1]))
        elif name in ("arith.muli", "arith.mulf"):
            self.set(op.result, self.get(op.operands[0]) * self.get(op.operands[1]))
            self._count_flops(op)
        elif name == "arith.divsi":
            self.set(op.result, self.get(op.operands[0]) // self.get(op.operands[1]))
        elif name == "arith.remsi":
            self.set(op.result, self.get(op.operands[0]) % self.get(op.operands[1]))
        elif name == "arith.minsi":
            self.set(op.result, np.minimum(self.get(op.operands[0]), self.get(op.operands[1])))
        elif name == "arith.maxsi":
            self.set(op.result, np.maximum(self.get(op.operands[0]), self.get(op.operands[1])))
        elif name == "arith.cmpi":
            compare = _COMPARE[op.attributes["predicate"]]
            self.set(op.result, compare(self.get(op.operands[0]), self.get(op.operands[1])))
        elif name == "arith.select":
            cond = self.get(op.operands[0])
            self.set(op.result, np.where(cond, self.get(op.operands[1]), self.get(op.operands[2])))
        elif name == "arith.index_cast":
            self.set(op.result, self.get(op.operands[0]))
        elif name == "gpu.thread_id":
            self.set(op.result, getattr(ctx, "t" + op.attributes["dimension"]))
        elif name == "gpu.block_id":
            self.set(op.result, getattr(ctx.blockIdx, op.attributes["dimension"]))
        elif name == "gpu.block_dim":
            self.set(op.result, getattr(ctx.blockDim, op.attributes["dimension"]))
        elif name == "gpu.grid_dim":
            self.set(op.result, getattr(ctx.gridDim, op.attributes["dimension"]))
        elif name in ("gpu.barrier", "gpu.return", "func.return", "scf.yield"):
            pass  # threads execute in lockstep
        elif name == "memref.alloc":
            self._alloc(op)
        elif name == "memref.load":
            array = self.get(op.operands[0])
            indices = [_index(self.get(v)) for v in op.operands[1:]]
            self.set(op.result, array.load(*indices) if type(array) is SharedArray
                     else array.load(ctx, *indices))
        elif name == "memref.store":
            value, array = self.get(op.operands[0]), self.get(op.operands[1])
            indices = [_index(self.get(v)) for v in op.operands[2:]]
            if type(array) is SharedArray:
                array.store(value, *indices)
            else:
                array.store(ctx, value, *indices)
        elif name == "scf.for":
            self._for(op)
        else:
            raise NotImplementedError(f"interpreter does not support {name}")

    def _count_flops(self, op: Operation) -> None:
        if op.name.endswith("f"):
            raw = np.asarray(self.values[id(op.result)])
            # a block-uniform value is computed by every block
            batch = self.ctx._batch
            self.ctx.trace.flops += float(raw.size) * (1 if per_block(op.name, raw, batch)
                                                       else batch)

    def _alloc(self, op: Operation) -> None:
        memref_type = op.result.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError("memref.alloc result must be a memref")
        if memref_type.memory_space != 3:
            raise NotImplementedError(
                f"memref.alloc in memory space {memref_type.memory_space}: only workgroup "
                "(space 3) buffers are allocated per block"
            )
        self.set(op.result, self.ctx.shared_array(
            memref_type.shape, dtype=memref_type.element_type.np_dtype, name=str(op.result)))

    def _for(self, op: Operation) -> None:
        bounds = [np.asarray(self.get(operand)) for operand in op.operands[:3]]
        if any(bound.ndim >= 2 for bound in bounds):
            raise NotImplementedError(
                "block-dependent scf.for bounds: every block of a pass runs the same iterations"
            )
        lower, upper, step = (int(bound.reshape(-1)[0]) for bound in bounds)
        body = op.regions[0].blocks[0]
        induction = body.arguments[0]
        for iv in range(lower, upper, step):
            self.set(induction, iv)
            self.run_block(body)


def run_gpu_kernel(
    module: Module,
    kernel_name: str,
    grid: tuple[int, int, int],
    block: tuple[int, int, int],
    arguments: Sequence[np.ndarray],
    device=None,
) -> GpuLaunchResult:
    """Interpret ``kernel_name`` from ``module`` over every block of a launch grid.

    ``arguments`` are NumPy arrays bound (in order) to the kernel's memref
    arguments; they are mutated in place by ``memref.store``.
    ``device`` (a :class:`~repro.gpusim.DeviceSpec`) supplies the warp width
    and DRAM sector granularity the traffic accounting uses instead of the
    CUDA-default 32/32.  The blocks run in passes of
    :data:`repro.vm.engine.SLAB_ELEMENTS` lanes.
    """
    fn = module.get_function(kernel_name)
    if fn.kind != "gpu.func":
        raise ValueError(f"{kernel_name!r} is not a gpu.func kernel")
    if len(arguments) != len(fn.arguments):
        raise ValueError(
            f"kernel {kernel_name!r} expects {len(fn.arguments)} arguments, got {len(arguments)}"
        )

    bindings = {}
    for value, array in zip(fn.arguments, arguments):
        if isinstance(value.type, MemRefType):
            expected = value.type.num_elements
            flat = np.ascontiguousarray(array).reshape(-1)
            if flat.size != expected:
                raise ValueError(
                    f"argument for {value} has {flat.size} elements, expected {expected}"
                )
            array = GlobalArray.over(flat, value.type.shape, str(value))
        bindings[id(value)] = array

    def kernel(ctx):
        _Pass(ctx, bindings).run_block(fn.body)

    return launch_blocks(GpuLaunchResult, kernel, grid, block, device=device)
