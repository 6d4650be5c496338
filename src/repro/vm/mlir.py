"""Whole-grid batched interpretation of LEGO-emitted MLIR kernels.

Reuses the op dispatch of :class:`repro.mlir.interp._BlockExecutor` but
binds ``gpu.block_id`` to ``(B, 1)`` arrays so every launched block's SSA
values materialise at once: per-thread values broadcast to ``(B, T)`` rows,
block-uniform values stay rank <= 1 (logged once with ``repeat = B``).
Workgroup and private ``memref.alloc`` buffers get one row per block.

Anything outside the batchable subset (e.g. block-dependent ``scf.for``
bounds) raises ``NotImplementedError`` naming ``use_engine("treewalk")``,
the engine that can run it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mlir.interp import _BlockExecutor
from ..mlir.ir import Operation, Value
from ..mlir.types import MemRefType
from . import engine
from .engine import TREEWALK_HINT

__all__ = ["launch_batched"]


class _BatchedExecutor(_BlockExecutor):
    """One executor for a whole batch of thread blocks."""

    def __init__(
        self,
        block_ids: np.ndarray,
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        memrefs,
        result,
        warp_size: int,
        sector_bytes: int,
    ):
        batch = int(block_ids.size)
        bx = (block_ids % grid_dim[0]).reshape(batch, 1)
        by = ((block_ids // grid_dim[0]) % grid_dim[1]).reshape(batch, 1)
        bz = (block_ids // (grid_dim[0] * grid_dim[1])).reshape(batch, 1)
        super().__init__(
            (0, 0, 0), block_dim, grid_dim, memrefs, result,
            warp_size=warp_size, sector_bytes=sector_bytes,
        )
        self.block_idx = (bx, by, bz)
        self._batch = batch
        #: in-kernel allocations are per block -> one row each; kernel
        #: argument buffers stay flat and are shared across blocks
        self._batched_buffers: set[int] = set()

    # -- classification -----------------------------------------------------

    def _is_batched(self, array: np.ndarray) -> bool:
        if array.ndim == 2 and array.shape[0] == self._batch:
            return True
        if array.ndim <= 1:
            return False
        raise NotImplementedError(
            f"cannot classify a rank-{array.ndim} value under batching; {TREEWALK_HINT}"
        )

    # -- accounting ---------------------------------------------------------

    def _count_flops(self, op: Operation) -> None:
        if op.name.endswith("f"):
            value = self.values.get(id(op.results[0])) if op.results else None
            raw = np.asarray(value) if value is not None else np.asarray(1)
            if self._is_batched(raw):
                self.result.flops += float(raw.size)
            else:
                self.result.flops += float(raw.size) * self._batch

    def _record_global(self, offsets: np.ndarray, element_bytes: int, is_store: bool) -> None:
        # a block-uniform access is one row, repeated identically in every block
        rows, repeat = (offsets, 1) if self._is_batched(offsets) else \
            (offsets.reshape(1, -1), self._batch)
        self.result.log_global(rows, element_bytes, self.sector_bytes, self.warp_size, is_store,
                               repeat)
        self._bump_global(float(rows.size * repeat), element_bytes, is_store)

    def _record_shared(self, offsets: np.ndarray, element_bytes: int) -> None:
        rows, repeat = (offsets, 1) if self._is_batched(offsets) else \
            (offsets.reshape(1, -1), self._batch)
        self.result.smem_bytes += float(self._batch * rows.shape[1]) * element_bytes
        self.result.log_shared(rows, element_bytes, self.warp_size, repeat)

    # -- memory -------------------------------------------------------------

    def _alloc(self, op: Operation) -> None:
        memref_type = op.result.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError("memref.alloc result must be a memref")
        buffer = np.zeros(
            (self._batch, memref_type.num_elements),
            dtype=memref_type.element_type.np_dtype,
        )
        self.memrefs[id(op.result)] = buffer
        self.memref_types[id(op.result)] = memref_type
        self._batched_buffers.add(id(op.result))
        if memref_type.memory_space == 3:
            # allocation accounting is per block, like the tree-walk
            self.shared_allocated += int(buffer.nbytes // self._batch)
        self.set(op.result, op.result)

    def _buffer_is_batched(self, source: Value) -> bool:
        if id(source) in self._batched_buffers:
            return True
        bound = self.values.get(id(source))
        return bound is not None and id(bound) in self._batched_buffers

    def _load(self, op: Operation) -> None:
        source = op.operands[0]
        memref_type = source.type
        assert isinstance(memref_type, MemRefType)
        buffer = self._buffer_of(source)
        offsets = self._flat_offsets(source, [self.get(v) for v in op.operands[1:]])
        element_bytes = buffer.dtype.itemsize
        if memref_type.memory_space == 3:
            self._record_shared(offsets, element_bytes)
        else:
            self._record_global(offsets, element_bytes, is_store=False)
        if self._buffer_is_batched(source):
            if self._is_batched(offsets):
                values = buffer[np.arange(self._batch)[:, None], offsets]
            else:
                flat = offsets.reshape(-1)
                values = buffer[:, flat].reshape((self._batch,) + offsets.shape)
        else:
            values = buffer[offsets]
        self.set(op.result, values)

    def _store(self, op: Operation) -> None:
        value = self.get(op.operands[0])
        dest = op.operands[1]
        memref_type = dest.type
        assert isinstance(memref_type, MemRefType)
        buffer = self._buffer_of(dest)
        offsets = self._flat_offsets(dest, [self.get(v) for v in op.operands[2:]])
        element_bytes = buffer.dtype.itemsize
        if memref_type.memory_space == 3:
            self._record_shared(offsets, element_bytes)
        else:
            self._record_global(offsets, element_bytes, is_store=True)
        raw = np.asarray(value, dtype=buffer.dtype)
        if self._buffer_is_batched(dest):
            if self._is_batched(offsets):
                buffer[np.arange(self._batch)[:, None], offsets] = np.broadcast_to(raw, offsets.shape)
            else:
                flat = offsets.reshape(-1)
                target = (self._batch,) + offsets.shape
                buffer[:, flat] = np.broadcast_to(raw, target).reshape(self._batch, -1)
        else:
            # flat argument buffer: C-order fancy assignment is block-major,
            # reproducing the tree-walk's sequential last-writer-wins
            buffer[offsets] = np.broadcast_to(raw, offsets.shape)

    # -- control flow -------------------------------------------------------

    def _for(self, op: Operation) -> None:
        for operand in op.operands[:3]:
            if np.asarray(self.get(operand)).ndim >= 2:
                raise NotImplementedError(
                    f"block-dependent scf.for bounds cannot batch; {TREEWALK_HINT}"
                )
        super()._for(op)


def launch_batched(
    fn,
    grid: tuple[int, int, int],
    block: tuple[int, int, int],
    flat_buffers,
    arguments: Sequence,
    result,
    total: int,
    warp_size: int,
    sector_bytes: int,
) -> int:
    """Run all ``total`` blocks of the launch grid in vectorized passes of one slab of lanes.

    Mirrors the per-block loop of :func:`repro.mlir.interp.run_gpu_kernel`
    (same buffer mutation, same counters in ``result``); returns the
    per-block shared-allocation total.
    """
    ids = np.arange(total, dtype=np.int64)
    threads = block[0] * block[1] * block[2]
    blocks_per_chunk = max(1, engine.SLAB_ELEMENTS // max(1, threads))
    smem_per_block = 0
    for start in range(0, total, blocks_per_chunk):
        executor = _BatchedExecutor(
            ids[start:start + blocks_per_chunk], block, grid, flat_buffers, result,
            warp_size=warp_size, sector_bytes=sector_bytes,
        )
        for value, array in zip(fn.arguments, arguments):
            if isinstance(value.type, MemRefType):
                executor.set(value, value)
            else:
                executor.set(value, array)
        executor.run_block(fn.body)
        smem_per_block = max(smem_per_block, executor.shared_allocated)
    return smem_per_block
