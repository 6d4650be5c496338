"""Whole-grid batched execution for the mini-CUDA substrate.

The tree-walk launcher interprets one :class:`BlockContext` per thread
block.  The batched context here represents *every* launched block at
once: ``ctx.blockIdx.x/y/z`` are ``(B, 1)`` arrays, so index arithmetic
against the per-thread ``(T,)`` coordinate arrays broadcasts to
``(B, T)`` — one row per block.  The shape convention is the whole
protocol: an access whose physical index array is 2-D with leading
extent ``B`` differs per block; anything of rank <= 1 is block-uniform
and repeats identically in every block (recorded once, multiplied by
``B``).

Kernels cooperate through two small control-flow hooks that the
tree-walk :class:`BlockContext` also implements (so kernels stay
single-source):

* ``ctx.where_blocks(cond)`` — narrow to the blocks satisfying a
  per-block predicate (the batched form of an early ``return``);
* ``ctx.compact_threads(mask)`` — select active lanes per block (the
  batched form of boolean-compressing the thread arrays), preserving the
  tree-walk's per-block warp chunking of the compacted lane order.

Shared-memory arrays get one row per block (``(B, words)``); global
arrays are untouched — their ``_record`` dispatches to the context's
``record_global``.  Neither scores: each appends its ``(B, T)`` offsets (or
the one block-uniform row with ``repeat = B``) to the launch trace's access
log (:class:`repro.gpusim.sharedmem.AccessLog`).  The grid runs in passes of
:data:`repro.vm.engine.SLAB_ELEMENTS` lanes, the size the log flushes at.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ..gpusim.sharedmem import ragged_warp_rows
from ..minicuda.runtime import BlockContext, CudaTrace, Dim3
from ..minicuda.smem import SharedArray, _bump_global
from . import engine
from .engine import TREEWALK_HINT

__all__ = ["BatchedBlockContext", "launch_batched"]


def _per_block_values(raw: np.ndarray, batch: int, block_shape: tuple) -> np.ndarray:
    """Broadcast a store value to ``(batch,) + block_shape``.

    Values of rank >= 2 whose leading extent is the batch count carry one
    slice per block; leading singleton block axes (an artifact of the
    ``(B, 1)`` block-index arrays) are squeezed until the per-block shape
    lines up.  Anything else is block-uniform and broadcasts right-aligned.
    """
    if raw.ndim >= 2 and raw.shape[0] == batch:
        per_block = raw.shape[1:]
        while len(per_block) > len(block_shape) and per_block[0] == 1:
            per_block = per_block[1:]
            raw = raw.reshape((batch,) + per_block)
    return np.broadcast_to(raw, (batch,) + tuple(block_shape))


class BatchedSharedArray(SharedArray):
    """Per-block shared memory for a batched context: ``data`` is ``(B, words)``.

    A :class:`repro.minicuda.SharedArray` — logical indexing through the
    same layout table, identical byte and bank-conflict accounting — that
    holds every active block's buffer as one row.
    """

    def _allocate(self) -> np.ndarray:
        return np.zeros((self._context._batch, self.size), dtype=self.dtype)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    def _classify(self, physical: np.ndarray) -> bool:
        if physical.ndim == 2 and physical.shape[0] == self.batch:
            return True
        if physical.ndim <= 1:
            return False
        raise TypeError(
            f"{self.name}: cannot classify a rank-{physical.ndim} access under batching; "
            f"{TREEWALK_HINT}"
        )

    def _record(self, physical: np.ndarray, batched: bool, is_store: bool) -> None:
        ctx = self._context
        trace = ctx.trace
        warp_size = getattr(ctx, "warp_size", 32)
        itemsize = self.dtype.itemsize
        # block-uniform: every block repeats the one pattern
        rows, repeat = (physical, 1) if batched else (physical.reshape(1, -1), self.batch)
        nbytes = float(self.batch * rows.shape[1]) * itemsize
        if is_store:
            trace.smem_store_bytes += nbytes
        else:
            trace.smem_load_bytes += nbytes
        trace.log_shared(rows, itemsize, warp_size, repeat)

    def load(self, *indices) -> np.ndarray:
        physical = self._physical(indices)
        batched = self._classify(physical)
        self._record(physical, batched, is_store=False)
        if batched:
            return self.data[np.arange(self.batch)[:, None], physical]
        flat = physical.reshape(-1)
        return self.data[:, flat].reshape((self.batch,) + physical.shape)

    def store(self, value, *indices) -> None:
        physical = self._physical(indices)
        batched = self._classify(physical)
        self._record(physical, batched, is_store=True)
        raw = np.asarray(value, dtype=self.dtype)
        if batched:
            values = _per_block_values(raw, self.batch, physical.shape[1:])
            self.data[np.arange(self.batch)[:, None], physical] = values
            return
        values = _per_block_values(raw, self.batch, physical.shape)
        self.data[:, physical.reshape(-1)] = values.reshape(self.batch, -1)


class _CompactedThreads:
    """Active lanes of a batched context after ``compact_threads(mask)``.

    Lanes are flattened block-major (C order over the ``(B, T)`` mask),
    which is exactly the order the tree-walk sees: each block's compacted
    lanes, block after block.  Warp chunks therefore restart at every
    block boundary — ``_chunks`` holds, per (block, chunk) row, the flat
    positions of its lanes (padding included), so an access is one gather.
    """

    def __init__(self, parent, mask: np.ndarray):
        self._parent = parent
        self._mask = mask
        counts = mask.sum(axis=1)
        self._lanes = int(counts.sum())
        self._chunks = ragged_warp_rows(np.arange(self._lanes), counts, parent.warp_size)

    @property
    def trace(self):
        return self._parent.trace

    @property
    def warp_size(self):
        return self._parent.warp_size

    @property
    def sector_bytes(self):
        return self._parent.sector_bytes

    def compact(self, values) -> np.ndarray:
        """Select the active lanes of a per-lane value (flat, block-major)."""
        return np.broadcast_to(np.asarray(values), self._mask.shape)[self._mask]

    def count_flops(self, flops: float) -> None:
        # compacted flop counts are already lane-sums across blocks
        self._parent.trace.flops += float(flops)

    def record_global(self, physical: np.ndarray, element_bytes: int,
                      is_store: bool, default_sector: int = 32) -> None:
        trace = self._parent.trace
        sector_bytes = self._parent.sector_bytes or default_sector
        flat = physical.reshape(-1)
        if flat.size != self._lanes:
            raise TypeError("compacted access does not match the active lane count")
        count = float(flat.size)
        trace.log_global(flat[self._chunks], element_bytes, sector_bytes, self.warp_size,
                         is_store)
        _bump_global(trace, is_store, count, count * element_bytes)


class BatchedBlockContext:
    """All launched blocks of one (chunk of a) grid, executed at once."""

    def __init__(
        self,
        block_ids: np.ndarray,
        block_dim: Dim3,
        grid_dim: Dim3,
        trace: CudaTrace,
        warp_size: int = 32,
        sector_bytes: int | None = None,
        _alloc_sizes: list | None = None,
    ):
        batch = int(block_ids.size)
        bx = (block_ids % grid_dim.x).reshape(batch, 1)
        by = ((block_ids // grid_dim.x) % grid_dim.y).reshape(batch, 1)
        bz = (block_ids // (grid_dim.x * grid_dim.y)).reshape(batch, 1)
        self.blockIdx = SimpleNamespace(x=bx, y=by, z=bz)
        self.blockDim = block_dim
        self.gridDim = grid_dim
        self.trace = trace
        self.warp_size = warp_size
        self.sector_bytes = sector_bytes
        self._batch = batch
        count = block_dim.count
        linear = np.arange(count, dtype=np.int64)
        self.thread_linear = linear
        self.tx = linear % block_dim.x
        self.ty = (linear // block_dim.x) % block_dim.y
        self.tz = linear // (block_dim.x * block_dim.y)
        # shared with narrowed sub-contexts so the launcher reads the
        # per-block allocation total off the root context
        self._alloc_sizes = _alloc_sizes if _alloc_sizes is not None else []

    @property
    def num_threads(self) -> int:
        return self.blockDim.count

    def syncthreads(self) -> None:
        """Barrier: a no-op — whole blocks execute in lockstep here too."""

    def shared_array(self, shape: Sequence[int], dtype=np.float32, layout=None,
                     name: str = "smem") -> BatchedSharedArray:
        array = BatchedSharedArray(shape, dtype=dtype, layout=layout, name=name, context=self)
        self._alloc_sizes.append(array.nbytes)
        return array

    def smem_bytes_allocated(self) -> int:
        """Per-block shared allocation total (what one tree-walk block allocates)."""
        return int(sum(self._alloc_sizes))

    def count_flops(self, flops: float) -> None:
        # a block-uniform flop count is paid by every block
        self.trace.flops += float(flops) * self._batch

    # -- control-flow hooks -------------------------------------------------

    def where_blocks(self, condition):
        """Narrow to the blocks where ``condition`` holds (``None`` if empty)."""
        keep = np.asarray(condition, dtype=bool).reshape(-1)
        if keep.size != self._batch:
            raise TypeError(
                f"where_blocks predicate has {keep.size} entries for {self._batch} blocks"
            )
        if keep.all():
            return self
        if not keep.any():
            return None
        narrowed = object.__new__(BatchedBlockContext)
        narrowed.blockIdx = SimpleNamespace(
            x=self.blockIdx.x[keep], y=self.blockIdx.y[keep], z=self.blockIdx.z[keep]
        )
        narrowed.blockDim = self.blockDim
        narrowed.gridDim = self.gridDim
        narrowed.trace = self.trace
        narrowed.warp_size = self.warp_size
        narrowed.sector_bytes = self.sector_bytes
        narrowed._batch = int(keep.sum())
        narrowed.thread_linear = self.thread_linear
        narrowed.tx, narrowed.ty, narrowed.tz = self.tx, self.ty, self.tz
        narrowed._alloc_sizes = self._alloc_sizes
        return narrowed

    def compact_threads(self, mask):
        """Select active lanes per block (``None`` when no lane is active)."""
        mask = np.broadcast_to(
            np.asarray(mask, dtype=bool), (self._batch, self.blockDim.count)
        )
        if not mask.any():
            return None
        return _CompactedThreads(self, mask)

    # -- global-memory accounting (dispatch target of GlobalArray._record) --

    def record_global(self, physical: np.ndarray, element_bytes: int,
                      is_store: bool, default_sector: int = 32) -> None:
        trace = self.trace
        sector_bytes = self.sector_bytes or default_sector
        if physical.ndim == 2 and physical.shape[0] == self._batch:
            rows, repeat = physical, 1
        elif physical.ndim <= 1:
            # block-uniform access: every block repeats the same pattern
            rows, repeat = physical.reshape(1, -1), self._batch
        else:
            raise TypeError(
                f"cannot classify a rank-{physical.ndim} global access under batching; "
                f"{TREEWALK_HINT}"
            )
        trace.log_global(rows, element_bytes, sector_bytes, self.warp_size, is_store, repeat)
        count = float(rows.size * repeat)
        _bump_global(trace, is_store, count, count * element_bytes)


def launch_batched(
    kernel: Callable,
    grid: Dim3,
    block: Dim3,
    args: Sequence,
    run_trace: CudaTrace,
    total: int,
    warp_size: int,
    sector_bytes: int | None,
) -> int:
    """Run all ``total`` blocks of the grid in vectorized passes of one slab of lanes.

    Mutates global arrays and accumulates into ``run_trace`` exactly as
    the per-block loop would; returns the per-block shared-memory
    allocation total (the launcher's ``max_smem``).
    """
    ids = np.arange(total, dtype=np.int64)
    blocks_per_chunk = max(1, engine.SLAB_ELEMENTS // max(1, block.count))
    max_smem = 0
    for start in range(0, total, blocks_per_chunk):
        ctx = BatchedBlockContext(
            ids[start:start + blocks_per_chunk], block, grid, run_trace,
            warp_size=warp_size, sector_bytes=sector_bytes,
        )
        kernel(ctx, *args)
        max_smem = max(max_smem, ctx.smem_bytes_allocated())
    return max_smem
