"""Block/thread execution model for the mini-CUDA substrate.

A kernel is an ordinary Python function ``kernel(ctx, *args)``.  The
:class:`BlockContext` it receives stands for a pass of thread blocks executed
at once, with all threads of each block vectorised: ``ctx.tx`` / ``ctx.ty`` /
``ctx.tz`` are ``(T,)`` values with one entry per thread and
``ctx.blockIdx.x/y/z`` are ``(B, 1)`` values with one row per block, so index
arithmetic broadcasts to ``(B, T)``.  They are
:class:`~repro.vm.split.SplitIndex` values: under ``+``/``-``/``* int``
an index stays ``block + lane``, which a global access checks, logs and
gathers without building the ``(B, T)`` arrays; every other use reads the
same array the op-by-op arithmetic gives.  The shape convention is the whole
protocol: an access whose physical index array is 2-D with leading extent
``B`` differs per block; anything of rank <= 1 is block-uniform and repeats
identically in every block (logged once, with ``repeat = B``);
``SharedArray.load_rows`` takes a block-uniform ``(instructions, lanes)``
matrix, many such loads in one call.  A single-block launch is the pass of
one.  This mirrors how a warp-synchronous CUDA kernel reads on paper while
keeping the Python interpreter overhead per pass (not per block or thread).

Kernels cooperate through two small control-flow hooks:

* ``ctx.where_blocks(cond)`` — narrow to the blocks satisfying a per-block
  predicate (in place of an early ``return``);
* ``ctx.compact_threads(mask)`` — select active lanes per block (in place of
  boolean-compressing the thread arrays), each block's compacted lanes cut
  into warps of their own.

:func:`launch` runs the kernel over every block of the grid and returns a
:class:`CudaTrace` with the accumulated global-memory traffic and
shared-memory conflict profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ..gpusim.sharedmem import AccessLog, ConflictProfile, ragged_warp_rows
from ..vm import engine
from ..vm.engine import launch_extents, run_launch
from ..vm.split import block_index, lane_index
from .smem import SharedArray, _bump_global

__all__ = ["Dim3", "BlockContext", "CudaTrace", "launch"]


@dataclass(frozen=True)
class Dim3:
    """A CUDA ``dim3``: up to three extents, missing ones default to 1."""

    x: int = 1
    y: int = 1
    z: int = 1

    @staticmethod
    def of(value, argument: str) -> "Dim3":
        """``value`` validated as the launch's ``argument`` (``"grid"`` or ``"block"``)."""
        return Dim3(*launch_extents(value, argument))

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    def __iter__(self):
        return iter((self.x, self.y, self.z))


@dataclass
class CudaTrace(AccessLog):
    """Counters accumulated over one launch (final once its access log is flushed)."""

    #: global memory
    load_elements: float = 0.0
    store_elements: float = 0.0
    load_bytes: float = 0.0
    store_bytes: float = 0.0
    load_transactions: float = 0.0
    store_transactions: float = 0.0
    #: shared memory
    smem_load_bytes: float = 0.0
    smem_store_bytes: float = 0.0
    smem_profile: ConflictProfile = field(default_factory=ConflictProfile)
    #: arithmetic
    flops: float = 0.0
    #: launch geometry
    blocks: int = 0
    threads_per_block: int = 0
    smem_per_block: int = 0
    #: DRAM sector granularity (bytes) every global access of the launch is
    #: recorded at; the trace->cost adapter charges moved bytes at the same size
    sector_bytes: int = 32
    extras: dict = field(default_factory=dict)

    @property
    def dram_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    @property
    def smem_bytes(self) -> float:
        return self.smem_load_bytes + self.smem_store_bytes

    @property
    def bank_conflict_factor(self) -> float:
        return self.smem_profile.average_degree


class _CompactedThreads:
    """Active lanes of a context after ``compact_threads(mask)``.

    Lanes are flattened block-major (C order over the ``(B, T)`` mask): each
    block's compacted lanes, block after block.  Warp chunks therefore
    restart at every block boundary — ``_chunks`` holds, per (block, chunk)
    row, the flat positions of its lanes (padding included), so an access is
    one gather.
    """

    #: compacted lanes are not rows of blocks: every global access takes the dense path
    _batch = None

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

    def compact(self, values) -> np.ndarray:
        """Select the active lanes of a per-lane value (flat, block-major)."""
        return np.broadcast_to(np.asarray(values), self._mask.shape)[self._mask]

    def count_flops(self, flops: float) -> None:
        # compacted flop counts are already lane-sums across blocks
        self._parent.trace.flops += float(flops)

    def record_global(self, physical: np.ndarray, element_bytes: int, is_store: bool) -> None:
        trace = self._parent.trace
        flat = physical.reshape(-1)
        if flat.size != self._lanes:
            raise TypeError("compacted access does not match the active lane count")
        count = float(flat.size)
        trace.log_global(flat[self._chunks], element_bytes, trace.sector_bytes, self.warp_size,
                         is_store)
        _bump_global(trace, is_store, count, count * element_bytes)


class BlockContext:
    """A pass of thread blocks of one grid, executed at once.

    ``block_ids`` are the flat ids of the pass's blocks; ``trace`` receives
    their counters and fixes the DRAM sector size global accesses are
    recorded at; ``warp_size`` is the width accesses are cut into warps by.
    ``blockIdx.x/y/z`` are block-only and ``tx/ty/tz`` lane-only
    :class:`~repro.vm.split.SplitIndex` values (read-only ``(B, 1)`` and
    ``(T,)`` arrays to any use but ``+``/``-``/``* int``), so a global access
    indexed by their sums takes the closed form
    (:meth:`record_global_affine`).
    """

    def __init__(
        self,
        block_ids: np.ndarray,
        block_dim: Dim3,
        grid_dim: Dim3,
        trace: CudaTrace,
        warp_size: int = 32,
    ):
        batch = int(block_ids.size)
        bx = (block_ids % grid_dim.x).reshape(batch, 1)
        by = ((block_ids // grid_dim.x) % grid_dim.y).reshape(batch, 1)
        bz = (block_ids // (grid_dim.x * grid_dim.y)).reshape(batch, 1)
        self.blockIdx = _block_index(bx, by, bz)
        self.blockDim = block_dim
        self.gridDim = grid_dim
        self.trace = trace
        self.warp_size = warp_size
        self._batch = batch
        linear = np.arange(block_dim.count, dtype=np.int64)
        self.tx = lane_index(linear % block_dim.x, block_dim.x)
        self.ty = lane_index((linear // block_dim.x) % block_dim.y, block_dim.y)
        self.tz = lane_index(linear // (block_dim.x * block_dim.y), block_dim.z)
        # shared with narrowed sub-contexts so the launcher reads the
        # per-block allocation total off the root context
        self._alloc_sizes: list[int] = []

    @property
    def num_threads(self) -> int:
        return self.blockDim.count

    def syncthreads(self) -> None:
        """Barrier: a no-op — whole blocks execute in lockstep."""

    def shared_array(self, shape: Sequence[int], dtype=np.float32, layout=None,
                     name: str = "smem") -> SharedArray:
        """Allocate a shared-memory array, one copy per block (see :class:`SharedArray`)."""
        array = SharedArray(self, shape, dtype=dtype, layout=layout, name=name)
        self._alloc_sizes.append(array.nbytes)
        return array

    def smem_bytes_allocated(self) -> int:
        """Per-block shared allocation total."""
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
        narrowed = object.__new__(BlockContext)
        narrowed.__dict__.update(self.__dict__)
        narrowed.blockIdx = _block_index(
            self.blockIdx.x[keep], self.blockIdx.y[keep], self.blockIdx.z[keep]
        )
        narrowed._batch = int(keep.sum())
        return narrowed

    def compact_threads(self, mask):
        """Select active lanes per block (``None`` when no lane is active).

        ``ctx.compact(x)`` on the returned context selects the active lanes of
        a per-thread array — the spelling of boolean compression like
        ``x[mask]``.
        """
        mask = np.broadcast_to(
            np.asarray(mask, dtype=bool), (self._batch, self.blockDim.count)
        )
        if not mask.any():
            return None
        return _CompactedThreads(self, mask)

    # -- global-memory accounting (called by GlobalArray.load / store) ------

    def record_global(self, physical: np.ndarray, element_bytes: int, is_store: bool) -> None:
        trace = self.trace
        if physical.ndim == 2 and physical.shape[0] == self._batch:
            rows, repeat = physical, 1
        elif physical.ndim <= 1:
            # block-uniform access: every block repeats the same pattern
            rows, repeat = physical.reshape(1, -1), self._batch
        else:
            raise TypeError(
                f"cannot classify a rank-{physical.ndim} global access: expected one row "
                f"per block ({self._batch}) or a block-uniform index"
            )
        trace.log_global(rows, element_bytes, trace.sector_bytes, self.warp_size, is_store,
                         repeat)
        count = float(rows.size * repeat)
        _bump_global(trace, is_store, count, count * element_bytes)

    def record_global_affine(self, base: np.ndarray, pattern: np.ndarray, element_bytes: int,
                             is_store: bool) -> None:
        """Log the access whose block ``b`` reads ``base[b] + pattern``, never building the rows.

        Each block's row is still cut into warps of ``warp_size`` lanes, as
        :meth:`record_global` cuts the materialised ``(B, lanes)`` rows.
        """
        trace = self.trace
        trace.log_global_affine(base, pattern, element_bytes, trace.sector_bytes,
                                self.warp_size, is_store)
        count = float(base.size * pattern.size)
        _bump_global(trace, is_store, count, count * element_bytes)


def _block_index(bx: np.ndarray, by: np.ndarray, bz: np.ndarray) -> SimpleNamespace:
    """``blockIdx``: one block-only split index per axis over its ``(B, 1)`` ids."""
    return SimpleNamespace(x=block_index(bx), y=block_index(by), z=block_index(bz))


def launch(
    kernel: Callable,
    grid,
    block,
    args: Sequence = (),
    device=None,
) -> CudaTrace:
    """Run ``kernel`` over every block of ``grid`` x ``block`` threads.

    ``kernel`` is called as ``kernel(ctx, *args)`` once per pass of
    :data:`repro.vm.engine.SLAB_ELEMENTS` lanes.  ``device`` (a
    :class:`~repro.gpusim.DeviceSpec`) sets the warp width and DRAM sector
    granularity the accounting uses instead of the CUDA-default 32/32.
    """
    grid = Dim3.of(grid, "grid")
    block = Dim3.of(block, "block")
    warp_size = device.warp_size if device is not None else 32
    run_trace = CudaTrace(
        blocks=grid.count, threads_per_block=block.count,
        sector_bytes=device.dram_sector_bytes if device is not None else 32,
    )

    def execute(total, run_trace):
        ids = np.arange(total, dtype=np.int64)
        blocks_per_pass = max(1, engine.SLAB_ELEMENTS // block.count)
        max_smem = 0
        for start in range(0, total, blocks_per_pass):
            ctx = BlockContext(ids[start:start + blocks_per_pass], block, grid, run_trace,
                               warp_size=warp_size)
            kernel(ctx, *args)
            max_smem = max(max_smem, ctx.smem_bytes_allocated())
        return max_smem

    run_trace.smem_per_block = run_launch(grid.count, execute, run_trace)
    return run_trace
