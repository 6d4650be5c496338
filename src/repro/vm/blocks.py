"""The block runtime mini-CUDA and the MLIR interpreter both execute on.

A block kernel is a callable ``kernel(ctx, *args)``.  The
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

:func:`launch_blocks` is the one pass loop: it runs the kernel over every
block of the grid into a fresh :class:`BlockTrace` — mini-CUDA's
``CudaTrace`` or the MLIR interpreter's ``GpuLaunchResult`` — with the
accumulated global-memory traffic and shared-memory conflict profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ..gpusim.sharedmem import AccessLog, ConflictProfile, ragged_warp_rows
from . import engine
from .arrays import SharedArray
from .engine import launch_extents, run_launch
from .split import block_index, lane_index, per_block

__all__ = ["Dim3", "BlockContext", "BlockTrace", "launch_blocks"]


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
class BlockTrace(AccessLog):
    """Counters of one block launch (final once its access log is flushed).

    The base of mini-CUDA's ``CudaTrace`` and the MLIR interpreter's
    ``GpuLaunchResult``: the launch geometry and the shared-memory conflict
    profile.  Each subclass keeps its own shared-volume fields, which every
    shared access adds to through :meth:`add_smem_bytes`.
    """

    smem_profile: ConflictProfile = field(default_factory=ConflictProfile)
    #: launch geometry
    blocks: int = 0
    threads_per_block: int = 0
    smem_per_block: int = 0

    @property
    def bank_conflict_factor(self) -> float:
        return self.smem_profile.average_degree

    def add_smem_bytes(self, nbytes: float, is_store: bool) -> None:
        """Count ``nbytes`` of shared-memory traffic (a load, or a store)."""
        raise NotImplementedError


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

    def record_global(self, name: str, physical: np.ndarray, element_bytes: int,
                      is_store: bool, repeat: int = 1) -> None:
        flat = physical.reshape(-1)
        if flat.size != self._lanes:
            raise TypeError(f"{name}: compacted access does not match the active lane count")
        # the warp rows carry padding: the access moves its real lanes only
        self._parent.trace.log_global(flat[self._chunks], element_bytes, self.warp_size,
                                      is_store, repeat, lanes=flat.size)


class BlockContext:
    """A pass of thread blocks of one grid, executed at once.

    ``block_ids`` are the flat ids of the pass's blocks; ``trace`` receives
    their counters and fixes the DRAM sector size global accesses are
    recorded at; ``warp_size`` is the width accesses are cut into warps by.
    ``blockIdx.x/y/z`` are block-only and ``tx/ty/tz`` lane-only
    :class:`~repro.vm.split.SplitIndex` values (read-only ``(B, 1)`` and
    ``(T,)`` arrays to any use but ``+``/``-``/``* int``), so a global access
    indexed by their sums is logged in closed form
    (:meth:`~repro.gpusim.sharedmem.AccessLog.log_global_affine`).
    """

    def __init__(
        self,
        block_ids: np.ndarray,
        block_dim: Dim3,
        grid_dim: Dim3,
        trace: BlockTrace,
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

    def record_global(self, name: str, physical: np.ndarray, element_bytes: int,
                      is_store: bool, repeat: int = 1) -> None:
        """Log a dense global access, paid ``repeat`` times (a grouped access's class)."""
        if per_block(name, physical, self._batch):
            rows = physical
        else:
            # block-uniform access: every block repeats the same pattern
            rows, repeat = physical.reshape(1, -1), repeat * self._batch
        self.trace.log_global(rows, element_bytes, self.warp_size, is_store, repeat)


def _block_index(bx: np.ndarray, by: np.ndarray, bz: np.ndarray) -> SimpleNamespace:
    """``blockIdx``: one block-only split index per axis over its ``(B, 1)`` ids."""
    return SimpleNamespace(x=block_index(bx), y=block_index(by), z=block_index(bz))


def launch_blocks(trace_type, kernel: Callable, grid, block, args: Sequence = (),
                  device=None) -> BlockTrace:
    """Run ``kernel`` over every block of ``grid`` x ``block`` threads into a fresh
    ``trace_type`` (a :class:`BlockTrace` subclass).

    ``kernel`` is called as ``kernel(ctx, *args)`` once per pass of
    :data:`repro.vm.engine.SLAB_ELEMENTS` lanes.  ``device`` (a
    :class:`~repro.gpusim.DeviceSpec`) sets the warp width and DRAM sector
    granularity the accounting uses instead of the CUDA-default 32/32.
    """
    grid = Dim3.of(grid, "grid")
    block = Dim3.of(block, "block")
    warp_size = device.warp_size if device is not None else 32
    run_trace = trace_type(
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
