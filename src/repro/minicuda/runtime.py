"""Block/thread execution model for the mini-CUDA substrate.

A kernel is an ordinary Python function ``kernel(ctx, *args)`` receiving a
:class:`BlockContext` for one thread block.  Inside the kernel all threads of
the block are represented *vectorised*: ``ctx.tx`` / ``ctx.ty`` / ``ctx.tz``
are NumPy arrays with one entry per thread, and shared/global accesses take
such per-thread index arrays.  This mirrors how a warp-synchronous CUDA
kernel reads on paper while keeping the Python interpreter overhead per block
(not per thread).

:func:`launch` runs the kernel over every block of the grid and returns a
:class:`CudaTrace` with the accumulated global-memory traffic and
shared-memory conflict profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..gpusim.sharedmem import AccessLog, ConflictProfile
from ..vm.engine import run_launch

__all__ = ["Dim3", "BlockContext", "CudaTrace", "launch"]


@dataclass(frozen=True)
class Dim3:
    """A CUDA ``dim3``: up to three extents, missing ones default to 1."""

    x: int = 1
    y: int = 1
    z: int = 1

    @staticmethod
    def of(value) -> "Dim3":
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int):
            return Dim3(value)
        parts = tuple(int(v) for v in value)
        while len(parts) < 3:
            parts = parts + (1,)
        return Dim3(*parts[:3])

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
    #: DRAM sector granularity (bytes) the transaction counters were
    #: recorded at (see :class:`GlobalArray`); the trace->cost adapter
    #: charges moved bytes at the same size
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


class BlockContext:
    """Execution context of one thread block (all threads vectorised).

    ``tx`` / ``ty`` / ``tz`` are ``int64`` arrays of length ``blockDim.count``
    holding each thread's coordinates; ``thread_linear`` is the linear thread
    id used to group threads into warps for conflict/coalescing accounting.
    """

    def __init__(
        self,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        trace: CudaTrace,
        warp_size: int = 32,
        sector_bytes: int | None = None,
    ):
        self.blockIdx = block_idx
        self.blockDim = block_dim
        self.gridDim = grid_dim
        self.trace = trace
        #: warp width accesses are grouped by for conflict/coalescing
        #: accounting; the launcher sets it from the target device
        self.warp_size = warp_size
        #: DRAM sector granularity for transaction counting (``None``: each
        #: :class:`~repro.minicuda.GlobalArray` falls back to its own)
        self.sector_bytes = sector_bytes
        count = block_dim.count
        linear = np.arange(count, dtype=np.int64)
        self.thread_linear = linear
        self.tx = linear % block_dim.x
        self.ty = (linear // block_dim.x) % block_dim.y
        self.tz = linear // (block_dim.x * block_dim.y)
        self._shared: list = []

    # -- CUDA-style queries -----------------------------------------------------

    @property
    def num_threads(self) -> int:
        return self.blockDim.count

    def syncthreads(self) -> None:
        """Barrier: a no-op because threads execute in lockstep here."""

    # -- shared memory ------------------------------------------------------------

    def shared_array(self, shape: Sequence[int], dtype=np.float32, layout=None, name: str = "smem"):
        """Allocate a shared-memory array for this block (see :class:`SharedArray`)."""
        from .smem import SharedArray

        array = SharedArray(shape, dtype=dtype, layout=layout, name=name, context=self)
        self._shared.append(array)
        return array

    def smem_bytes_allocated(self) -> int:
        return int(sum(a.nbytes for a in self._shared))

    # -- arithmetic accounting ------------------------------------------------------

    def count_flops(self, flops: float) -> None:
        self.trace.flops += float(flops)

    # -- control-flow hooks ----------------------------------------------------------

    def where_blocks(self, condition):
        """Keep executing only when this block satisfies ``condition``.

        The batched context (:mod:`repro.vm.cuda`) narrows to the subset of
        blocks where the per-block predicate holds; here the predicate is a
        scalar, so the result is either this context or ``None``.  Kernels
        use it in place of an early ``return`` so the same source runs under
        both engines.
        """
        return self if bool(condition) else None

    def compact_threads(self, mask):
        """Restrict to the active lanes of ``mask`` (``None`` when all idle).

        ``ctx.compact(x)`` on the returned context selects the active lanes
        of a per-thread array — the engine-neutral spelling of boolean
        compression like ``x[mask]``.
        """
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), (self.num_threads,))
        if not mask.any():
            return None
        return _CompactThreads(self, mask)

    # -- warp helpers ---------------------------------------------------------------

    def iter_warps(self, active: np.ndarray | None = None, warp_size: int | None = None):
        """Yield per-warp boolean masks over the block's threads."""
        count = self.num_threads
        warp_size = warp_size or self.warp_size
        for start in range(0, count, warp_size):
            mask = np.zeros(count, dtype=bool)
            mask[start : start + warp_size] = True
            if active is not None:
                mask &= active
            if mask.any():
                yield mask


class _CompactThreads:
    """The active lanes of one block, as seen by array accesses.

    Exposes the accounting attributes (``trace`` / ``warp_size`` /
    ``sector_bytes`` / ``count_flops``) of the parent block so global
    accesses through it record exactly as they would through the block
    context with pre-compressed index arrays.
    """

    def __init__(self, ctx: "BlockContext", mask: np.ndarray):
        self._ctx = ctx
        self._mask = mask

    @property
    def trace(self):
        return self._ctx.trace

    @property
    def warp_size(self):
        return self._ctx.warp_size

    @property
    def sector_bytes(self):
        return self._ctx.sector_bytes

    def compact(self, values) -> np.ndarray:
        """Select the active lanes of a per-thread value."""
        return np.broadcast_to(np.asarray(values), self._mask.shape)[self._mask]

    def count_flops(self, flops: float) -> None:
        self._ctx.count_flops(flops)


def launch(
    kernel: Callable,
    grid,
    block,
    args: Sequence = (),
    device=None,
) -> CudaTrace:
    """Run ``kernel`` over every block of ``grid`` x ``block`` threads.

    ``kernel`` is called once per thread block as ``kernel(ctx, *args)``.
    ``device`` (a :class:`~repro.gpusim.DeviceSpec`) sets the warp width and
    DRAM sector granularity the accounting uses instead of the CUDA-default
    32/32.
    """
    grid = Dim3.of(grid)
    block = Dim3.of(block)
    warp_size = device.warp_size if device is not None else 32
    sector_bytes = device.dram_sector_bytes if device is not None else None
    run_trace = CudaTrace(
        blocks=grid.count, threads_per_block=block.count, sector_bytes=sector_bytes or 32
    )

    def batched(total, run_trace):
        from ..vm.cuda import launch_batched

        return launch_batched(
            kernel, grid, block, args, run_trace, total,
            warp_size=warp_size, sector_bytes=sector_bytes,
        )

    def treewalk(total, run_trace):
        max_smem = 0
        for flat in range(total):
            bx = flat % grid.x
            by = (flat // grid.x) % grid.y
            bz = flat // (grid.x * grid.y)
            ctx = BlockContext(
                Dim3(bx, by, bz), block, grid, run_trace,
                warp_size=warp_size, sector_bytes=sector_bytes,
            )
            kernel(ctx, *args)
            max_smem = max(max_smem, ctx.smem_bytes_allocated())
        return max_smem

    run_trace.smem_per_block = run_launch(grid.count, batched, treewalk, run_trace)
    return run_trace
