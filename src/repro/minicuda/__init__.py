"""Mini-CUDA: a block/thread execution model with memory accounting.

The paper's CUDA experiments (NW, LUD, the brick stencils) measure effects
that are entirely determined by *how kernels touch memory*: shared-memory
bank conflicts, global-memory coalescing, data-movement volume and the amount
of work per thread block.  This substrate replaces the CUDA runtime with a
NumPy-backed execution model that

* runs kernels a pass of blocks at a time with all threads of each block
  vectorised (:func:`launch`), honouring ``blockIdx`` / ``threadIdx`` /
  ``blockDim``;
* provides shared-memory arrays whose accesses are routed through a LEGO
  layout and whose per-warp bank conflicts are recorded
  (:class:`SharedArray`);
* provides global-memory views whose per-warp sector transactions are
  recorded (:class:`GlobalArray`).

The block runtime itself — :class:`Dim3`, :class:`BlockContext`, the arrays
and the pass loop — lives in :mod:`repro.vm.blocks` and :mod:`repro.vm.arrays`,
where the MLIR interpreter runs on it too; this package adds the launch trace
(:class:`CudaTrace`) and :func:`launch`.  A ``GlobalArray`` holds its own copy
of the array it wraps (``to_numpy()`` reads the result back).

:func:`repro.check.trace_to_cost` converts the recorded counters into a
:class:`repro.gpusim.KernelCost` for the analytic device model.

Every launch runs its whole grid: functional correctness and performance
estimation read the same small full launch, and :func:`repro.check.profile`
extrapolates the cost to the paper-scale problem (``Case.scale``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..vm.arrays import GlobalArray, SharedArray
from ..vm.blocks import BlockContext, BlockTrace, Dim3, launch_blocks

__all__ = [
    "Dim3",
    "BlockContext",
    "CudaTrace",
    "launch",
    "SharedArray",
    "GlobalArray",
]


@dataclass
class CudaTrace(BlockTrace):
    """Counters accumulated over one launch (final once its access log is flushed)."""

    #: shared memory
    smem_load_bytes: float = 0.0
    smem_store_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def smem_bytes(self) -> float:
        return self.smem_load_bytes + self.smem_store_bytes

    def add_smem_bytes(self, nbytes: float, is_store: bool) -> None:
        if is_store:
            self.smem_store_bytes += nbytes
        else:
            self.smem_load_bytes += nbytes


def launch(kernel: Callable, grid, block, args: Sequence = (), device=None) -> CudaTrace:
    """Run ``kernel(ctx, *args)`` over every block of ``grid`` x ``block`` threads.

    One pass of :data:`repro.vm.engine.SLAB_ELEMENTS` lanes at a time
    (:func:`repro.vm.blocks.launch_blocks`); ``device`` (a
    :class:`~repro.gpusim.DeviceSpec`) sets the warp width and DRAM sector
    granularity the accounting uses instead of the CUDA-default 32/32.
    """
    return launch_blocks(CudaTrace, kernel, grid, block, args, device)
