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

:func:`repro.perf.trace_to_cost` converts the recorded counters into a
:class:`repro.gpusim.KernelCost` for the analytic device model.

Every launch runs its whole grid: functional correctness and performance
estimation read the same small full launch, and :mod:`repro.perf`
extrapolates the cost to the paper-scale problem (``Case.scale``).
"""

from .runtime import BlockContext, CudaTrace, Dim3, launch
from .smem import GlobalArray, SharedArray

__all__ = [
    "Dim3",
    "BlockContext",
    "CudaTrace",
    "launch",
    "SharedArray",
    "GlobalArray",
]
