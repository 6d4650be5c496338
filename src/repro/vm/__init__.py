"""The launch path and the block runtime shared by the three execution substrates.

Each substrate (:mod:`repro.minitriton`, :mod:`repro.minicuda`,
:mod:`repro.mlir`) has one executor, which runs the **whole grid as one
NumPy execution**: every program (mini-Triton) or block (mini-CUDA, MLIR)
of a pass runs simultaneously along a leading batch axis — a single-lane
launch is the batch of one.  mini-CUDA kernels and the MLIR interpreter run
on one block runtime: :mod:`repro.vm.blocks` (``BlockContext``, the pass loop
``launch_blocks`` and the ``BlockTrace`` base) and :mod:`repro.vm.arrays`
(``SharedArray``, ``GlobalArray``).  Every recorder appends its access to the
launch trace's log (:class:`repro.gpusim.sharedmem.AccessLog`) and
:func:`repro.vm.engine.run_launch`, which every launch goes through, flushes
it once the executor returns: trace counters are final when the launcher
returns.  Outputs and counters are pinned by ``tests/golden/vm_reference.json``.

There is no engine selector: :func:`use_engine` and :func:`engine_mode`
only accept and report the executor's name for callers that still pass it.
"""

from .engine import engine_mode, use_engine

__all__ = ["engine_mode", "use_engine"]
