"""Vectorized substrate execution engine.

The three execution substrates (:mod:`repro.minitriton`,
:mod:`repro.minicuda`, :mod:`repro.mlir`) each have a tree-walk
interpreter — one Python pass per program / per block, easy to audit —
and a batched executor in this package that runs the **whole grid as one
NumPy execution**: every program (mini-Triton) or block (mini-CUDA, MLIR)
runs simultaneously along a leading batch axis, and the trace counters —
DRAM sectors at the trace's recorded granularity, shared-memory
bank-conflict degrees, flops — are synthesized from the batched
access-offset arrays: every recorder, the tree walks' included, appends its
access to the launch trace's log (:class:`repro.gpusim.sharedmem.AccessLog`)
and one flush scores what is pending row-wise (a row is a warp chunk, or a
program).

The two are **bit-for-bit equivalent**: outputs and every trace counter
match exactly (all counters are sums of integer-valued terms, so
summation order cannot perturb them), which is what lets ``repro.check``
differentially verify each batched executor against its tree-walk twin.

:func:`repro.vm.engine.run_launch` is the one dispatch the three
launchers share: every launch runs its whole grid once and records a
trace.  The engine is ambient — selected by :func:`use_engine` or the
``REPRO_VM`` environment variable, the only two selectors, and read with
:func:`engine_mode`:

* ``"vectorized"`` (default) — batched execution; whatever the batched
  engine raises is the launch's error.  A hand-written kernel using a
  construct it cannot express gets an error that says to run it under
  ``use_engine("treewalk")``;
* ``"treewalk"`` — the reference interpreters.

Single-lane launches and mini-Triton kernels not built by
:func:`repro.minitriton.compile_kernel` have nothing to batch and take
the tree walk in either mode.
"""

from .engine import engine_mode, use_engine

__all__ = ["engine_mode", "use_engine"]
