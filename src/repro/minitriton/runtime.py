"""Kernel compilation (``exec``) and grid launch for the mini-Triton substrate.

The LEGO/Triton integration produces kernel *source text*.  This runtime turns
that text into a callable and runs it over a launch grid, a pass of programs
per call of the kernel body (see :mod:`repro.minitriton.language`):

* :func:`compile_kernel` — parse the source, hoist its loop-invariant index
  arithmetic (:mod:`repro.minitriton.hoist`), execute it in a namespace
  providing ``tl`` (the language namespace) and a no-op ``@triton.jit``
  decorator, and return the requested kernel function; a ``(source,
  kernel_name)`` pair is compiled once per process, since the function holds
  no launch state;
* :func:`launch` — run the kernel for every program id in the grid and
  return the recorded memory/arithmetic trace, binding each pass's program
  ids and the trace on ``tl`` for the calling thread only;
* :func:`to_device` / :func:`from_device` — move NumPy arrays in and out of
  :class:`~repro.minitriton.language.DeviceBuffer` allocations.

Every launch runs the whole grid, so device buffers are always complete.
Paper-scale problems are costed by tracing a small full launch and
extrapolating with ``Case.scale`` / ``KernelCost.scaled`` (:func:`repro.check.profile`).
"""

from __future__ import annotations

import ast
import builtins
import functools
import types
from typing import Callable, Mapping, Sequence

import numpy as np

from ..vm.engine import launch_extents, run_launch
from .hoist import hoist_invariants
from .language import BatchedTensor, DeviceBuffer, KernelTrace, _apply2, cdiv, tl

__all__ = ["TritonJitShim", "compile_kernel", "launch", "to_device", "from_device"]

#: programs executed per pass (passes run in increasing id order, which keeps
#: the program-major store order intact).  It counts programs, not lanes — the
#: block size is unknown before the body runs — so it is the slab
#: (:data:`repro.vm.engine.SLAB_ELEMENTS`) in its own unit.  Best-of-15 launch,
#: ms, of the bench launches (2-vCPU x86 host) at 8192 / 2048 / 1024 / 512 / 256
#: programs a pass: softmax (4096 x 64) 1.63 / 1.21 / 1.32 / 1.52 / 1.94,
#: layernorm (4096 x 64) 1.51 / 1.12 / 1.32 / 1.63 / 2.29, matmul (1 024
#: programs) 3.37 / 3.37 / 3.36 / 4.88 / 7.86, grouped GEMM (1 024 programs)
#: 2.18 / 2.16 / 2.17 / 2.91 / 4.25 — do not go below 1024.
PROGRAM_CHUNK = 1024


class TritonJitShim(types.SimpleNamespace):
    """Stand-in for the ``triton`` module inside generated kernels."""

    @staticmethod
    def jit(fn=None, **_kwargs):
        if fn is None:
            return lambda f: f
        return fn

    @staticmethod
    def cdiv(a: int, b: int) -> int:
        return cdiv(a, b)


def _folded(np_op, builtin, args, kwargs):
    """``builtin(*args)``, folding pairwise through ``np_op`` once a batched value
    takes part (``min(GM, nt_m - pid)``): a batched value has no truth value to
    compare by."""
    if kwargs or len(args) < 2 or not any(isinstance(a, BatchedTensor) for a in args):
        return builtin(*args, **kwargs)
    result = args[0]
    for arg in args[1:]:
        if isinstance(result, BatchedTensor) or isinstance(arg, BatchedTensor):
            result = _apply2(np_op, result, arg)
        else:
            result = builtin(result, arg)
    return result


def _namespace_min(*args, **kwargs):
    """``min`` builtin that understands batched scalars."""
    return _folded(np.minimum, builtins.min, args, kwargs)


def _namespace_max(*args, **kwargs):
    return _folded(np.maximum, builtins.max, args, kwargs)


@functools.lru_cache(maxsize=64)
def compile_kernel(source: str, kernel_name: str) -> Callable:
    """Compile kernel source, execute it and return the kernel function.

    The source is parsed and its loops' invariant index operands are hoisted
    (:func:`~repro.minitriton.hoist.hoist_invariants`, the Triton compiler's
    loop-invariant code motion) before it compiles: the text is never
    rewritten, only the code object, and outputs and trace counters are those
    of the source run as written.  The namespace provides ``tl``, ``triton``
    and ``min``/``max`` builtins — everything the paper's generated kernels
    reference.  A ``(source, kernel_name)`` pair is compiled once per process:
    the function holds no launch state (every launch binds its own program
    ids and trace through the one ``tl``), so each later call returns the
    same function.
    """
    namespace: dict[str, object] = {
        "tl": tl,
        "triton": TritonJitShim(),
        "min": _namespace_min,
        "max": _namespace_max,
        "range": range,
    }
    filename = f"<lego-kernel:{kernel_name}>"
    tree = ast.parse(source, filename=filename)
    hoist_invariants(tree)
    code = compile(tree, filename=filename, mode="exec")
    exec(code, namespace)  # noqa: S102 - generated by this package, not user input
    if kernel_name not in namespace:
        raise KeyError(f"kernel {kernel_name!r} not defined by the provided source")
    fn = namespace[kernel_name]
    if not callable(fn):
        raise TypeError(f"{kernel_name!r} is not callable")
    return fn


def to_device(array: np.ndarray, name: str = "buf") -> DeviceBuffer:
    """Copy a NumPy array into a flat device buffer."""
    return DeviceBuffer(np.array(array, copy=True), name=name)


def from_device(buffer: DeviceBuffer, shape: Sequence[int] | None = None) -> np.ndarray:
    """Copy a device buffer back to a NumPy array of the given shape."""
    return buffer.to_numpy(tuple(shape) if shape is not None else None)


def launch(
    kernel: Callable,
    grid,
    kernel_args: Mapping[str, object],
    sector_bytes: int = 32,
) -> KernelTrace:
    """Run ``kernel`` over every program of ``grid`` and return its trace.

    ``kernel_args`` are passed as keyword arguments to every call of the
    kernel.  ``sector_bytes`` sets the DRAM sector granularity the
    transaction counters are recorded at (pass the target device's
    ``dram_sector_bytes``); the trace remembers it so the cost adapter
    charges moved bytes at the same size.
    """
    grid3 = launch_extents(grid, "grid")
    run_trace = KernelTrace(programs=grid3[0] * grid3[1] * grid3[2], sector_bytes=sector_bytes)

    def execute(total, run_trace):
        ids = np.arange(total, dtype=np.int64)
        for start in range(0, total, PROGRAM_CHUNK):
            chunk = ids[start:start + PROGRAM_CHUNK]
            pid0 = chunk % grid3[0]
            pid1 = (chunk // grid3[0]) % grid3[1]
            pid2 = chunk // (grid3[0] * grid3[1])
            tl._begin((pid0, pid1, pid2), grid3, run_trace)
            try:
                kernel(**kernel_args)
            finally:
                tl._end()

    run_launch(run_trace.programs, execute, run_trace)
    return run_trace
