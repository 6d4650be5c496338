"""Kernel compilation (``exec``) and grid launch for the mini-Triton substrate.

The LEGO/Triton integration produces kernel *source text*.  This runtime turns
that text into a callable and runs it over a launch grid, one Python call per
program instance, exactly mirroring Triton's execution model:

* :func:`compile_kernel` — execute the source in a namespace providing ``tl``
  (the language module) and a no-op ``@triton.jit`` decorator, and return the
  requested kernel function;
* :func:`launch` — run the kernel for every program id in the grid and
  return the recorded memory/arithmetic trace;
* :func:`to_device` / :func:`from_device` — move NumPy arrays in and out of
  :class:`~repro.minitriton.language.DeviceBuffer` allocations.

Every launch runs the whole grid, so device buffers are always complete.
Paper-scale problems are costed by tracing a small full launch and
extrapolating with ``Case.scale`` / ``KernelCost.scaled`` (:mod:`repro.perf`).
"""

from __future__ import annotations

import types
from typing import Callable, Mapping, Sequence

import numpy as np

from ..vm.engine import run_launch
from . import language as tl
from .language import DeviceBuffer, KernelTrace

__all__ = ["TritonJitShim", "compile_kernel", "launch", "to_device", "from_device"]


class TritonJitShim(types.SimpleNamespace):
    """Stand-in for the ``triton`` module inside generated kernels."""

    @staticmethod
    def jit(fn=None, **_kwargs):
        if fn is None:
            return lambda f: f
        return fn

    @staticmethod
    def cdiv(a: int, b: int) -> int:
        return tl.cdiv(a, b)


def compile_kernel(source: str, kernel_name: str) -> Callable:
    """Execute kernel source and return the kernel function.

    The namespace provides ``tl``, ``triton`` and ``min``/``max`` builtins —
    everything the paper's generated kernels reference.
    """
    namespace: dict[str, object] = {
        "tl": tl,
        "triton": TritonJitShim(),
        "min": min,
        "max": max,
        "range": range,
    }
    code = compile(source, filename=f"<lego-kernel:{kernel_name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generated by this package, not user input
    if kernel_name not in namespace:
        raise KeyError(f"kernel {kernel_name!r} not defined by the provided source")
    fn = namespace[kernel_name]
    if not callable(fn):
        raise TypeError(f"{kernel_name!r} is not callable")
    # remember the source so the vectorized engine (repro.vm) can recompile
    # the same kernel under its batched ``tl`` namespace
    try:
        fn._lego_source = source
        fn._lego_name = kernel_name
    except (AttributeError, TypeError):
        pass
    return fn


def to_device(array: np.ndarray, name: str = "buf") -> DeviceBuffer:
    """Copy a NumPy array into a flat device buffer."""
    return DeviceBuffer(np.array(array, copy=True), name=name)


def from_device(buffer: DeviceBuffer, shape: Sequence[int] | None = None) -> np.ndarray:
    """Copy a device buffer back to a NumPy array of the given shape."""
    return buffer.to_numpy(tuple(shape) if shape is not None else None)


def _normalize_grid(grid) -> tuple[int, int, int]:
    if isinstance(grid, int):
        grid = (grid,)
    grid = tuple(int(g) for g in grid)
    while len(grid) < 3:
        grid = grid + (1,)
    if len(grid) > 3:
        raise ValueError("launch grids have at most 3 dimensions")
    return grid


def launch(
    kernel: Callable,
    grid,
    kernel_args: Mapping[str, object],
    sector_bytes: int = 32,
) -> KernelTrace:
    """Run ``kernel`` over every program of ``grid`` and return its trace.

    ``kernel_args`` are passed as keyword arguments to every program.
    ``sector_bytes`` sets the DRAM sector granularity the transaction
    counters are recorded at (pass the target device's
    ``dram_sector_bytes``); the trace remembers it so the cost adapter
    charges moved bytes at the same size.
    """
    grid3 = _normalize_grid(grid)
    run_trace = KernelTrace(programs=grid3[0] * grid3[1] * grid3[2], sector_bytes=sector_bytes)

    def batched(total, run_trace):
        from ..vm.triton import launch_batched

        launch_batched(kernel, grid3, kernel_args, run_trace, total, sector_bytes)

    def treewalk(total, run_trace):
        state = tl._get_state()
        previous = (state.trace, state.grid, state.sector_bytes)
        try:
            state.trace = run_trace
            state.grid = grid3
            state.sector_bytes = sector_bytes
            for flat in range(total):
                pid0 = flat % grid3[0]
                pid1 = (flat // grid3[0]) % grid3[1]
                pid2 = flat // (grid3[0] * grid3[1])
                state.program_ids = (pid0, pid1, pid2)
                kernel(**kernel_args)
        finally:
            state.trace, state.grid, state.sector_bytes = previous
            state.program_ids = (0, 0, 0)

    # the batched engine re-executes the kernel's source text, which only
    # kernels built by compile_kernel carry
    can_batch = hasattr(kernel, "_lego_source")
    run_launch(run_trace.programs, batched if can_batch else None, treewalk, run_trace)
    return run_trace
