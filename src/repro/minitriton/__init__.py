"""Mini-Triton: a NumPy-backed interpreter for the ``tl.*`` kernel subset.

The substitution for the Triton compiler + GPU in this reproduction
(documented in DESIGN.md): generated kernels are ordinary Triton-syntax
source; :func:`compile_kernel` loads them, :func:`launch` executes them over
the whole grid, a pass of programs at a time, and the recorded
:class:`KernelTrace` feeds the analytic device model in :mod:`repro.gpusim`.
"""

from . import language
from .language import DeviceBuffer, KernelTrace, PointerArray, tl
from .runtime import TritonJitShim, compile_kernel, from_device, launch, to_device

__all__ = [
    "language",
    "tl",
    "DeviceBuffer",
    "KernelTrace",
    "PointerArray",
    "TritonJitShim",
    "compile_kernel",
    "from_device",
    "launch",
    "to_device",
]
