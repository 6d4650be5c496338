"""The one launch path of the three substrates.

:func:`repro.minitriton.launch` and the block runtime's pass loop
(:func:`repro.vm.blocks.launch_blocks`, which :func:`repro.minicuda.launch`
and :func:`repro.mlir.run_gpu_kernel` both call) validate their geometry with
:func:`launch_extents` and hand their executor to :func:`run_launch`: the
whole grid runs once on the substrate's batched executor, then the launch's
access log is scored.  An exception raised by the executor propagates to the
caller.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from contextlib import contextmanager
from typing import Callable

__all__ = ["SLAB_ELEMENTS", "engine_mode", "launch_extents", "run_launch", "use_engine"]

#: Elements one NumPy call of the engine should see — the one size that tiles a
#: launch.  The block runtime (mini-CUDA and MLIR) cuts the grid into passes of
#: this many lanes, and a trace's access log (:class:`repro.gpusim.sharedmem.AccessLog`)
#: pools tiny accesses up to it and flushes before it would hold more.  At
#: 8 bytes a lane a slab is 512 KB: a pass's temporaries stay in cache and
#: under glibc's mmap threshold (at 2**19 lanes each was a fresh 4 MB mapping).
#: Best-of-15 launch, ms, at 2**19 / 2**17 / 2**16 / 2**15 / 2**14 / 2**13:
#: stencil 33.7 / 20.3 / 20.4 / 21.6 / 23.9 / 33.9, MLIR transpose 13.0 / 9.3 /
#: 6.9 / 7.2 / 8.1 / 10.7, matmul (the log's share only) 42.6 / 37.3 / 34.1 /
#: 34.0 / 34.2 / 35.3; LUD and NW are flat (21-22, 25).
SLAB_ELEMENTS = 1 << 16

#: the smallest extent of each launch argument: an empty grid is an empty
#: launch, a block has at least one thread
_MINIMUM_EXTENT = {"grid": 0, "block": 1}


def launch_extents(value, argument: str) -> tuple[int, int, int]:
    """``value`` — one integer or up to three — as three extents, missing ones 1.

    ``argument`` is ``"grid"`` or ``"block"``.  Extents must be integers
    (Python or NumPy), at least 0 for a grid and 1 for a block; anything else
    is a ``ValueError`` naming the argument and the axis, because the extents
    become the trace's launch geometry and feed the occupancy and cost model.
    """
    minimum = _MINIMUM_EXTENT[argument]
    extents = tuple(value) if isinstance(value, Iterable) else (value,)
    if not 1 <= len(extents) <= 3:
        raise ValueError(f"{argument} has {len(extents)} axes; a launch has one to three")
    for axis, extent in enumerate(extents):
        if isinstance(extent, bool) or not isinstance(extent, numbers.Integral) \
                or extent < minimum:
            raise ValueError(
                f"{argument} axis {axis}: expected an integer >= {minimum}, got {extent!r}"
            )
    return tuple(int(extent) for extent in extents) + (1,) * (3 - len(extents))


def run_launch(total: int, execute: Callable, trace):
    """Execute one launch of all ``total`` lanes (programs or blocks).

    ``execute(total, trace)`` runs exactly once, adding its counters to
    ``trace`` and appending its accesses to the trace's log, which is flushed
    when it returns: **the counters are final when the launcher returns**,
    not while the kernel runs (the log scores itself early only to stay within
    one slab).  Whatever the executor raises is the launch's error; the
    pending accesses are discarded with the trace, which nobody receives.
    Returns the executor's return value.
    """
    result = execute(total, trace)
    trace.flush()
    return result


# The frozen perfbench/ still names the executor it runs; this shim keeps that
# spelling working and goes with the benchmark rework (ROADMAP.md item 3).
def engine_mode() -> str:
    """The name of the one executor: ``"vectorized"``."""
    return "vectorized"


@contextmanager
def use_engine(mode: str):
    """Accept the executor's names (``"vectorized"``, ``"vectorized-strict"``); change nothing."""
    if mode not in ("vectorized", "vectorized-strict"):
        raise ValueError(f"invalid engine mode {mode!r}; the only executor is 'vectorized'")
    yield
