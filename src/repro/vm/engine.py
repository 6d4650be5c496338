"""Engine-mode selection and the one launch driver of the three substrates.

One ambient mode decides how :func:`repro.minitriton.launch`,
:func:`repro.minicuda.launch` and :func:`repro.mlir.run_gpu_kernel`
execute: ``"vectorized"`` (the batched NumPy engine) or ``"treewalk"``
(the reference interpreters).  It has two spellings and no others: the
process-wide ``REPRO_VM`` environment variable (``vectorized`` when unset)
and the scoped :func:`use_engine` context manager.  Nothing takes an
``engine=`` argument; callers that record the mode read :func:`engine_mode`.

:func:`run_launch` is the dispatch all three launchers share: the whole grid
runs once on the executor the mode selects, then the launch's access log is
scored.  An exception raised by the batched engine propagates to the caller.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable

__all__ = ["MODES", "engine_mode", "use_engine", "run_launch"]

MODES = ("vectorized", "treewalk")

# ``perfbench/`` (frozen by BENCHMARK.json) still calls
# ``use_engine("vectorized-strict")``, the former name of what is now the only
# batched behaviour.  The spelling is accepted here, and nowhere else, until a
# benchmark PR drops it from perfbench.
_ALIASES = {"vectorized-strict": "vectorized"}

#: Elements one NumPy call of the engine should see — the one size that tiles a
#: launch.  The mini-CUDA and MLIR executors cut the grid into passes of this
#: many lanes, and a trace's access log (:class:`repro.gpusim.sharedmem.AccessLog`)
#: pools tiny accesses up to it and flushes before it would hold more.  At
#: 8 bytes a lane a slab is 512 KB: a pass's temporaries stay in cache and
#: under glibc's mmap threshold (at 2**19 lanes each was a fresh 4 MB mapping).
#: Best-of-15 launch, ms, at 2**19 / 2**17 / 2**16 / 2**15 / 2**14 / 2**13:
#: stencil 33.7 / 20.3 / 20.4 / 21.6 / 23.9 / 33.9, MLIR transpose 13.0 / 9.3 /
#: 6.9 / 7.2 / 8.1 / 10.7, matmul (the log's share only) 42.6 / 37.3 / 34.1 /
#: 34.0 / 34.2 / 35.3; LUD and NW are flat (21-22, 25).
SLAB_ELEMENTS = 1 << 16

#: appended to the errors a batched executor raises for a construct it
#: cannot express, so the message says what to do
TREEWALK_HINT = 'run under use_engine("treewalk")'

_local = threading.local()


def _canonical(mode: str, source: str) -> str:
    canonical = _ALIASES.get(mode, mode)
    if canonical not in MODES:
        # a typo'd name must not silently run the default engine — the
        # selector exists precisely to force a specific one
        raise ValueError(f"invalid {source} {mode!r}; expected one of {MODES}")
    return canonical


def engine_mode() -> str:
    """The active execution mode for all three substrates."""
    active = getattr(_local, "mode", None)
    if active is not None:
        return active
    raw = os.environ.get("REPRO_VM", "").strip()
    return _canonical(raw.lower(), "REPRO_VM value") if raw else "vectorized"


@contextmanager
def use_engine(mode: str):
    """Run a block under ``mode``, restoring the previous mode after."""
    mode = _canonical(mode, "engine mode")
    previous = getattr(_local, "mode", None)
    _local.mode = mode
    try:
        yield
    finally:
        _local.mode = previous


def run_launch(total: int, batched: Callable | None, treewalk: Callable, trace):
    """Execute one launch of all ``total`` lanes (programs or blocks).

    The lanes go to ``treewalk(total, trace)`` when the mode is ``"treewalk"``,
    when there is a single lane (nothing to batch), or when ``batched`` is
    ``None`` (the substrate cannot batch this kernel); otherwise to
    ``batched(total, trace)``.  Either executor runs exactly once, adding
    its counters to ``trace`` and appending its accesses to the trace's log,
    which is flushed when the executor returns: **the counters are final when
    the launcher returns**, not while the kernel runs (the log scores itself
    early only to stay within one slab).  Whatever the executor raises is the
    launch's error; the pending accesses are discarded with the trace, which
    nobody receives.  Returns the executor's return value.
    """
    walk = batched is None or total <= 1 or engine_mode() == "treewalk"
    result = (treewalk if walk else batched)(total, trace)
    trace.flush()
    return result
