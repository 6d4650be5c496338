"""Engine-mode selection and the one launch driver of the three substrates.

One process-wide mode decides how :func:`repro.minitriton.launch`,
:func:`repro.minicuda.launch` and :func:`repro.mlir.run_gpu_kernel`
execute: ``"vectorized"`` (the batched NumPy engine) or ``"treewalk"``
(the reference interpreters).  The default comes from the ``REPRO_VM``
environment variable (``vectorized`` when unset); tests and benchmarks
switch modes locally with the :func:`use_engine` context manager.

:func:`run_launch` is the dispatch all three launchers share: it picks the
sampled lane ids, chooses the executor and runs it once.  An exception
raised by the batched engine propagates to the caller.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable

__all__ = ["MODES", "engine_mode", "resolve_mode", "use_engine", "evenly_spaced", "run_launch"]

MODES = ("vectorized", "treewalk")

# ``perfbench/`` (frozen by BENCHMARK.json) still calls
# ``use_engine("vectorized-strict")``, the former name of what is now the only
# batched behaviour.  The spelling is accepted here, and nowhere else, until a
# benchmark PR drops it from perfbench.
_ALIASES = {"vectorized-strict": "vectorized"}

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


def resolve_mode(mode: str | None) -> str:
    """An ``engine=`` argument validated and normalised; ``None`` is the active mode."""
    return engine_mode() if mode is None else _canonical(mode, "engine mode")


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


def evenly_spaced(total: int, count: int) -> list[int]:
    """``count`` distinct, strictly increasing ids evenly spread over ``range(total)``.

    ``i * total // count`` is integer throughout, starts at 0, and is
    strictly increasing whenever ``count <= total`` (consecutive values
    differ by ``floor`` of a stride >= 1), so the selection is exact by
    construction — a float stride plus set-dedup can collapse to fewer ids
    than requested and skew the ``scaled()`` extrapolation.
    ``count >= total`` returns the full range.
    """
    total, count = int(total), int(count)
    if total <= 0:
        return []
    if count >= total:
        return list(range(total))
    if count <= 0:
        return []
    return [i * total // count for i in range(count)]


def run_launch(
    total: int,
    sample: int | None,
    sample_name: str,
    batched: Callable | None,
    treewalk: Callable,
    trace,
):
    """Execute one launch of ``total`` lanes (programs or blocks).

    With ``sample=N`` only ``N`` evenly spaced lanes run and ``scale`` is the
    factor that extrapolates their counters to the full grid.  The lanes go
    to ``treewalk(ids, trace)`` when the mode is ``"treewalk"``, when there
    is a single lane (nothing to batch), or when ``batched`` is ``None`` (the
    substrate cannot batch this kernel); otherwise to ``batched(ids, trace)``.
    Either executor writes its counters straight into ``trace`` and runs
    exactly once — whatever it raises is the launch's error.

    Returns ``(executed lanes, scale, the executor's return value)``.
    """
    if sample is None or sample >= total:
        ids, scale = range(total), 1.0
    else:
        if sample <= 0:
            raise ValueError(f"{sample_name} must be positive")
        ids = evenly_spaced(total, sample)
        scale = total / len(ids)
    if batched is None or len(ids) <= 1 or engine_mode() == "treewalk":
        execute = treewalk
    else:
        execute = batched
    return len(ids), scale, execute(ids, trace)
