"""Bounded admission control for the compile farm's priority lanes.

A farm that accepts unboundedly simply converts overload into unbounded
queueing delay — every request eventually "succeeds" with a latency nobody
would wait for.  Production serving sheds instead: each lane has a pending
cap, and a submission over the cap resolves *immediately* with a typed
:class:`Rejected` value (never an exception — shedding is an expected
outcome a replay loop counts, not an error it crashes on).

Two lanes exist:

* ``interactive`` — human-facing traffic, dispatched first, generous cap;
* ``sweep`` — bulk autotuner/batch traffic, dispatched only when no
  interactive work is pending, tighter cap so a sweep can never queue the
  farm into interactive-latency debt.

The controller is plain bounded counting under one lock; the *priority*
between lanes lives in the farm's dispatcher (interactive first), not here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "LANES",
    "LANE_INTERACTIVE",
    "LANE_SWEEP",
    "AdmissionController",
    "Rejected",
]

LANE_INTERACTIVE = "interactive"
LANE_SWEEP = "sweep"
LANES = (LANE_INTERACTIVE, LANE_SWEEP)

#: default pending caps: interactive absorbs bursts, sweep stays shallow
DEFAULT_LIMITS = {LANE_INTERACTIVE: 1024, LANE_SWEEP: 256}


@dataclass(frozen=True)
class Rejected:
    """The typed shed result a capped lane returns instead of stalling.

    Futures for shed submissions resolve with this value (not an exception):
    ``isinstance(result, Rejected)`` is the protocol for "the farm declined,
    retry later or degrade gracefully".
    """

    app: str
    lane: str
    reason: str
    queue_depth: int
    limit: int

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "lane": self.lane,
            "reason": self.reason,
            "queue_depth": self.queue_depth,
            "limit": self.limit,
        }


class AdmissionController:
    """Per-lane bounded admission with exact shed accounting.

    ``try_admit`` either reserves one pending slot (release it with
    ``release`` when the request resolves) or records a shed and returns the
    depth/limit pair the :class:`Rejected` result reports.
    """

    def __init__(self, limits: Mapping[str, int] | None = None):
        merged = dict(DEFAULT_LIMITS)
        if limits:
            merged.update(limits)
        for lane, limit in merged.items():
            if limit < 1:
                raise ValueError(f"lane {lane!r} needs a positive pending cap")
        self._limits = merged
        self._lock = threading.Lock()
        self._pending = {lane: 0 for lane in merged}
        self._sheds = {lane: 0 for lane in merged}

    def check_lane(self, lane: str) -> None:
        if lane not in self._limits:
            raise ValueError(
                f"unknown lane {lane!r}; configured lanes: {sorted(self._limits)}"
            )

    @property
    def lanes(self) -> tuple[str, ...]:
        return tuple(sorted(self._limits))

    def limit(self, lane: str) -> int:
        self.check_lane(lane)
        return self._limits[lane]

    def try_admit(self, lane: str) -> tuple[bool, int]:
        """Reserve a slot in ``lane``; returns ``(admitted, depth_seen)``."""
        self.check_lane(lane)
        with self._lock:
            depth = self._pending[lane]
            if depth >= self._limits[lane]:
                self._sheds[lane] += 1
                return False, depth
            self._pending[lane] = depth + 1
            return True, depth + 1

    def release(self, lane: str) -> None:
        with self._lock:
            if self._pending[lane] <= 0:
                raise AssertionError(f"release underflow on lane {lane!r}")
            self._pending[lane] -= 1

    def snapshot(self) -> dict:
        """Per-lane ``{limit, pending, sheds}`` under one lock (admitted
        counts live on the service's lane ledger, not here)."""
        with self._lock:
            return {
                lane: {
                    "limit": self._limits[lane],
                    "pending": self._pending[lane],
                    "sheds": self._sheds[lane],
                }
                for lane in sorted(self._limits)
            }
