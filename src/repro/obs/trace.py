"""The structured span tracer: Chrome-trace-event telemetry for the stack.

Every subsystem brackets its stages with :func:`span` — pipeline lowering,
backend render, service compile/dedup/cache probes, search pre-filter /
cost-model / measured re-rank, substrate execution, differential checks —
and the resulting events form a nested span tree per thread that any
Chrome-trace / Perfetto viewer opens directly (``chrome://tracing``,
https://ui.perfetto.dev).

Design constraints, in priority order:

1. **~Zero cost when disabled.**  Tracing is off unless the ``REPRO_TRACE``
   environment variable enables it (or a test/CLI flips it with
   :func:`set_tracing` / :func:`tracing`).  A disabled :func:`span` call is
   one attribute read and the return of a shared no-op context manager —
   no allocation, no clock read, no lock.  ``tests/test_obs.py`` bounds
   the disabled spans of a serve replay under 2% of its wall time.
2. **Thread-safe and nestable.**  Spans nest lexically per thread (the
   span tree is reconstructed from timestamp containment per ``tid``, the
   same model the Chrome viewer uses); the event buffer appends under one
   lock only when tracing is enabled.
3. **Self-describing export.**  :func:`chrome_trace` returns the standard
   ``{"traceEvents": [...]}`` JSON object: ``ph="X"`` complete events with
   microsecond ``ts``/``dur``, ``ph="i"`` instants for point occurrences
   (e.g. a farm worker restart), and ``ph="M"`` thread-name
   metadata.  :func:`repro.obs.report.validate_chrome_trace` checks an
   export against the schema the viewers require.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "TRACE_ENV",
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "instant",
    "trace_enabled",
    "set_tracing",
    "tracing",
    "chrome_trace",
    "export_trace",
]

#: the environment variable that turns tracing on process-wide
TRACE_ENV = "REPRO_TRACE"

_FALSEY = ("", "0", "off", "false", "no")


def _env_enabled() -> bool:
    return os.environ.get(TRACE_ENV, "").strip().lower() not in _FALSEY


class _NullSpan:
    """The shared disabled span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def add(self, **args) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One live span: a context manager that emits a complete event on exit."""

    __slots__ = ("_tracer", "name", "category", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def add(self, **args) -> "Span":
        """Attach result metadata (cache tier hit, candidate counts, ...)."""
        self.args.update(args)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._emit(self.name, self.category, self._start, end, self.args)
        return False


class Tracer:
    """A process-wide buffer of trace events with a monotonic epoch.

    All timestamps are microseconds of ``time.perf_counter`` relative to the
    tracer's epoch (reset by :meth:`clear`), so spans recorded on different
    threads share one consistent clock and containment reconstructs nesting
    exactly.  The buffer is bounded: past ``max_events`` new events are
    dropped and counted (``dropped``) rather than growing without limit
    during an unexpectedly long traced run.
    """

    def __init__(self, enabled: bool | None = None, max_events: int = 1_000_000):
        self.enabled = _env_enabled() if enabled is None else enabled
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._thread_names: dict[int, str] = {}
        self._epoch = time.perf_counter()
        self._pid = os.getpid()
        self._max_events = max_events
        self.dropped = 0

    # -- recording ------------------------------------------------------------

    def span(self, name: str, category: str = "repro", **args) -> Span | _NullSpan:
        """A context manager timing one stage (the no-op singleton when off)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, category, args)

    def instant(self, name: str, category: str = "repro", **args) -> None:
        """Record a point event (e.g. a farm restart) at the current time."""
        if not self.enabled:
            return
        now = time.perf_counter()
        tid = threading.get_ident()
        event = {
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "t",  # instant scope: thread
            "ts": (now - self._epoch) * 1e6,
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._append(event, tid)

    def _emit(self, name: str, category: str, start: float, end: float, args: dict) -> None:
        tid = threading.get_ident()
        event = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": (start - self._epoch) * 1e6,
            "dur": max(0.0, (end - start) * 1e6),
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._append(event, tid)

    def _append(self, event: dict, tid: int) -> None:
        with self._lock:
            if len(self._events) >= self._max_events:
                self.dropped += 1
                return
            if tid not in self._thread_names:
                self._thread_names[tid] = threading.current_thread().name
            self._events.append(event)

    # -- reading / export -----------------------------------------------------

    def events(self) -> list[dict]:
        """A copy of the recorded events (chronological per thread)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        """Drop all events and restart the epoch (tests, CLI runs)."""
        with self._lock:
            self._events.clear()
            self._thread_names.clear()
            self.dropped = 0
            self._epoch = time.perf_counter()

    def chrome_trace(self) -> dict:
        """The standard Chrome trace-event JSON object for this buffer."""
        with self._lock:
            events = list(self._events)
            names = dict(self._thread_names)
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self._pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
            for tid, thread_name in sorted(names.items())
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "dropped": self.dropped},
        }

    def export(self, path) -> Path:
        """Write :meth:`chrome_trace` as JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")
        return path


#: the process-wide tracer every instrumentation point records into
TRACER = Tracer()


def span(name: str, category: str = "repro", **args) -> Span | _NullSpan:
    """Bracket one stage: ``with span("serve.compile", app=name): ...``.

    When tracing is disabled this returns a shared no-op context manager —
    the documented (and benchmark-asserted) overhead contract is "one
    attribute read per call site".
    """
    if not TRACER.enabled:
        return _NULL_SPAN
    return Span(TRACER, name, category, args)


def instant(name: str, category: str = "repro", **args) -> None:
    """Record a point event on the process tracer (no-op when disabled)."""
    TRACER.instant(name, category, **args)


def trace_enabled() -> bool:
    """Is the process tracer currently recording?"""
    return TRACER.enabled


def set_tracing(enabled: bool) -> None:
    """Turn the process tracer on or off (the CLI's programmatic override)."""
    TRACER.enabled = bool(enabled)


@contextmanager
def tracing(enabled: bool = True):
    """Run a block with tracing forced on (or off), restoring the prior state."""
    previous = TRACER.enabled
    TRACER.enabled = bool(enabled)
    try:
        yield TRACER
    finally:
        TRACER.enabled = previous


def chrome_trace() -> dict:
    """The process tracer's buffer as a Chrome trace-event JSON object."""
    return TRACER.chrome_trace()


def export_trace(path) -> Path:
    """Write the process tracer's buffer to ``path`` as Chrome-trace JSON."""
    return TRACER.export(path)
