"""The metrics registry: counters, gauges and histograms.

One process-wide :class:`MetricsRegistry` (:data:`REGISTRY`) is the only
place a process-wide count lives: the symbolic cache counters
(:mod:`repro.symbolic.stats`), the proof and guard counters and the farm's
lifecycle events are all :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments created through
:meth:`MetricsRegistry.counter` and friends.  A service's request ledger is
not: it is a per-instance value its ``stats()`` returns.

Everything is visible through one **snapshot/delta API**
(:meth:`MetricsRegistry.snapshot` returns a flat dotted-key mapping, optionally
narrowed to a name prefix; :meth:`MetricsRegistry.delta` subtracts two
snapshots) and a **Prometheus-style text exposition**
(:meth:`MetricsRegistry.render_prometheus`, served by ``python -m repro.serve
--metrics``).

The ceil-based nearest-rank :func:`percentile` lives here as the single
shared implementation — :class:`Histogram` (and through it the serve
ledger's latency) and the serve benchmark's tail-latency assertions all use it.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from collections.abc import Callable, Mapping

__all__ = [
    "percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sample list.

    Uses the ceil-based nearest-rank definition: the q-quantile of n samples
    is the ``ceil(q * n)``-th smallest.  ``round(q * (n - 1))`` is *not*
    equivalent — Python rounds half-to-even, so p50 of an even window picked
    the lower or upper middle sample depending on whether the midpoint rank
    happened to be even (p50 of [1, 2] chose 1 while p50 of [1, 2, 3, 4]
    chose 3).  This is the single shared implementation; :class:`Histogram`
    and the benchmark tail assertions both call it.
    """
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def collect(self) -> dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """A point-in-time value: settable, or computed by a callback at read time."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn: Callable[[], float] | None = None):
        self.name = name
        self.help = help
        self._fn = fn
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed; it cannot be set")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed; it cannot be set")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def collect(self) -> dict[str, float]:
        return {self.name: self.value}


class Histogram:
    """A bounded sample window with exact running count/sum (thread-safe).

    The one reservoir (the serve ledger's latency is one): the most
    recent ``max_samples`` observations back the percentiles, while ``count`` and
    ``sum`` stay exact forever, so the mean never loses precision to
    eviction.  Percentiles use the shared nearest-rank :func:`percentile`.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", max_samples: int = 10_000):
        if max_samples < 1:
            raise ValueError("Histogram requires a positive sample bound")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=max_samples)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def collect(self) -> dict[str, float]:
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self._count, self._sum
        return {
            f"{self.name}.count": float(count),
            f"{self.name}.sum": total,
            f"{self.name}.mean": (total / count) if count else 0.0,
            f"{self.name}.p50": percentile(ordered, 0.50),
            f"{self.name}.p95": percentile(ordered, 0.95),
            f"{self.name}.p99": percentile(ordered, 0.99),
            f"{self.name}.p999": percentile(ordered, 0.999),
            f"{self.name}.max": ordered[-1] if ordered else 0.0,
        }


_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become underscores)."""
    sanitized = _PROM_NAME.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


class MetricsRegistry:
    """Counters, gauges and histograms behind one snapshot/delta API."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- instrument creation (create-or-get, type-checked) ---------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "", fn: Callable[[], float] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, fn=fn)

    def histogram(self, name: str, help: str = "", max_samples: int = 10_000) -> Histogram:
        return self._get_or_create(Histogram, name, help, max_samples=max_samples)

    # -- snapshot / delta / exposition ----------------------------------------

    def _instruments(self, prefix: str = "") -> list[Counter | Gauge | Histogram]:
        with self._lock:
            return [metric for name, metric in self._metrics.items() if name.startswith(prefix)]

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """A flat ``{dotted_name: value}`` view of every metric named ``prefix...``."""
        out: dict[str, float] = {}
        for metric in self._instruments(prefix):
            out.update(metric.collect())
        return out

    @staticmethod
    def delta(before: Mapping[str, float], after: Mapping[str, float]) -> dict[str, float]:
        """Per-key change between two snapshots (``after - before``).

        Counters never reset, so a counter's delta is its exact count over the
        window; a gauge's may be negative (the memo table shrinks when it is
        cleared).  Keys that appear only in ``after`` count from zero.
        """
        return {key: value - before.get(key, 0.0) for key, value in after.items()}

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition (format version 0.0.4).

        Counters and gauges expose their declared type; histograms expose as
        summaries (``quantile`` labels plus ``_count``/``_sum``).
        """
        lines: list[str] = []
        for metric in self._instruments():
            name = _prom_name(metric.name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Histogram):
                lines.append(f"# TYPE {name} summary")
                collected = metric.collect()
                for q in ("0.5", "0.95", "0.99"):
                    key = f"{metric.name}.p{q[2:].ljust(2, '0')}"
                    lines.append(f'{name}{{quantile="{q}"}} {collected[key]:g}')
                lines.append(f"{name}_count {collected[f'{metric.name}.count']:g}")
                lines.append(f"{name}_sum {collected[f'{metric.name}.sum']:g}")
            else:
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.append(f"{name} {metric.value:g}")
        return "\n".join(lines) + "\n"


#: the process-wide registry every instrumentation point records into
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    """Create-or-get a counter on the process registry."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "", fn: Callable[[], float] | None = None) -> Gauge:
    """Create-or-get a gauge on the process registry."""
    return REGISTRY.gauge(name, help, fn=fn)


def histogram(name: str, help: str = "", max_samples: int = 10_000) -> Histogram:
    """Create-or-get a histogram on the process registry."""
    return REGISTRY.histogram(name, help, max_samples=max_samples)
