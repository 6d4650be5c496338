"""The metrics registry: counters, gauges, histograms and absorbed sources.

One process-wide :class:`MetricsRegistry` (:data:`REGISTRY`) unifies the
stack's previously ad-hoc accounting:

* **Owned metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  instruments created through :meth:`MetricsRegistry.counter` and friends
  (the proof and guard counters, search-stage counters, ...).
* **Absorbed sources** — existing stat producers registered as callables
  that return a (possibly nested) dict: the symbolic engine's global
  :data:`~repro.symbolic.stats.CACHE_STATS` is registered by default, and a
  :class:`~repro.serve.CompileService` plugs its
  :class:`~repro.serve.metrics.ServiceStats` in with
  ``CompileService.register_metrics``.  Sources are read live at snapshot
  time, so the registry never holds stale copies.

Everything is visible through one **snapshot/delta API**
(:meth:`MetricsRegistry.snapshot` returns a flat dotted-key mapping;
:meth:`MetricsRegistry.delta` subtracts two snapshots, clamped at zero so a
counter reset mid-window can never surface a negative rate) and a
**Prometheus-style text exposition** (:meth:`MetricsRegistry.render_prometheus`,
served by ``python -m repro.serve --metrics``).

The ceil-based nearest-rank :func:`percentile` lives here as the single
shared implementation — :class:`Histogram` (and through it
:class:`~repro.serve.metrics.LatencyRecorder`) and the serve benchmark's
tail-latency assertions all use it.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from collections.abc import Callable, Mapping

from .trace import instant

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
    chose 3).  This is the single shared implementation; the serve-side
    latency recorder and the benchmark tail assertions both call it.
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

    The one reservoir (the serve latency recorder is a view over it): the most
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


def _flatten(prefix: str, value, out: dict[str, float]) -> None:
    """Flatten a nested numeric mapping into dotted keys (non-numerics dropped)."""
    if isinstance(value, Mapping):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), inner, out)
    elif isinstance(value, bool):
        out[prefix] = float(value)
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)


_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become underscores)."""
    sanitized = _PROM_NAME.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


class MetricsRegistry:
    """Instruments plus absorbed stat sources behind one snapshot/delta API."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._sources: dict[str, Callable[[], Mapping]] = {}
        #: bumped by :meth:`on_reset`; snapshots carry it so delta() can tell
        #: that an underlying source was zeroed mid-window
        self._epoch = 0

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

    # -- absorbed sources ------------------------------------------------------

    def register_source(self, name: str, fn: Callable[[], Mapping]) -> None:
        """Absorb an external stat producer (read live at snapshot time).

        ``fn`` returns a possibly nested mapping; numeric leaves surface in
        snapshots as ``<name>.<dotted.path>`` keys.  Re-registering a name
        replaces its callable (a restarted service takes over its slot).
        """
        with self._lock:
            self._sources[name] = fn

    def unregister_source(self, name: str) -> bool:
        with self._lock:
            return self._sources.pop(name, None) is not None

    def sources(self) -> list[str]:
        with self._lock:
            return sorted(self._sources)

    def on_reset(self, source: str = "") -> None:
        """Record that an absorbed source was zeroed (bumps the epoch).

        :func:`repro.symbolic.stats.reset_cache_statistics` routes through
        here: snapshot holders compare epochs through :meth:`delta`, so a
        reset between two snapshots yields clamped (never negative) deltas
        instead of nonsense differences.
        """
        with self._lock:
            self._epoch += 1
        self.counter(
            "repro.obs.source_resets",
            "times an absorbed stat source was reset mid-flight",
        ).inc()

    # -- snapshot / delta / exposition ----------------------------------------

    def _read_sources(self) -> list[tuple[str, Mapping]]:
        """Every absorbed source's current value, read live.

        A raising source (a closed service, say) is skipped — one broken
        source must not blank the snapshot — but never silently: each
        failure bumps ``repro.obs.source_errors`` and drops an
        ``obs.source_error`` instant naming the source and the exception.
        """
        with self._lock:
            sources = list(self._sources.items())
        produced = []
        for name, fn in sources:
            try:
                produced.append((name, fn()))
            except Exception as exc:  # noqa: BLE001 - isolate the source; counted, see docstring
                self.counter(
                    "repro.obs.source_errors", "absorbed stat sources that raised when read"
                ).inc()
                instant("obs.source_error", "obs", source=name, error=type(exc).__name__)
        return produced

    def snapshot(self) -> dict[str, float]:
        """A flat ``{dotted_name: value}`` view of every metric and source."""
        # sources first: a failure they count lands in this same snapshot
        produced = self._read_sources()
        with self._lock:
            metrics = list(self._metrics.values())
            epoch = self._epoch
        out: dict[str, float] = {"__epoch__": float(epoch)}
        for metric in metrics:
            out.update(metric.collect())
        for name, value in produced:
            _flatten(name, value, out)
        return out

    @staticmethod
    def delta(before: Mapping[str, float], after: Mapping[str, float]) -> dict[str, float]:
        """Per-key increments between two snapshots, clamped at zero.

        When the epoch advanced between the snapshots (a source was reset
        through :meth:`on_reset`) the ``before`` values are stale baselines
        of zeroed counters, so each key's delta falls back to its ``after``
        value — the exact count since the reset — rather than going
        negative.  Keys that appear only in ``after`` count from zero.
        """
        reset_between = after.get("__epoch__", 0.0) != before.get("__epoch__", 0.0)
        out: dict[str, float] = {}
        for key, after_value in after.items():
            if key == "__epoch__":
                continue
            base = 0.0 if reset_between else float(before.get(key, 0.0))
            out[key] = max(0.0, after_value - base)
        return out

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition (format version 0.0.4).

        Owned counters and gauges expose their declared type; histograms
        expose as summaries (``quantile`` labels plus ``_count``/``_sum``);
        absorbed-source leaves expose as untyped gauges.
        """
        lines: list[str] = []
        produced = self._read_sources()
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
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
        for source, value in produced:
            flat: dict[str, float] = {}
            _flatten(source, value, flat)
            for key in sorted(flat):
                lines.append(f"# TYPE {_prom_name(key)} gauge")
                lines.append(f"{_prom_name(key)} {flat[key]:g}")
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        """Drop every owned metric and absorbed source (test isolation)."""
        with self._lock:
            self._metrics.clear()
            self._sources.clear()
            self._epoch = 0


def _default_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    # the symbolic engine's global cache counters are the first absorbed
    # source: every snapshot shows simplify/fixpoint/proof/range/print
    # hit/miss counts without the callers touching CACHE_STATS directly
    from ..symbolic.stats import cache_statistics

    registry.register_source("repro.symbolic.cache", cache_statistics)
    return registry


#: the process-wide registry every instrumentation point records into
REGISTRY = _default_registry()


def counter(name: str, help: str = "") -> Counter:
    """Create-or-get a counter on the process registry."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "", fn: Callable[[], float] | None = None) -> Gauge:
    """Create-or-get a gauge on the process registry."""
    return REGISTRY.gauge(name, help, fn=fn)


def histogram(name: str, help: str = "", max_samples: int = 10_000) -> Histogram:
    """Create-or-get a histogram on the process registry."""
    return REGISTRY.histogram(name, help, max_samples=max_samples)
