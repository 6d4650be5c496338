"""Per-device tuning tables: persisted search winners the service can warm from.

A search is worth remembering: the winner for one ``app x device x
problem scale`` keeps winning until the model or the app changes.
:class:`TuningTable` stores those winners in the durable cache tier
(:class:`~repro.cache.ResultCache`) under namespaced raw-string keys
(``tuning-table/v1/<device>/<app>/<signature>``), so the same JSON store
that persists evaluations and profiles ships the tuned configurations too.

:meth:`repro.serve.CompileService.warm_from_table` walks a table and
pre-compiles every winner through the compilation service — a freshly started server answers
its first tuned-kernel request from a warm cache.
"""

from __future__ import annotations

from typing import Mapping

from ..cache import ResultCache, code_fingerprint

__all__ = ["PROBLEM_KEYS", "TuningTable", "problem_signature"]

#: configuration keys that name the *problem* rather than the tuning choice;
#: two searches at different problem scales get different table rows.  Note
#: ``variant`` is absent: the apps tune over it (matmul's nn/nt/tn/tt,
#: transpose's naive/smem), so it is a search *output* here, not an input.
PROBLEM_KEYS = ("n", "M", "N", "K", "groups", "stencil")


def problem_signature(config: Mapping) -> str:
    """A stable, readable signature of the problem scale inside ``config``.

    Only :data:`PROBLEM_KEYS` participate — tuning axes (tile sizes,
    layouts, coarsening factors) are exactly what the table exists to remember,
    so they must not fragment its rows.  Configurations that carry no
    problem keys (an app tuned at its default scale) share the ``default``
    row.
    """
    parts = [f"{key}={config[key]}" for key in PROBLEM_KEYS if key in config]
    return ",".join(parts) if parts else "default"


class TuningTable:
    """``(app, device, problem) -> winning configuration`` in a ResultCache."""

    PREFIX = "tuning-table/v1"

    def __init__(self, cache: ResultCache):
        self.cache = cache

    def _key(self, device: str, app: str, signature: str) -> str:
        return f"{self.PREFIX}/{device}/{app}/{signature}"

    def put(self, app: str, device: str, config: Mapping, *,
            time_ms: float = 0.0, measured: bool = False,
            source: str = "search", code: str | None = None) -> str:
        """Record one winner; returns the row key.

        Rows are stamped with the ``code`` fingerprint of the source that
        produced them (:func:`repro.cache.code_fingerprint`; override only
        to write test fixtures): service/farm warming skips rows written by
        different source, so a stale table can never pre-fill caches with
        winners the current model would not pick.
        """
        signature = problem_signature(config)
        key = self._key(device, app, signature)
        self.cache.put(key, {
            "app": app,
            "device": device,
            "signature": signature,
            "config": dict(config),
            "time_ms": float(time_ms),
            "measured": bool(measured),
            "source": source,
            "code": code_fingerprint() if code is None else code,
        })
        return key

    def best(self, app: str, device: str, config: Mapping | None = None) -> dict | None:
        """The stored winner for ``(app, device)`` at ``config``'s problem scale."""
        signature = problem_signature(config or {})
        entry = self.cache.get(self._key(device, app, signature))
        return dict(entry["config"]) if entry else None

    def entries(self, device: str | None = None, app: str | None = None) -> list[dict]:
        """All rows, optionally narrowed to one device (and one app)."""
        prefix = f"{self.PREFIX}/"
        if device is not None:
            prefix += f"{device}/"
            if app is not None:
                prefix += f"{app}/"
        return [entry for _, entry in self.cache.items(prefix)]

    def __len__(self) -> int:
        return len(self.entries())

    def save(self):
        return self.cache.save()
