"""Persistent JSON-backed result store shared by the tuner and the service.

The autotuner's evaluation cache is keyed by a digest of the app, the
candidate configuration and the lowered index expressions of the generated
kernel.  The compilation service uses the same store as the durable tier of
its kernel cache (payloads are kernel sources plus metadata instead of
evaluation results).

Durability contract:

* :meth:`ResultCache.save` is **atomic**: the store is written to a temp file
  in the destination directory and moved into place with ``os.replace``, so a
  crashed or concurrent writer can never leave a truncated JSON file behind.
* A load that finds an unreadable store falls back to empty and raises the
  :attr:`corrupt_reset` flag instead of failing, so a corrupted cache costs a
  re-fill, never an outage.
* ``get``/``put``/``save`` are serialised by an internal lock; one instance
  may be shared by the service's worker threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Mapping

__all__ = ["ResultCache", "code_fingerprint", "stable_digest"]


def _publish_atomically(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it into place.

    ``os.replace`` is atomic on POSIX and Windows: a reader (or a crash) can
    only ever observe the old complete file or the new complete one, never a
    truncated one.  The one publish step of every durable store here
    (:class:`ResultCache`, ``ShardedFileStore`` entries, claim refreshes).
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:  # noqa: BLE001 - re-raised: only the orphaned temp file is removed
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def stable_digest(payload: Mapping) -> str:
    """SHA-256 over the canonical JSON form of ``payload``.

    The one fingerprint recipe every persistent key in the project derives
    from (the tuner's evaluation keys, the service's kernel-store keys):
    sorted keys, ``str()`` fallback for non-JSON values, hex digest.  Keep
    it single-sourced — a canonicalisation change applied to one copy would
    silently diverge the stores.
    """
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


_CODE_FINGERPRINT: str | None = None
_CODE_FINGERPRINT_LOCK = threading.Lock()


def code_fingerprint() -> str:
    """Content digest of the installed ``repro`` package source.

    Salts every durable key (the service's kernel-store keys, the tuner's
    evaluation keys): a persisted entry must not outlive the code that
    produced it — a hand-bumped version string cannot guarantee that, because
    development edits layouts, the expression engine and the cost model
    without bumping it.  Hashing ~100 source files costs a few milliseconds,
    once per process, only when a key is first built.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        with _CODE_FINGERPRINT_LOCK:
            if _CODE_FINGERPRINT is None:
                import repro

                root = Path(repro.__file__).parent
                digest = hashlib.sha256()
                for path in sorted(root.rglob("*.py")):
                    digest.update(str(path.relative_to(root)).encode())
                    digest.update(b"\0")
                    digest.update(path.read_bytes())
                    digest.update(b"\0")
                _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


class ResultCache:
    """A ``key -> result-dict`` map with optional (atomic) JSON persistence."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        #: a persisted store existed but could not be read; it was discarded
        self.corrupt_reset = False
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            try:
                loaded = json.loads(self.path.read_text())
                if not isinstance(loaded, dict):
                    raise json.JSONDecodeError("store root is not an object", "", 0)
                self._entries = loaded
            except (OSError, json.JSONDecodeError):
                self._entries = {}
                self.corrupt_reset = True

    @staticmethod
    def key(
        app: str,
        config: Mapping,
        expressions: Mapping[str, str] | None = None,
        backend: str = "",
        device: str = "",
    ) -> str:
        """Stable digest of one candidate evaluation.

        ``expressions`` maps binding names to the canonical printed form of
        the lowered (hash-consed) index expressions, so entries invalidate
        when the expression engine or a layout changes the generated kernel;
        candidates whose generated kernel is unavailable key off the
        configuration alone.  ``backend`` is the code-generation target —
        without it two backends lowering to identical index expressions
        would collide on one entry.  ``device`` names the
        :class:`~repro.gpusim.DeviceSpec` an evaluation was costed against —
        per-device tuning (:mod:`repro.tune.search`) reuses one store across
        the zoo, and the same configuration evaluates differently on every
        device.  :func:`code_fingerprint` salts every key so entries also
        invalidate whenever the analytic performance model changes (which
        evaluation depends on but the expressions cannot capture).
        """
        payload = {
            "code": code_fingerprint(),
            "app": app,
            "backend": backend,
            "device": device,
            "config": {name: config[name] for name in sorted(config)},
            "expressions": {name: expressions[name] for name in sorted(expressions)} if expressions else None,
        }
        return stable_digest(payload)

    def get(self, key: str) -> dict | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, key: str, result: Mapping) -> None:
        with self._lock:
            self._entries[key] = dict(result)
            self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    def items(self, prefix: str = "") -> list[tuple[str, dict]]:
        """A consistent snapshot of ``(key, entry)`` pairs, optionally filtered.

        Digest keys are opaque, but clients that store *namespaced* records
        (the tuning tables' ``"tuning-table/..."`` rows) scan their
        namespace with ``prefix``.  Entries are copied, so a caller can
        iterate while service workers keep writing.
        """
        with self._lock:
            return [
                (key, dict(entry))
                for key, entry in self._entries.items()
                if key.startswith(prefix)
            ]

    def prune(self, keep) -> int:
        """Drop every entry for which ``keep(key, entry)`` is false.

        Returns the number of entries removed.  The store's clients use this
        to reclaim entries stranded by an invalidation-salt change (e.g. the
        service's code-fingerprint salt) — without it a long-lived store
        only ever grows, all dead weight eagerly loaded and re-written.
        """
        with self._lock:
            doomed = [key for key, entry in self._entries.items() if not keep(key, entry)]
            for key in doomed:
                del self._entries[key]
            if doomed:
                self._dirty = True
            return len(doomed)

    def reload(self) -> bool:
        """Re-read the backing file, merging entries written by other processes.

        A multi-process reader (the farm stress tests, a monitoring script)
        can refresh its view of a store that other ``ResultCache`` instances
        keep saving.  On-disk entries never overwrite this instance's own
        unsaved (dirty) state: local entries win on key conflicts, so a
        ``put`` can never be silently lost to a reload.  Returns ``False``
        (and raises :attr:`corrupt_reset`) if the file was unreadable — by
        the atomic-save contract that can only mean a non-``ResultCache``
        writer truncated it.
        """
        if self.path is None or not self.path.exists():
            return True
        try:
            loaded = json.loads(self.path.read_text())
            if not isinstance(loaded, dict):
                raise json.JSONDecodeError("store root is not an object", "", 0)
        except (OSError, json.JSONDecodeError):
            self.corrupt_reset = True
            return False
        with self._lock:
            merged = dict(loaded)
            if self._dirty:
                merged.update(self._entries)
            self._entries = merged
        return True

    def save(self) -> Path | None:
        """Atomically write the store back (no-op without a path or changes)."""
        with self._lock:
            if self.path is None or not self._dirty:
                return self.path
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _publish_atomically(self.path, json.dumps(self._entries, sort_keys=True, indent=1))
            self._dirty = False
            return self.path
