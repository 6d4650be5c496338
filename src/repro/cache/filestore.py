"""A durable key->dict store safe for concurrent multi-process writers.

:class:`~repro.cache.ResultCache` persists the whole store as one JSON file,
which is the right shape for a single-writer tuner but not for a compile
farm: N worker processes saving one shared file would last-writer-win each
other's entries, and a worker would only ever see the entries loaded when it
attached.  :class:`ShardedFileStore` instead keeps **one file per entry**,
sharded into subdirectories, with every write published by temp-file +
``os.replace``:

* writes from any number of processes never interleave — a reader sees the
  old complete entry or the new complete entry, never a torn one
  (``verify_integrity`` and the multi-process stress test assert exactly
  this), and
* a ``get`` always reads the current file, so a kernel compiled by one
  worker is visible to every other worker immediately — the property the
  farm's claim-based dedup relies on.

Counters (hits/misses/puts and the ``corrupt_entries`` tripwire) are
per-instance, i.e. per-process: exact for the process that owns the
instance, which is what the farm's per-worker ledgers aggregate.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Iterator, Mapping

from .persistent import _publish_atomically

__all__ = ["ShardedFileStore"]


class ShardedFileStore:
    """Directory-backed ``key -> dict`` store with atomic per-entry files."""

    def __init__(self, root: str | Path, shards: int = 16):
        if shards < 1:
            raise ValueError("ShardedFileStore requires at least one shard")
        self.root = Path(root)
        self.shards = shards
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: entry files that failed to parse — must stay 0 forever; a torn
        #: read here would mean ``os.replace`` atomicity was violated
        self.corrupt_entries = 0

    # -- paths -----------------------------------------------------------------

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()
        shard = int(digest[:8], 16) % self.shards
        return self.root / f"{shard:02x}" / (digest + ".json")

    def _entry_files(self) -> Iterator[Path]:
        for shard_dir in sorted(self.root.iterdir()):
            if shard_dir.is_dir():
                yield from sorted(shard_dir.glob("*.json"))

    # -- the store protocol ----------------------------------------------------

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        try:
            envelope = json.loads(text)
            value = envelope["value"]
        except (json.JSONDecodeError, TypeError, KeyError):
            with self._lock:
                self.corrupt_entries += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return value

    def put(self, key: str, value: Mapping) -> None:
        """Atomically publish ``value`` under ``key`` (last full write wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # the original key rides inside the envelope: filenames are digests,
        # and items()/keys() must recover what callers actually stored
        _publish_atomically(
            path, json.dumps({"key": key, "value": dict(value)}, sort_keys=True))
        with self._lock:
            self.puts += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())

    def keys(self) -> list[str]:
        return [key for key, _ in self.items()]

    def _scan(self) -> Iterator[tuple[Path, tuple[str, dict] | None]]:
        """Every entry file with its ``(key, value)``, or ``None`` if unreadable."""
        for path in self._entry_files():
            try:
                envelope = json.loads(path.read_text())
                yield path, (envelope["key"], envelope["value"])
            except (OSError, json.JSONDecodeError, TypeError, KeyError):
                yield path, None

    def items(self) -> list[tuple[str, dict]]:
        entries = [entry for _, entry in self._scan()]
        with self._lock:
            self.corrupt_entries += entries.count(None)
        return [entry for entry in entries if entry is not None]

    def prune(self, keep) -> int:
        """Drop entries failing ``keep(key, value)`` — and unreadable ones,
        which are dead weight; returns removals."""
        doomed = [path for path, entry in self._scan()
                  if entry is None or not keep(*entry)]
        for path in doomed:
            try:
                os.unlink(path)
            except OSError:
                pass
        return len(doomed)

    # -- integrity / observability ---------------------------------------------

    def verify_integrity(self) -> dict:
        """Re-scan every entry file; the chaos tests assert ``corrupt == 0``.

        Stray ``*.tmp`` files are legal debris (a writer died between
        ``mkstemp`` and ``os.replace``) and are counted separately — they
        are invisible to ``get`` and never corrupt anything.
        """
        scanned = [entry for _, entry in self._scan()]
        stray_tmp = sum(
            1 for shard in self.root.iterdir() if shard.is_dir()
            for _ in shard.glob("*.tmp")
        )
        return {"entries": len(scanned), "corrupt": scanned.count(None),
                "stray_tmp": stray_tmp}

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt_entries": self.corrupt_entries,
            }
