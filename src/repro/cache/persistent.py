"""The one durable store: a ``key -> dict`` map over an append-only record log.

The autotuner's evaluations and tuning tables, the in-process service's
kernels and every compile-farm worker share :class:`ResultCache`; all of them
salt their keys with :func:`code_fingerprint`.  DESIGN.md states the log's
rules once; in short:

* a record is ``b"\\n" + json.dumps(entries, sort_keys=True) + b"\\n"``, so a
  torn append spoils only its own line, which a read skips and counts in
  ``corrupt_entries``;
* ``put`` and ``get`` touch memory (``items`` and ``len`` reload first);
  ``save`` appends the unsaved entries as one record
  (one ``os.write``, ``O_APPEND``, shared ``flock``) and never rewrites a
  byte; ``reload`` parses the complete records past its offset, later
  records win, and this handle's unsaved puts win over all of them;
* ``prune`` is the one rewrite: under an exclusive ``flock``, and only when
  it drops an entry, it replaces the log with one record of what is kept.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Mapping

__all__ = ["ResultCache", "code_fingerprint", "stable_digest"]


#: ``json.dumps(payload, sort_keys=True, default=str)``, built once
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, default=str)


def stable_digest(payload: Mapping) -> str:
    """SHA-256 over the canonical JSON form of ``payload``.

    The one fingerprint recipe every persistent key in the project derives
    from (the tuner's evaluation keys, the service's kernel-store keys):
    sorted keys (nested maps included), ``str()`` fallback for non-JSON
    values, hex digest.  Keep it single-sourced — a canonicalisation change
    applied to one copy would silently diverge the stores.
    """
    return hashlib.sha256(_CANONICAL_JSON.encode(payload).encode()).hexdigest()


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
    """A ``key -> result-dict`` map, optionally kept in an append-only log at ``path``."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        #: log lines that did not parse (a torn append, a foreign writer); skipped
        self.corrupt_entries = 0
        self._entries: dict[str, dict] = {}
        #: entries put since the last save: appended by the next one
        self._dirty: dict[str, dict] = {}
        #: the log file read so far (inode) and the bytes of it consumed
        self._inode: int | None = None
        self._offset = 0
        self._lock = threading.Lock()
        self.reload()

    @staticmethod
    def kernel_digest(app: str, expressions: Mapping[str, str] | None = None,
                      backend: str = "", device: str = "") -> str:
        """The first half of :meth:`key`: everything but the configuration.

        A sweep's candidates share a handful of kernels, so the tuner takes
        this once per kernel and :meth:`candidate_key` once per candidate.
        """
        return stable_digest({"code": code_fingerprint(), "app": app, "backend": backend,
                              "device": device,
                              "expressions": dict(expressions) if expressions else None})

    @staticmethod
    def candidate_key(kernel_digest: str, config: Mapping) -> str:
        """The second half of :meth:`key`: a :meth:`kernel_digest` and the configuration."""
        return stable_digest({"kernel": kernel_digest, "config": dict(config)})

    @staticmethod
    def key(app: str, config: Mapping, expressions: Mapping[str, str] | None = None,
            backend: str = "", device: str = "") -> str:
        """Stable digest of one candidate evaluation: :meth:`candidate_key` of the
        :meth:`kernel_digest`.

        ``expressions`` (binding name -> canonical printed index expression)
        invalidates entries when a layout or the expression engine changes the
        kernel; ``backend`` and ``device`` keep two targets or two zoo devices
        off one entry; :func:`code_fingerprint` invalidates them when the cost
        model, which the expressions cannot capture, changes.
        """
        return ResultCache.candidate_key(
            ResultCache.kernel_digest(app, expressions, backend, device), config)

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, result: Mapping) -> None:
        with self._lock:
            self._entries[key] = self._dirty[key] = dict(result)

    def __len__(self) -> int:
        self.reload()
        return len(self._entries)

    def items(self, prefix: str = "") -> list[tuple[str, dict]]:
        """A consistent snapshot of ``(key, entry)`` pairs, optionally filtered.

        Digest keys are opaque, but clients that store *namespaced* records
        (the tuning tables' ``"tuning-table/..."`` rows) scan their
        namespace with ``prefix``.  Entries are copied, so a caller can
        iterate while service workers keep writing.  Reloads first, as
        ``len`` does: a whole-store read sees what other handles saved.
        """
        self.reload()
        with self._lock:
            return [(key, dict(entry)) for key, entry in self._entries.items()
                    if key.startswith(prefix)]

    def prune(self, keep) -> int:
        """Drop every entry for which ``keep(key, entry)`` is false; returns how many.

        The store's clients reclaim entries stranded by an invalidation-salt
        change (the service's code-fingerprint salt) this way.  With a log,
        it is the log's one rewrite (see the module docstring), taken only
        when something is dropped; the rewrite also persists unsaved puts.
        """
        with self._lock:
            try:
                fd = None if self.path is None else self._locked(os.O_RDONLY, fcntl.LOCK_EX)
            except FileNotFoundError:
                fd = None  # nothing on disk yet: only memory to prune
            try:
                if fd is not None:
                    self._read_locked(fd)
                doomed = [key for key, entry in self._entries.items() if not keep(key, entry)]
                for key in doomed:
                    del self._entries[key]
                    self._dirty.pop(key, None)
                if doomed and fd is not None:
                    self._compact_locked()
                return len(doomed)
            finally:
                if fd is not None:
                    os.close(fd)

    def reload(self) -> None:
        """Merge the records other handles appended since this one last read."""
        if self.path is None:
            return
        with self._lock:
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                return
            try:
                self._read_locked(fd)
            finally:
                os.close(fd)

    def save(self) -> Path | None:
        """Append the unsaved entries as one record (no-op without a path or changes)."""
        with self._lock:
            if self.path is None or not self._dirty:
                return self.path
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = self._locked(os.O_WRONLY | os.O_APPEND | os.O_CREAT, fcntl.LOCK_SH)
            try:
                _write_record(fd, self._dirty)
            finally:
                os.close(fd)
            self._dirty = {}
            return self.path

    # -- the log -------------------------------------------------------------------

    def _locked(self, flags: int, operation: int) -> int:
        """Open the log and ``flock`` it, reopening while a compaction moved the path."""
        while True:
            fd = os.open(self.path, flags, 0o644)
            fcntl.flock(fd, operation)
            try:
                if os.stat(self.path).st_ino == os.fstat(fd).st_ino:
                    return fd
            except FileNotFoundError:
                pass
            os.close(fd)

    def _read_locked(self, fd: int) -> None:
        status = os.fstat(fd)
        # the consumed prefix ends in a newline; a file where it does not is another file
        if status.st_ino != self._inode or status.st_size < self._offset or (
                self._offset and os.pread(fd, 1, self._offset - 1) != b"\n"):
            self._inode, self._offset, self._entries = status.st_ino, 0, {}
        data = os.pread(fd, status.st_size - self._offset, self._offset)
        end = data.rfind(b"\n") + 1
        self._offset += end
        for line in data[:end].split(b"\n"):
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                self._entries.update(record)
            else:
                self.corrupt_entries += 1
        self._entries.update(self._dirty)

    def _compact_locked(self) -> None:
        """Replace the log with one record of every entry (under the exclusive lock)."""
        fd, tmp_name = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name + ".",
                                        suffix=".tmp")
        try:
            size = _write_record(fd, self._entries)
            inode = os.fstat(fd).st_ino
            os.replace(tmp_name, self.path)
        except BaseException:  # noqa: BLE001 - re-raised: only the orphaned temp file is removed
            os.unlink(tmp_name)
            raise
        finally:
            os.close(fd)
        self._inode, self._offset, self._dirty = inode, size, {}


def _write_record(fd: int, entries: Mapping) -> int:
    """One ``os.write`` of one framed record; a short write raises."""
    # compact: an indent forces json's pure-Python encoder, this is the C one
    record = b"\n" + json.dumps(entries, sort_keys=True).encode() + b"\n"
    written = os.write(fd, record)
    if written != len(record):
        raise OSError(f"short write: {written} of {len(record)} bytes of a store record")
    return written
