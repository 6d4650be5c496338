"""Cross-process in-flight deduplication: cache-keyed claim files with leases.

The compile farm (:mod:`repro.serve.farm`) runs worker *processes*, so the
thread-pool service's in-memory in-flight map cannot dedup across them.  The
primitive that can is the filesystem: a worker about to compile kernel ``K``
first *claims* it by atomically creating ``<dir>/<digest(K)>.claim``; a second
worker that finds the claim held polls the shared durable store for the
result instead of compiling the same kernel a second time.

Crash-safety is the whole point — a claim must never outlive a dead worker
by more than a bounded wait, or one ``SIGKILL`` mid-compile would wedge every
future request for that kernel.  Two mechanisms bound it:

* every claim carries a **lease deadline** (``time.time() + ttl``); a claim
  past its deadline is *stale* and any process may break it, and
* the claim records its **pid and host**, so a same-host observer detects a
  dead claimant immediately (``os.kill(pid, 0)``) instead of waiting out the
  lease — this is what keeps the farm's re-drive latency at the health-check
  interval rather than the lease TTL.

Atomicity: the claim file is written to a temp file and published with
``os.link`` (atomic create-that-fails-if-present), so a reader can never
observe a half-written claim and two racing claimants can never both win.
Breaking is unlink + re-link; two racing breakers both unlink (one sees
``ENOENT``, which is fine) and then race the link, which again has exactly
one winner.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from pathlib import Path

__all__ = ["Claim", "ClaimRegistry"]


def _publish_atomically(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it into place,
    so a reader sees the old claim or the new one, never a torn one."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:  # noqa: BLE001 - re-raised: only the orphaned temp file is removed
        os.unlink(tmp_name)
        raise


class Claim:
    """One held claim: release it (or let the lease expire) when done."""

    __slots__ = ("registry", "key", "path", "deadline", "_released")

    def __init__(self, registry: "ClaimRegistry", key: str, path: Path, deadline: float):
        self.registry = registry
        self.key = key
        self.path = path
        self.deadline = deadline
        self._released = False

    def release(self) -> None:
        """Drop the claim file (idempotent; a broken claim unlinks silently)."""
        if self._released:
            return
        self._released = True
        try:
            os.unlink(self.path)
        except OSError:
            pass  # a breaker already reclaimed an expired lease

    def refresh(self, ttl: float | None = None) -> None:
        """Extend the lease for a compile running longer than one TTL."""
        payload = self.registry._payload(ttl)
        self.deadline = payload["deadline"]
        _publish_atomically(self.path, json.dumps(payload))

    def __enter__(self) -> "Claim":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ClaimRegistry:
    """Claim files for one shared store, all under one directory.

    ``ttl`` is the lease duration stamped on every claim; ``owner`` names the
    claimant in the file (diagnostics only — correctness rests on pid/host
    and the deadline).
    """

    def __init__(self, directory: str | Path, ttl: float = 5.0, owner: str = ""):
        if ttl <= 0:
            raise ValueError("ClaimRegistry requires a positive lease ttl")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ttl = float(ttl)
        self.owner = owner or f"pid-{os.getpid()}"
        #: claims broken after their holder died or their lease expired
        self.broken = 0

    # -- internals ------------------------------------------------------------

    def _path(self, key: str) -> Path:
        import hashlib

        return self.directory / (hashlib.sha256(key.encode()).hexdigest() + ".claim")

    def _payload(self, ttl: float | None = None) -> dict:
        return {
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "deadline": time.time() + (self.ttl if ttl is None else ttl),
        }

    def _publish(self, path: Path, payload: dict) -> bool:
        """Atomically create ``path`` holding ``payload``; False if already claimed."""
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            try:
                os.link(tmp_name, path)
                return True
            except FileExistsError:
                return False
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    @staticmethod
    def _is_stale(entry: dict | None, mtime: float) -> bool:
        """A claim whose holder is provably dead or whose lease lapsed."""
        now = time.time()
        if entry is None:
            # unreadable content cannot happen through _publish, but a foreign
            # writer might leave junk: fall back to the mtime-based lease
            return now > mtime + 60.0
        if now > float(entry.get("deadline", 0.0)):
            return True
        pid = entry.get("pid")
        if pid and entry.get("host") == socket.gethostname():
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                return True  # same host, claimant gone: break immediately
            except (OSError, ValueError):
                pass  # no signal permission / odd pid: trust the deadline
        return False

    # -- the claim protocol ----------------------------------------------------

    def acquire(self, key: str) -> Claim | None:
        """Try to claim ``key``; ``None`` means a live claimant holds it.

        A stale claim (dead same-host pid, or lease deadline passed) is
        broken and re-acquired in the same call.
        """
        path = self._path(key)
        payload = self._payload()
        if self._publish(path, payload):
            return Claim(self, key, path, payload["deadline"])
        holder = self.holder(key)
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = 0.0  # released between our attempts: retry fresh
        if holder is not None and not self._is_stale(holder, mtime) and mtime:
            return None
        # break the stale claim and race any other breaker for the re-claim
        try:
            os.unlink(path)
        except OSError:
            pass
        self.broken += 1
        payload = self._payload()
        if self._publish(path, payload):
            return Claim(self, key, path, payload["deadline"])
        return None

    def holder(self, key: str) -> dict | None:
        """The current claim payload, or ``None`` if unclaimed/unreadable."""
        try:
            return json.loads(self._path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def held(self, key: str) -> bool:
        """Whether a *live* (non-stale) claim currently covers ``key``."""
        path = self._path(key)
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False
        return not self._is_stale(self.holder(key), mtime)

    def outstanding(self) -> list[str]:
        """Filenames of every claim file currently on disk (live or stale)."""
        return sorted(p.name for p in self.directory.glob("*.claim"))
