"""Shared caching infrastructure for the tuner, the service and the farm.

Four pieces live here, composed by their users:

* :class:`ShardedLRUCache` — the in-memory tier: N independently locked LRU
  shards with per-shard hit/miss/eviction counters.  Keys are arbitrary
  hashable values; the compilation service keys on request fingerprints
  built from interned expression identities, the cheapest stable key a
  process can produce.
* :class:`ResultCache` — the persistent tier: a ``key -> dict`` JSON store
  with atomic writes (temp file + ``os.replace``) and a ``corrupt_reset``
  flag raised when an unreadable store was discarded on load.  The
  autotuner's evaluation cache and the service's kernel store share it, and
  both salt their keys with :func:`code_fingerprint`.
* :class:`ShardedFileStore` — the multi-process durable tier: one atomic
  file per entry, sharded into subdirectories, so compile-farm workers in
  different processes share one store without last-writer-wins data loss
  and without ever observing a torn entry.
* :class:`ClaimRegistry` / :class:`Claim` — cross-process in-flight dedup:
  cache-keyed claim files with lease deadlines and dead-claimant detection,
  the primitive that makes "each distinct kernel compiles once" hold across
  worker processes (and survive a ``SIGKILL`` mid-compile).
"""

from .claims import Claim, ClaimRegistry
from .filestore import ShardedFileStore
from .persistent import ResultCache, code_fingerprint, stable_digest
from .sharded import ShardedLRUCache

__all__ = [
    "Claim",
    "ClaimRegistry",
    "ResultCache",
    "ShardedFileStore",
    "ShardedLRUCache",
    "code_fingerprint",
    "stable_digest",
]
