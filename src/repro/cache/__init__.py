"""Shared caching infrastructure for the tuner and the compile request path.

Four pieces live here, composed by their users:

* :class:`ShardedLRUCache` — the memory tier: N independently locked LRU
  shards with per-shard hit/miss/eviction counters.  Keys are arbitrary
  hashable values; the compile service keys on request fingerprints built
  from interned expression identities.
* :class:`ResultCache` — the single-file durable tier: a ``key -> dict``
  JSON store with a ``corrupt_reset`` flag raised when an unreadable store
  was discarded on load.  The autotuner's evaluation cache and the
  in-process service's kernel store share it; both salt their keys with
  :func:`code_fingerprint`.
* :class:`ShardedFileStore` — the multi-process durable tier: one file per
  entry, so compile-farm workers share one store without last-writer-wins
  data loss.  Both durable tiers publish through one temp-file +
  ``os.replace`` step, so no reader ever observes a torn write.
* :class:`ClaimRegistry` / :class:`Claim` — cross-process in-flight dedup:
  cache-keyed claim files with lease deadlines and dead-claimant detection,
  what makes "each distinct kernel compiles once" hold across worker
  processes (and survive a ``SIGKILL`` mid-compile).
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
