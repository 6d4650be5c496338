"""Shared caching infrastructure for the tuner and the compile request path.

Three pieces live here, composed by their users:

* :class:`ShardedLRUCache` — the memory tier: N independently locked LRU
  shards with per-shard hit/miss/eviction counters.  Keys are arbitrary
  hashable values; the compile service keys on request fingerprints built
  from interned expression identities.
* :class:`ResultCache` — the one durable tier: a ``key -> dict`` map over an
  append-only record log that any number of handles and processes share
  (the tuner's evaluations and tables, the service's kernels, every farm
  worker); all salt their keys with :func:`code_fingerprint`.
* :class:`ClaimRegistry` / :class:`Claim` — cross-process in-flight dedup:
  cache-keyed claim files with lease deadlines and dead-claimant detection,
  what makes "each distinct kernel compiles once" hold across worker
  processes (and survive a ``SIGKILL`` mid-compile).
"""

from .claims import Claim, ClaimRegistry
from .persistent import ResultCache, code_fingerprint, stable_digest
from .sharded import ShardedLRUCache

# the benchmark's cache probe still imports this name; nothing else may use it
ShardedFileStore = ResultCache

__all__ = [
    "Claim",
    "ClaimRegistry",
    "ResultCache",
    "ShardedLRUCache",
    "code_fingerprint",
    "stable_digest",
]
