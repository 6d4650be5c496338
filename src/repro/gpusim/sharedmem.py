"""Shared-memory bank-conflict model.

Shared memory on NVIDIA GPUs is divided into 32 four-byte banks; a warp
access that maps several lanes to different words of the same bank is
serialised into that many conflict-free passes.  The NW benchmark's speedup
in the paper comes entirely from removing such conflicts by changing the
shared buffer's layout to anti-diagonal order, so this model is the heart of
the Figure 12a reproduction.

``warp_conflict_degree`` computes the serialisation factor of a single warp
access from the per-lane *element* indices into the shared buffer;
``access_conflict_profile`` aggregates a whole kernel phase.

The ``grouped_*`` scorers are what every mini-CUDA and MLIR recorder —
tree-walk and batched alike — calls, once per access: lanes are keyed by warp
chunk (:func:`chunk_keys`) and all chunks are scored from one sort, as exact
integer counts, so a trace does not depend on which executor recorded it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "warp_conflict_degree",
    "ConflictProfile",
    "access_conflict_profile",
    "chunk_keys",
    "grouped_conflict_degrees",
    "grouped_unique_count",
]


def warp_conflict_degree(
    element_indices: Sequence[int],
    element_bytes: int = 4,
    num_banks: int = 32,
    bank_bytes: int = 4,
) -> int:
    """Serialisation factor (>= 1) of one warp's shared-memory access.

    ``element_indices`` are the per-lane indices into the shared buffer
    (inactive lanes omitted).  Lanes hitting the *same word* broadcast and do
    not conflict; lanes hitting different words in the same bank serialise.
    """
    if len(element_indices) == 0:
        return 1
    words = np.asarray(element_indices, dtype=np.int64) * element_bytes // bank_bytes
    unique_words = np.unique(words)
    banks = unique_words % num_banks
    counts = Counter(banks.tolist())
    return max(counts.values())


@dataclass
class ConflictProfile:
    """Aggregated bank-conflict statistics for a sequence of warp accesses."""

    accesses: int = 0
    total_passes: int = 0
    worst_degree: int = 1
    histogram: Counter = field(default_factory=Counter)

    @property
    def average_degree(self) -> float:
        if self.accesses == 0:
            return 1.0
        return self.total_passes / self.accesses

    def record(self, degree: int) -> None:
        self.accesses += 1
        self.total_passes += degree
        self.worst_degree = max(self.worst_degree, degree)
        self.histogram[degree] += 1

    def record_many(self, degrees) -> None:
        """Record a batch of warp-access degrees at once.

        Equivalent to calling :meth:`record` per degree (the profile's
        statistics are all order-insensitive); the vectorized engine uses
        this to commit a whole launch's degrees in one call.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.size == 0:
            return
        self.accesses += int(degrees.size)
        self.total_passes += int(degrees.sum())
        self.worst_degree = max(self.worst_degree, int(degrees.max()))
        counts = np.bincount(degrees)
        for degree in np.nonzero(counts)[0]:
            self.histogram[int(degree)] += int(counts[degree])

    def merge(self, other: "ConflictProfile") -> "ConflictProfile":
        merged = ConflictProfile(
            accesses=self.accesses + other.accesses,
            total_passes=self.total_passes + other.total_passes,
            worst_degree=max(self.worst_degree, other.worst_degree),
        )
        merged.histogram = self.histogram + other.histogram
        return merged


def access_conflict_profile(
    warp_accesses: Iterable[Sequence[int]],
    element_bytes: int = 4,
    num_banks: int = 32,
) -> ConflictProfile:
    """Profile a sequence of warp accesses (each a list of per-lane element indices)."""
    profile = ConflictProfile()
    for access in warp_accesses:
        profile.record(warp_conflict_degree(access, element_bytes, num_banks))
    return profile


def grouped_unique_count(group_ids: np.ndarray, values: np.ndarray) -> int:
    """Total number of distinct ``(group, value)`` pairs.

    Lanes carry an explicit group id (see :func:`chunk_keys`); with sector
    numbers as values this is the per-warp DRAM transaction count of a
    whole access.  Summing per-group unique counts equals counting unique
    pairs, which one lexsort delivers for the whole batch.
    """
    g = np.asarray(group_ids, dtype=np.int64).ravel()
    v = np.asarray(values, dtype=np.int64).ravel()
    if g.size != v.size:
        raise ValueError("group_ids and values must have the same number of lanes")
    if g.size == 0:
        return 0
    order = np.lexsort((v, g))
    g, v = g[order], v[order]
    is_new = np.ones(g.size, dtype=bool)
    is_new[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    return int(is_new.sum())


def grouped_conflict_degrees(
    group_ids: np.ndarray,
    element_indices: np.ndarray,
    element_bytes: int,
    *,
    num_banks: int = 32,
    bank_bytes: int = 4,
) -> np.ndarray:
    """Per-group shared-memory conflict degree, one entry per group.

    :func:`warp_conflict_degree` for every warp chunk at once: word
    addresses are deduplicated within the group (broadcast is free),
    surviving words map to banks, and the group's degree is the worst
    per-bank multiplicity.  Groups are whatever the caller keyed lanes by
    (see :func:`chunk_keys`); the degrees go to
    :meth:`ConflictProfile.record_many`.
    """
    g = np.asarray(group_ids, dtype=np.int64).ravel()
    idx = np.asarray(element_indices, dtype=np.int64).ravel()
    if g.size != idx.size:
        raise ValueError("group_ids and element_indices must have the same number of lanes")
    if g.size == 0:
        return np.zeros(0, dtype=np.int64)
    words = idx * int(element_bytes) // int(bank_bytes)
    order = np.lexsort((words, g))
    g, words = g[order], words[order]
    is_new = np.ones(g.size, dtype=bool)
    is_new[1:] = (g[1:] != g[:-1]) | (words[1:] != words[:-1])
    g_unique, words_unique = g[is_new], words[is_new]
    group_start = np.ones(g_unique.size, dtype=bool)
    group_start[1:] = g_unique[1:] != g_unique[:-1]
    group_compact = np.cumsum(group_start) - 1
    num_groups = int(group_compact[-1]) + 1
    banks = words_unique % num_banks
    per_bank = np.bincount(
        group_compact * num_banks + banks, minlength=num_groups * num_banks
    )
    degrees = per_bank.reshape(num_groups, num_banks).max(axis=1)
    return np.maximum(degrees, 1).astype(np.int64)


def chunk_keys(rows: int, row_length: int, warp_size: int) -> np.ndarray:
    """Warp-chunk group keys for a dense ``(rows, row_length)`` access.

    Each row (one block's flat lane list, C order) splits into
    ``warp_size`` chunks, ragged tail kept.  This returns the matching
    ``(rows, row_length)`` key array — one distinct key per (row, chunk) —
    for feeding :func:`grouped_unique_count` /
    :func:`grouped_conflict_degrees`.
    """
    chunks_per_row = (row_length + warp_size - 1) // warp_size
    chunk_in_row = np.arange(row_length, dtype=np.int64) // warp_size
    return np.arange(rows, dtype=np.int64)[:, None] * chunks_per_row + chunk_in_row[None, :]
