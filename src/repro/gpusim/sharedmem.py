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

Every mini-CUDA and MLIR recorder — tree-walk and batched alike — and
mini-Triton's batched one score an access once, row-wise: a warp chunk of a
dense ``(rows, row_length)`` access is a contiguous run of at most
``warp_size`` lanes, so :func:`warp_rows` reshapes the access into a
``(chunks, warp_size)`` matrix (:func:`ragged_warp_rows` when the rows differ
in length).  A ragged tail is padded by repeating the row's last lane, which
adds neither a distinct value nor a word to any bank.
:func:`row_distinct_counts` (sectors) and :func:`row_conflict_degrees` (banks)
then work within each row, sorting it only when ``row[1:] >= row[:-1]`` fails
somewhere — a coalesced layout arrives sorted.  The counts are exact integers,
so a trace does not depend on which executor recorded it.
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
    "warp_rows",
    "ragged_warp_rows",
    "row_distinct_counts",
    "row_conflict_degrees",
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

    def record_many(self, degrees, repeat: int = 1) -> None:
        """Record a batch of warp-access degrees at once, ``repeat`` times over.

        Equivalent to calling :meth:`record` per degree (the profile's
        statistics are all order-insensitive); the vectorized engine uses
        this to commit a whole launch's degrees in one call, and ``repeat``
        for a block-uniform access — one pattern paid by every block.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.size == 0:
            return
        self.accesses += int(degrees.size) * repeat
        self.total_passes += int(degrees.sum()) * repeat
        self.worst_degree = max(self.worst_degree, int(degrees.max()))
        counts = np.bincount(degrees)
        for degree in np.nonzero(counts)[0]:
            self.histogram[int(degree)] += int(counts[degree]) * repeat

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


def warp_rows(lanes: np.ndarray, warp_size: int) -> np.ndarray:
    """The warp chunks of a dense ``(rows, row_length)`` access, one per row.

    Each row (one block's flat lane list, C order) splits into chunks of
    ``warp_size`` lanes; the result is the ``(chunks, warp_size)`` int64
    matrix of them (narrower when the whole row is shorter than a warp).  A
    ragged tail is padded by repeating the row's last lane: a repeated value
    adds no distinct sector, and a repeated word broadcasts, so no score
    changes.
    """
    lanes = np.asarray(lanes, dtype=np.int64)
    rows, length = lanes.shape
    width = max(1, min(warp_size, length))
    tail = length % width
    if tail:
        last = np.broadcast_to(lanes[:, -1:], (rows, width - tail))
        lanes = np.concatenate((lanes, last), axis=1)
    return lanes.reshape(-1, width)


def ragged_warp_rows(lanes: np.ndarray, counts, warp_size: int) -> np.ndarray:
    """:func:`warp_rows` for rows of differing lengths.

    ``lanes`` is the flat concatenation of rows of ``counts[i]`` lanes each
    (a block's compacted lanes, one access of a schedule); every row is cut
    into warp chunks of its own and its tail padded with its last lane.
    """
    lanes = np.asarray(lanes, dtype=np.int64).reshape(-1)
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    counts = counts[counts > 0]
    if int(counts.sum()) != lanes.size:
        raise ValueError("counts must add up to the number of lanes")
    chunks = -(-counts // warp_size)
    first_lane = np.cumsum(counts) - counts
    first_slot = (np.cumsum(chunks) - chunks) * warp_size
    # every chunk starts out as its row's last lane, then the lanes land on top
    out = np.repeat(lanes[first_lane + counts - 1], chunks * warp_size)
    out[np.arange(lanes.size) + np.repeat(first_slot - first_lane, counts)] = lanes
    return out.reshape(-1, warp_size)


def _ordered_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` with every row non-decreasing; sorts only if some row is not."""
    if (matrix[:, 1:] < matrix[:, :-1]).any():
        return np.sort(matrix, axis=1)
    return matrix


def row_distinct_counts(matrix: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Per-row count of distinct values (among the row's ``valid`` entries).

    With sector numbers as values and warp chunks as rows
    (:func:`warp_rows`) the sum is an access's DRAM transaction count;
    mini-Triton deduplicates a whole program at once, so there a row is a
    program and ``valid`` its mask (a fully masked row counts 0).
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    rows, width = matrix.shape
    if width == 0:
        return np.zeros(rows, dtype=np.int64)
    masked = None
    if valid is not None:
        valid = np.broadcast_to(np.asarray(valid, dtype=bool), matrix.shape)
        masked = ~valid.all(axis=1)
        # masked entries become one extra value that sorts last, counted off below
        matrix = np.where(valid, matrix, np.iinfo(np.int64).max)
    ordered = _ordered_rows(matrix)
    counts = 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)
    return counts if masked is None else counts - masked


def row_conflict_degrees(
    matrix: np.ndarray,
    element_bytes: int,
    *,
    num_banks: int = 32,
    bank_bytes: int = 4,
) -> np.ndarray:
    """Per-row shared-memory conflict degree of a warp-chunk matrix.

    :func:`warp_conflict_degree` for every row of :func:`warp_rows` at once:
    word addresses are deduplicated within the row (broadcast is free),
    surviving words map to banks, and the row's degree is the worst per-bank
    multiplicity.  The degrees go to :meth:`ConflictProfile.record_many`.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    rows, width = matrix.shape
    if matrix.size == 0:
        return np.ones(rows, dtype=np.int64)
    if element_bytes != bank_bytes:
        matrix = matrix * int(element_bytes) // int(bank_bytes)
    words = _ordered_rows(matrix)
    fresh = np.ones(words.shape, dtype=bool)
    fresh[:, 1:] = words[:, 1:] != words[:, :-1]
    slots = (words % num_banks).reshape(-1)
    slots += np.repeat(np.arange(0, rows * num_banks, num_banks), width)
    per_bank = np.bincount(slots[fresh.reshape(-1)], minlength=rows * num_banks)
    return per_bank.reshape(rows, num_banks).max(axis=1)
