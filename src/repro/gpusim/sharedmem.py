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

Recorders do not score.  The three substrates' launch traces are
:class:`AccessLog` instances: every recorder — mini-CUDA's and MLIR's a row per
block, mini-Triton's a row per program — appends the dense ``(rows, lanes)``
offsets of an access (:meth:`AccessLog.log_shared`,
:meth:`AccessLog.log_global`) with the number of blocks that ``repeat`` it,
and :meth:`AccessLog.flush` scores what is pending in one pass: accesses of
one kind are pooled into one warp-row matrix (:func:`warp_rows`;
:func:`ragged_warp_rows` when their lengths differ — a ragged tail is padded
by repeating the row's last lane, which adds neither a distinct value nor a
word to any bank), sorted only when some row is out of order (a coalesced
layout arrives sorted), and scored by :func:`row_conflict_degrees` (banks) or
:func:`distinct_total` (sectors — a launch needs only their total, so it is
one scan of the flattened matrix, not a per-row reduction).  An access whose
rows are one pattern shifted per row (mini-Triton's affine offsets) never
becomes that matrix: :meth:`AccessLog.log_global_affine` logs one row per
sector residue, repeated by the number of rows that have it; which rows read
the same tile, so that mini-Triton gathers it once, is :func:`distinct_bases`.
:func:`repro.vm.engine.run_launch` flushes when the executor returns, and the
log flushes itself before it would hold more than one slab
(:data:`repro.vm.engine.SLAB_ELEMENTS`), so a launch of many tiny accesses
pays NumPy's per-call cost once and a huge one never builds a huge temporary.
The counts are exact integers, so a trace does not depend on where the
flushes fell.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..vm import engine

__all__ = [
    "warp_conflict_degree",
    "ConflictProfile",
    "access_conflict_profile",
    "AccessLog",
    "distinct_bases",
    "warp_rows",
    "ragged_warp_rows",
    "distinct_total",
    "row_conflict_degrees",
]

_BANK_BYTES = 4


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
        statistics are all order-insensitive); a flush of the access log
        commits a pooled matrix's degrees in one call, with ``repeat`` for
        block-uniform accesses — one pattern paid by every block.
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


def _units(offsets: np.ndarray, element_bytes: int, unit_bytes: int) -> np.ndarray:
    """The unit (bank word, DRAM sector) each element offset falls in.

    ``offsets * element_bytes // unit_bytes`` — one shift whenever the
    element size divides the unit into a power of two, which every dtype and
    sector size of the device zoo does.  Always a new array (a shift by zero
    included): the log keeps it until the flush, and a kernel may go on to
    change its index array in place.  A recorder whose offsets are already a
    fresh array of 4-byte elements skips it (``log_shared(..., fresh=True)``).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    ratio, rest = divmod(int(unit_bytes), int(element_bytes))
    if rest == 0 and ratio & (ratio - 1) == 0:
        return offsets >> (ratio.bit_length() - 1)
    return offsets * int(element_bytes) // int(unit_bytes)


def _residue_classes(base: np.ndarray, element_bytes: int, unit_bytes: int) -> np.ndarray:
    """``base mod u/gcd(e, u)``: which of a unit's bytes a row at ``base`` starts on.

    The residue ``(base · e) mod u`` depends on ``base`` only through this
    class, one class per residue, so ``base · e`` is never formed.
    """
    return base % (unit_bytes // math.gcd(element_bytes, unit_bytes))


def distinct_bases(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique, index)`` with ``unique[index] == base``: the rows an affine access
    really reads (``unique`` sorted), and which of them each row is."""
    return np.unique(base, return_inverse=True)


#: what a masked lane's unit becomes: one extra value per row, and it sorts last
_MASKED = np.iinfo(np.int64).max


def _masked_last(matrix: np.ndarray, valid) -> tuple[np.ndarray, np.ndarray]:
    """``matrix`` with its masked entries set to :data:`_MASKED`, and which rows have any."""
    valid = np.broadcast_to(np.asarray(valid, dtype=bool), matrix.shape)
    return np.where(valid, matrix, _MASKED), ~valid.all(axis=1)


def _ordered_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, contiguous, with every row non-decreasing; sorts only if some row is not."""
    matrix = np.ascontiguousarray(matrix)
    flat = matrix.reshape(-1)
    descents = flat[1:] < flat[:-1]
    descents[matrix.shape[1] - 1::matrix.shape[1]] = False  # a seam between rows is not one
    return np.sort(matrix, axis=1) if descents.any() else matrix


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Flat flags over ``ordered``: the entry differs from its left neighbour in the row."""
    flat = ordered.reshape(-1)
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::ordered.shape[1]] = True  # a row's first entry starts a run whatever the seam says
    return starts


def distinct_total(matrix: np.ndarray) -> int:
    """Distinct values per row, summed over the rows of a non-empty matrix.

    With sector numbers as values and warp chunks (mini-Triton: programs) as
    rows this is an access's DRAM transaction count: one scan of the
    flattened matrix counts the runs, with the seams between rows forced to
    start one.
    """
    return int(np.count_nonzero(_run_starts(_ordered_rows(matrix))))


def row_conflict_degrees(
    matrix: np.ndarray,
    element_bytes: int,
    *,
    num_banks: int = 32,
    bank_bytes: int = _BANK_BYTES,
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
        matrix = _units(matrix, element_bytes, bank_bytes)
    words = _ordered_rows(matrix)
    slots = (words % num_banks).reshape(-1)
    slots += np.repeat(np.arange(0, rows * num_banks, num_banks), width)
    per_bank = np.bincount(slots[_run_starts(words)], minlength=rows * num_banks)
    return per_bank.reshape(rows, num_banks).max(axis=1)


def _pooled_rows(accesses: list, warp_size: int) -> np.ndarray:
    """One warp-row matrix of every access in the list (each a dense ``(rows, lanes)``)."""
    if len({access.shape[1] for access in accesses}) == 1:
        return warp_rows(accesses[0] if len(accesses) == 1 else np.concatenate(accesses),
                         warp_size)
    counts = np.repeat([access.shape[1] for access in accesses],
                       [access.shape[0] for access in accesses])
    lanes = np.concatenate([access.reshape(-1) for access in accesses])
    return ragged_warp_rows(lanes, counts, warp_size)


class AccessLog:
    """Base of the three launch traces: the launch's accesses, pending one scoring pass.

    A recorder appends an access — ``(rows, lanes)`` element offsets, every
    row cut into warps of ``warp_size`` lanes of its own, the whole pattern
    paid ``repeat`` times (a block-uniform access: one row, every block) —
    and :meth:`flush` commits the bank-conflict profile and the sector
    transactions of everything pending.  The counters are final once the
    launcher has returned (:func:`repro.vm.engine.run_launch` flushes); code
    that drives a block context by hand on a trace of its own calls
    :meth:`flush` before it reads them.  The state appears with the first
    access, so the dataclasses that inherit from this need no field for it.
    """

    _pending = None  # {(counter, warp_size, repeat): [accesses, masked rows]}
    _pending_slots = 0  # warp-row slots a flush would build: chunks * warp_size

    def log_shared(self, offsets: np.ndarray, element_bytes: int, warp_size: int,
                   repeat: int = 1, fresh: bool = False) -> None:
        """Append one shared-memory access; scored into ``smem_profile``.

        ``fresh`` says ``offsets`` is an int64 array nobody else holds: a
        4-byte element is one bank word, so the log keeps it as it is.
        """
        words = (offsets if fresh and element_bytes == _BANK_BYTES
                 else _units(offsets, element_bytes, _BANK_BYTES))
        self._append("smem_profile", words, warp_size, repeat)

    def log_global(self, offsets: np.ndarray, element_bytes: int, sector_bytes: int,
                   warp_size: int, is_store: bool, repeat: int = 1, valid=None) -> None:
        """Append one global-memory access; scored into the load or store transactions.

        ``valid`` (mini-Triton's mask) marks the lanes that touch memory; a
        row with none contributes nothing.  Masked rows are whole programs:
        they are deduplicated uncut, so ``warp_size`` must cover the row.
        """
        sectors = _units(offsets, element_bytes, sector_bytes)
        masked_rows = 0
        if valid is not None:
            if sectors.shape[1] > warp_size:
                raise ValueError("a masked access cannot be cut into warps")
            sectors, masked = _masked_last(sectors, valid)
            masked_rows = int(np.count_nonzero(masked))
        self._append("store_transactions" if is_store else "load_transactions",
                     sectors, warp_size, repeat, masked_rows)

    def log_global_affine(self, base: np.ndarray, pattern: np.ndarray, element_bytes: int,
                          sector_bytes: int, warp_size: int, is_store: bool) -> None:
        """Append the access whose row ``p`` is ``base[p] + pattern``, never building the rows.

        Exactly :meth:`log_global` of ``base[:, None] + pattern``: the sector
        of lane ``o`` of row ``b`` is ``(b + o)·e // u``.  With ``m =
        u/gcd(e, u)`` and ``b = s + t·m``, ``t·m·e`` is a multiple of ``u``,
        so that is ``(s + o)·e // u`` plus ``t·m·e/u`` — the same for every
        lane of the row, so it moves no lane count.  Rows of one class
        ``s = b mod m`` (one residue ``(b·e) mod u``) therefore cost the same:
        the access is a ``bincount`` of the classes and one pattern per live
        class, logged with ``repeat`` = its row count, so the flush adds
        ``Σ count_s · distinct_s``.
        """
        base = np.asarray(base, dtype=np.int64).reshape(-1)
        pattern = np.asarray(pattern, dtype=np.int64).reshape(-1)
        rows = np.bincount(_residue_classes(base, element_bytes, sector_bytes))
        live = rows.nonzero()[0]
        sectors = _units(live[:, None] + pattern, element_bytes, sector_bytes)
        counter = "store_transactions" if is_store else "load_transactions"
        for units, repeat in zip(sectors, rows[live].tolist()):
            self._append(counter, units[None, :], warp_size, repeat)

    def _append(self, counter: str, units: np.ndarray, warp_size: int, repeat: int,
                masked_rows: int = 0) -> None:
        if units.size == 0:
            return
        rows, lanes = units.shape
        slots = rows * -(-lanes // warp_size) * warp_size
        if self._pending_slots + slots > engine.SLAB_ELEMENTS:
            self.flush()
        if self._pending is None:
            self._pending = {}
        group = self._pending.setdefault((counter, warp_size, repeat), [[], 0])
        group[0].append(units)
        group[1] += masked_rows
        self._pending_slots += slots

    def flush(self) -> None:
        """Score everything pending into the counters; a no-op on an empty log."""
        pending, self._pending, self._pending_slots = self._pending, None, 0
        for (counter, warp_size, repeat), (accesses, masked_rows) in (pending or {}).items():
            matrix = _pooled_rows(accesses, warp_size)
            if counter == "smem_profile":  # the matrix holds bank words already
                self.smem_profile.record_many(row_conflict_degrees(matrix, _BANK_BYTES), repeat)
            else:
                # the masked value is one extra distinct value in each row that has it
                transactions = (distinct_total(matrix) - masked_rows) * repeat
                setattr(self, counter, getattr(self, counter) + float(transactions))
