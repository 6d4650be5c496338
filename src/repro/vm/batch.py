"""Batched trace-counter synthesis for the mini-Triton executor.

The tree-walk recorder computes, per program, "how many unique sectors
did this access touch".  :func:`row_unique_counts` computes the same
quantity for *every* program of a whole-grid batched access at once, from
sorted runs instead of per-access ``np.unique`` calls.  The result is an
exact integer count, so the synthesized trace is bit-for-bit the tree-walk
trace regardless of batching.  (The per-warp scorers of the block
substrates are in :mod:`repro.gpusim.sharedmem`.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_unique_counts"]

_SENTINEL = np.iinfo(np.int64).max


def row_unique_counts(values: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Per-row count of distinct values among the row's valid entries.

    ``values`` is ``(R, C)`` integer-like; ``valid`` (same shape, bool)
    masks entries out of the count (a fully masked row counts 0).  This
    is the batched twin of ``np.unique(row).size`` — used for
    per-program DRAM sector transactions in the mini-Triton recorder,
    where one program's whole access is deduplicated at once.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.ndim != 2:
        raise ValueError(f"row_unique_counts expects a 2-D array, got shape {v.shape}")
    rows, cols = v.shape
    if cols == 0:
        return np.zeros(rows, dtype=np.int64)
    if valid is not None:
        valid = np.broadcast_to(np.asarray(valid, dtype=bool), v.shape)
        v = np.where(valid, v, _SENTINEL)
        n_valid = valid.sum(axis=1)
    else:
        n_valid = np.full(rows, cols, dtype=np.int64)
    ordered = np.sort(v, axis=1)
    is_new = np.ones((rows, cols), dtype=bool)
    is_new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    in_valid_run = np.arange(cols) < n_valid[:, None]
    return (is_new & in_valid_run).sum(axis=1).astype(np.int64)
