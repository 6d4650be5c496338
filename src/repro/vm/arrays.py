"""Shared- and global-memory arrays of the block runtime, with layout redirection
and accounting.

``SharedArray`` is the reproduction of the paper's NW integration style: the
kernel keeps addressing the buffer with its *logical* multi-dimensional
indices, and the array redirects each access through a LEGO layout's
``apply`` bijection (the CUDA wrapper-class trick of Section V-B).  Every
access goes to the launch trace's log, which scores each warp for bank
conflicts against the 32-bank model — exactly the effect the anti-diagonal
layout removes.

``GlobalArray`` wraps a flat NumPy buffer and logs its accesses for per-warp
sector-transaction (coalescing) analysis.  An index that is still
``block + lane`` (a :class:`~repro.vm.split.SplitIndex`) is checked, logged and
gathered without building the per-axis ``(B, T)`` arrays.  Both arrays take
grouped accesses — many rows in one call, each row an access shifted by whole
elements — that the trace records as the separate accesses they stand for.
mini-CUDA kernels index both directly; the MLIR interpreter runs
``memref.load`` / ``memref.store`` on them (a workgroup memref is a
``SharedArray``, a kernel-argument memref a ``GlobalArray`` over the
caller's buffer).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpusim.sharedmem import shift_classes
from ..vm.split import flat_index, materialised, per_block, shifted_flat_index, split_access

__all__ = ["SharedArray", "GlobalArray"]


def _layout_table(layout, shape: tuple[int, ...]) -> np.ndarray | None:
    """Precompute ``logical flat -> physical flat`` for a concrete layout."""
    if layout is None:
        return None
    table = layout.permutation_vector()
    expected = 1
    for extent in shape:
        expected *= extent
    if table.size != expected:
        raise ValueError(
            f"layout maps {table.size} elements but the array has {expected}"
        )
    return table


class _LayoutArray:
    """Logical indexing through a layout table, shared by every array here.

    ``shape`` is the logical shape the kernel indexes with; ``layout`` (a
    concrete :class:`repro.core.GroupBy`, or ``None`` for row-major) maps the
    logical index to the physical word the element lives in.  Subclasses
    own ``data`` — physical words along the last axis — and the recording.
    """

    def __init__(self, shape: Sequence[int], dtype, layout, name: str):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.name = name
        self.layout = layout
        self._table = _layout_table(layout, self.shape)
        self.size = int(np.prod(self.shape, dtype=np.int64))
        # row-major strides of the logical shape: the flat index is sum(index * stride)
        strides = [1] * len(self.shape)
        for axis in range(len(self.shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self.shape[axis + 1]
        self._axes = tuple(zip(self.shape, strides))

    @property
    def nbytes(self) -> int:
        """Bytes of one logical copy (per block, for a shared array)."""
        return self.size * self.dtype.itemsize

    def _physical(self, indices: tuple) -> np.ndarray:
        """Map per-thread logical indices to physical element offsets, in one pass
        (every axis checked by :func:`repro.vm.split.flat_index`)."""
        if len(indices) != len(self.shape):
            raise ValueError(
                f"{self.name} has {len(self.shape)} logical dimensions, got {len(indices)} indices"
            )
        flat = flat_index(self.name, self._axes, indices)
        return flat if self._table is None else self._table[flat]

    def _shift_rows(self, shifts) -> np.ndarray:
        """``shifts`` as the ``(axes, rows)`` int64 array a grouped access takes."""
        shifts = np.asarray(shifts)
        if shifts.dtype.kind not in "iu" or shifts.ndim != 2 or len(shifts) != len(self.shape):
            raise TypeError(f"{self.name}: shifts must be one integer row of shifts per axis "
                            f"({len(self.shape)}), got a {shifts.dtype} array of shape "
                            f"{shifts.shape}")
        return shifts.astype(np.int64, copy=False)

    def to_numpy(self) -> np.ndarray:
        """The logical-view contents (undoing the layout), as a dense array."""
        shape = self.data.shape[:-1] + self.shape
        if self._table is None:
            return self.data.reshape(shape).copy()
        return self.data[..., self._table].reshape(shape)

    def __repr__(self) -> str:
        layout_name = "row-major" if self.layout is None else repr(self.layout)
        return f"{type(self).__name__}({self.name}, shape={self.shape}, layout={layout_name})"


def _per_block_values(name: str, raw: np.ndarray, batch: int, block_shape: tuple) -> np.ndarray:
    """Broadcast a store value to ``(batch,) + block_shape``.

    A value of that shape already (NW's wavefront step) is returned as it
    is.  Values of rank >= 2 whose leading extent is the batch count carry
    one slice per block; leading singleton block axes (an artifact of the
    ``(B, 1)`` block-index arrays) are squeezed until the per-block shape
    lines up.  Anything else is block-uniform and broadcasts right-aligned;
    a value that does not (lanes stored at one element) is a ``TypeError``
    naming the array.
    """
    if raw.shape == (batch,) + tuple(block_shape):
        return raw
    if raw.ndim >= 2 and raw.shape[0] == batch:
        per_block = raw.shape[1:]
        while len(per_block) > len(block_shape) and per_block[0] == 1:
            per_block = per_block[1:]
            raw = raw.reshape((batch,) + per_block)
    try:
        return np.broadcast_to(raw, (batch,) + tuple(block_shape))
    except ValueError:
        raise TypeError(f"{name}: cannot store a value of shape {raw.shape} at {tuple(block_shape)} "
                        f"lanes in each of {batch} blocks") from None


class SharedArray(_LayoutArray):
    """A shared-memory array addressed by logical indices through a layout.

    Allocated by :meth:`repro.vm.blocks.BlockContext.shared_array`, one copy per
    block of the context's pass: ``data`` is ``(B, words)``.  Accesses take
    per-thread index arrays — one row per block, or block-uniform — and each
    is logged on the launch trace, which splits it into warps and scores their
    conflict degrees.  A per-block access reads or writes the flat buffer at
    ``physical + block * size`` (the offsets are range-checked, so none
    reaches another block's words), a block-uniform store at every block's
    ``physical + block * size`` in one scatter (C order: the last lane of a
    row on one word wins, as it would in each block), and a block-uniform
    load is one ``take`` along the words.  An access decodes in one native
    call (``np.ravel_multi_index`` plus the layout table); a rejected index falls
    back to the per-axis scan, which raises the error that names it.
    :meth:`load_rows` issues many block-uniform loads in one call and
    :meth:`store_rows` many block-uniform stores.
    """

    def __init__(self, context, shape: Sequence[int], dtype=np.float32, layout=None,
                 name: str = "smem"):
        super().__init__(shape, dtype, layout, name)
        self._context = context
        self.batch = context._batch
        self.data = np.zeros((self.batch, self.size), dtype=self.dtype)
        # one flat buffer: block b's physical word w is word w + b * size of the view
        self._flat = self.data.reshape(-1)
        self._block_words = np.arange(0, self._flat.size, self.size or 1).reshape(-1, 1)

    def _decode(self, indices: tuple) -> np.ndarray:
        """Physical offsets of an access, a fresh array the kernel never sees."""
        indices = tuple(map(materialised, indices))
        try:
            flat = np.ravel_multi_index(indices, self.shape)
        except (TypeError, ValueError):
            # a float, a negative or a too-large index: the scan names it
            return np.array(self._physical(indices))
        return flat if self._table is None else self._table[flat]

    def _record(self, rows: np.ndarray, repeat: int, is_store: bool) -> None:
        """Log ``rows`` (each cut into warps of its own), paid ``repeat`` times."""
        ctx = self._context
        itemsize = self.dtype.itemsize
        ctx.trace.add_smem_bytes(float(repeat * rows.size) * itemsize, is_store)
        ctx.trace.log_shared(rows, itemsize, ctx.warp_size, repeat, fresh=True)

    def _access(self, indices: tuple, is_store: bool) -> tuple[np.ndarray, bool]:
        physical = self._decode(indices)
        if physical.ndim == 0:
            # all-scalar indices are one lane: a load is one value per block, (B, 1)
            physical = physical.reshape(1)
        batched = per_block(self.name, physical, self.batch)
        # block-uniform: every block repeats the one pattern
        if batched:
            self._record(physical, 1, is_store)
        else:
            self._record(physical.reshape(1, -1), self.batch, is_store)
        return physical, batched

    # -- accesses -----------------------------------------------------------------

    def load(self, *indices) -> np.ndarray:
        physical, batched = self._access(indices, is_store=False)
        if batched:
            return self._flat.take(physical + self._block_words)
        return self.data.take(physical, axis=1)

    def load_rows(self, *indices, shifts=None) -> np.ndarray:
        """Many block-uniform loads in one call: ``(B, instructions, lanes)``.

        The indices broadcast to ``(patterns, lanes)``; row ``r`` of the
        result is what ``load`` of row ``r`` returns, and the trace records
        exactly those separate loads — each row cut into warps of its own,
        paid by every block.  ``shifts`` (``(axes, shifts)``, one row of
        shifts per axis) issues every pattern at every shift: row ``s ·
        patterns + p`` is pattern ``p`` at ``indices + shifts[:, s]``.  Without
        a layout table a shift moves each lane of a row by one flat amount,
        so the trace scores each pattern once per shift residue class
        (:meth:`~repro.gpusim.sharedmem.AccessLog.log_shared_affine`); every
        shifted row is still checked, on the extreme shifts of each axis.  A
        per-block index (a rank-3 ``(B, instructions, lanes)`` pattern) or any
        rank but 2 is a ``TypeError``; a per-block access is a :meth:`load`.
        """
        physical = self._decode(indices)
        if physical.ndim != 2:
            raise TypeError(
                f"{self.name}: load_rows takes one block-uniform (instructions, lanes) "
                f"pattern, got a rank-{physical.ndim} access"
            )
        if shifts is not None:
            shifts = self._shift_rows(shifts)
            dense = (None if self._table is not None
                     else shifted_flat_index(self._axes, indices, shifts))
            if dense is not None:
                moves = dense[1]
                ctx = self._context
                rows = moves.size * physical.shape[0]
                ctx.trace.add_smem_bytes(float(self.batch * rows * physical.shape[1])
                                         * self.dtype.itemsize, is_store=False)
                ctx.trace.log_shared_affine(moves, physical, self.dtype.itemsize, ctx.warp_size,
                                            self.batch)
                return self.data.take((moves[:, None, None] + physical).reshape(rows, -1),
                                      axis=1)
            # through a layout table, or out of range: decode the rows themselves
            shifted = self._decode(tuple(np.asarray(materialised(index)) + row[:, None, None]
                                         for index, row in zip(indices, shifts)))
            physical = np.broadcast_to(shifted, (shifts.shape[1],) + physical.shape)
            physical = physical.reshape(-1, physical.shape[-1])
        self._record(physical, self.batch, is_store=False)
        return self.data.take(physical, axis=1)

    def store(self, value, *indices) -> None:
        physical, batched = self._access(indices, is_store=True)
        raw = np.asarray(value, dtype=self.dtype)
        lanes = physical.shape[1:] if batched else physical.shape
        self._flat[physical + self._block_words] = _per_block_values(self.name, raw, self.batch,
                                                                     lanes)

    def store_rows(self, value, *indices) -> None:
        """Many block-uniform stores in one call, the twin of :meth:`load_rows`.

        The indices broadcast to ``(rows, lanes)`` and ``value`` to ``(B, rows,
        lanes)``: row ``r`` is what :meth:`store` of ``value[..., r, :]`` at row
        ``r`` writes.  The pattern is decoded once and logged once as exactly
        those separate stores (each row cut into warps of its own, paid by every
        block); the scatter writes row after row, each in C order, so the last
        writer is the separate stores' last writer.  Any rank but 2 is a
        ``TypeError``; a pattern with a row out of range is re-issued one
        :meth:`store` per row, so the first bad row raises its own error.
        """
        indices = tuple(map(materialised, indices))
        shape = np.broadcast_shapes(*map(np.shape, indices))
        if len(shape) != 2:
            raise TypeError(f"{self.name}: store_rows takes one block-uniform (rows, lanes) "
                            f"pattern, got a rank-{len(shape)} access")
        values = _per_block_values(self.name, np.asarray(value, dtype=self.dtype), self.batch,
                                   shape)
        try:
            physical = self._decode(indices)
        except IndexError:
            for row, *index in zip(values.swapaxes(0, 1), *np.broadcast_arrays(*indices)):
                self.store(row, *index)
            return
        self._record(physical, self.batch, is_store=True)
        self._flat[physical + self._block_words[..., None]] = values

    # ``buf[i, j]`` sugar used by the ported Rodinia kernels
    def __getitem__(self, indices):
        if not isinstance(indices, tuple):
            indices = (indices,)
        return self.load(*indices)

    def __setitem__(self, indices, value):
        if not isinstance(indices, tuple):
            indices = (indices,)
        self.store(value, *indices)


class GlobalArray(_LayoutArray):
    """A global-memory array with per-warp sector-transaction accounting.

    ``layout`` (optional, concrete) redirects logical indices to physical
    positions exactly as for :class:`SharedArray` — this is how the brick
    data layout is applied to the stencil grids without touching kernel code.
    Each access is logged by the kernel's context (``ctx``), at its launch's
    warp width and DRAM sector size.

    An access whose indices are all :class:`SplitIndex` values, some with a
    block part and some with a lane part, on an array without a layout
    table, never builds the per-axis arrays: each axis is checked on
    ``min/max(block) + min/max(lane)`` (the extrema of the dense index, so
    the errors read the same), the flat index is one ``base (B, 1)`` plus
    one ``pattern`` (``log_global_affine`` logs it without building the
    rows), and the gather (``take``) or scatter reads ``base + pattern`` in C
    order (the last writer still wins).  Anything else takes the dense path.
    :meth:`load_rows` / :meth:`store_rows` issue many accesses, one per row of
    shifts, in one call.  A split one is folded into the bases.  A dense one
    on an array without a layout table is decoded once
    (:func:`~repro.vm.split.shifted_flat_index`: each axis checked on its
    index's extrema plus its extreme shifts) and, since a shift of whole
    elements moves every lane alike, logged once per sector residue class of
    the rows' flat shifts, ``repeat`` = the class's row count
    (:func:`~repro.gpusim.sharedmem.shift_classes`).  Either is gathered a
    row at a time into one array, or scattered row after row in C order at
    once.  A layout table (a brick layout is not shift-invariant) or a row
    out of range re-issues the rows one at a time, so their errors are those
    of the separate accesses.
    :meth:`load` with ``runs`` issues back-to-back accesses of ``runs[k]``
    lanes each (NW's reference block, one run per anti-diagonal), each cut
    into warps of its own.
    """

    def __init__(self, array: np.ndarray, layout=None, name: str = "gmem"):
        array = np.asarray(array)
        super().__init__(array.shape, array.dtype, layout, name)
        logical_flat = np.ascontiguousarray(array).reshape(-1)
        if self._table is None:
            self.data = logical_flat.copy()
        else:
            # scatter the logical contents into their physical positions
            self.data = np.empty_like(logical_flat)
            self.data[self._table] = logical_flat

    @classmethod
    def over(cls, buffer: np.ndarray, shape: Sequence[int], name: str) -> "GlobalArray":
        """A row-major array of logical ``shape`` whose ``data`` is the flat ``buffer``
        itself: stores write through to the caller's memory, nothing is copied."""
        array = cls.__new__(cls)
        _LayoutArray.__init__(array, shape, buffer.dtype, None, name)
        array.data = buffer
        return array

    def _split(self, ctx, indices: tuple, shifts=None):
        """``(base, pattern)`` of an access that keeps its split, else ``None``
        (:func:`repro.vm.split.split_access`; a layout table keeps the dense path)."""
        if self._table is not None:
            return None
        return split_access(self.name, self._axes, indices, ctx._batch, shifts)

    def load(self, ctx, *indices, runs=None) -> np.ndarray:
        if runs is not None:
            return self._load_runs(ctx, indices, np.asarray(runs, dtype=np.int64))
        split = self._split(ctx, indices)
        if split is not None:
            base, pattern = split
            ctx.trace.log_global_affine(base, pattern, self.dtype.itemsize, ctx.warp_size, False)
            return self.data.take(base + pattern)
        physical = self._physical(indices)
        ctx.record_global(self.name, physical, self.dtype.itemsize, is_store=False)
        return self.data.take(physical)

    def _load_runs(self, ctx, indices: tuple, runs: np.ndarray) -> np.ndarray:
        """:meth:`load` with ``runs``: the loads of the next ``runs[k]`` lanes each, split
        and logged as those loads (each run cut into warps of its own), else re-issued
        one run at a time, so the dense path and its errors are exactly theirs."""
        lanes = np.broadcast_shapes(*map(np.shape, indices))[-1:]
        if runs.ndim != 1 or lanes != (int(runs.sum()),) or runs.min(initial=0) < 0:
            raise ValueError(f"{self.name}: runs {runs.tolist()} do not cut {lanes} lanes")
        try:
            split = self._split(ctx, indices)
        except IndexError:
            split = None  # the run out of range raises below, as its own load would
        if split is None:
            dense = np.broadcast_arrays(*map(materialised, indices))
            return np.concatenate([self.load(ctx, *(index[..., end - run:end] for index in dense))
                                   for run, end in zip(runs.tolist(), np.cumsum(runs).tolist())],
                                  axis=-1)
        base, pattern = split
        ctx.trace.log_global_affine(base, pattern, self.dtype.itemsize, ctx.warp_size, False,
                                    runs)
        return self.data.take(base + pattern)

    def store(self, ctx, value, *indices) -> None:
        split = self._split(ctx, indices)
        if split is not None:
            base, pattern = split
            ctx.trace.log_global_affine(base, pattern, self.dtype.itemsize, ctx.warp_size, True)
            physical = base + pattern
        else:
            physical = self._physical(indices)
            ctx.record_global(self.name, physical, self.dtype.itemsize, is_store=True)
        self.data[physical] = np.broadcast_to(np.asarray(value, dtype=self.dtype), physical.shape)

    # -- grouped accesses: row q is the access at indices + shifts[:, q] ---------------

    def load_rows(self, ctx, *indices, shifts) -> np.ndarray:
        """Many loads in one call: ``(B, rows, lanes)``, row ``q`` what :meth:`load` at
        ``indices + shifts[:, q]`` returns (``shifts`` is ``(axes, rows)``).

        Checked once, logged as the separate loads and gathered into one
        array, split or dense (see the class); through a layout table or with
        a row out of range, re-issued one row at a time.
        """
        shifts = self._shift_rows(shifts)
        split = self._split(ctx, indices, shifts)
        if split is not None:
            base, pattern = split
            ctx.trace.log_global_affine(base, pattern, self.dtype.itemsize, ctx.warp_size,
                                        False)
            return self._gather_rows(pattern, base.T[..., None])
        dense = self._dense_rows(indices, shifts)
        if dense is None:
            return np.stack([self.load(ctx, *row) for row in _shifted(indices, shifts)],
                            axis=-2)
        flat, moves = dense
        self._record_rows(ctx, flat, moves, is_store=False)
        return self._gather_rows(flat, moves.tolist())

    def store_rows(self, ctx, value, *indices, shifts) -> None:
        """Many stores in one call: ``value[..., q, :]`` (or a value of rank <= 1, for
        every row) is :meth:`store` at ``indices + shifts[:, q]``.

        Checked, logged and re-issued as :meth:`load_rows` (a dense value that
        some row's store would refuse re-issues the rows too); the scatter
        writes row after row, each in C order, so the last writer is the
        separate stores' last writer.
        """
        shifts = self._shift_rows(shifts)
        value = np.asarray(value, dtype=self.dtype)
        split = self._split(ctx, indices, shifts)
        if split is not None:
            base, pattern = split
            ctx.trace.log_global_affine(base, pattern, self.dtype.itemsize, ctx.warp_size,
                                        True)
            # (rows, B, lanes) in C order, row after row: a scatter writes in memory order
            physical = np.ascontiguousarray(base.T)[..., None] + pattern
            values = np.broadcast_to(value, base.shape + pattern.shape).transpose(1, 0, 2)
            self.data[physical] = np.ascontiguousarray(values)
            return
        dense = self._dense_rows(indices, shifts)
        values = None if dense is None else _row_values(value, dense[0].shape, dense[1].size)
        if values is None:
            for q, row in enumerate(_shifted(indices, shifts)):
                self.store(ctx, value[..., q, :] if value.ndim >= 2 else value, *row)
            return
        flat, moves = dense
        self._record_rows(ctx, flat, moves, is_store=True)
        self.data[moves.reshape((-1,) + (1,) * flat.ndim) + flat] = values

    def _gather_rows(self, offsets: np.ndarray, moves) -> np.ndarray:
        """``data`` at ``offsets + moves[q]`` for every row ``q``, as ``(..., rows, lanes)``.

        Gathered a row at a time into one array, so the index of a whole
        grouped access (``rows`` times a pass's lanes) is never built.
        """
        shape = np.broadcast_shapes(offsets.shape, np.shape(moves[0]))
        rows = np.empty((len(moves),) + shape, dtype=self.dtype)
        for q, move in enumerate(moves):
            rows[q] = self.data.take(offsets + move)
        return np.moveaxis(rows, 0, -2)

    def _dense_rows(self, indices: tuple, shifts: np.ndarray):
        """``(flat, moves)`` of a dense grouped access taken whole (row ``q`` at ``flat +
        moves[q]``), else ``None``: a layout table, a bad row, or all-scalar indices."""
        if self._table is not None or len(indices) != len(self.shape):
            return None
        dense = shifted_flat_index(self._axes, indices, shifts)
        return None if dense is None or dense[0].ndim == 0 else dense

    def _record_rows(self, ctx, flat: np.ndarray, moves: np.ndarray, is_store: bool) -> None:
        """Log the rows ``flat + moves[q]``: one per sector residue class of the moves."""
        itemsize = self.dtype.itemsize
        for move, count in shift_classes(moves, itemsize, ctx.trace.sector_bytes):
            ctx.record_global(self.name, flat + move, itemsize, is_store, count)


def _row_values(value: np.ndarray, shape: tuple, rows: int) -> np.ndarray | None:
    """A grouped store's values, ``(rows,) + shape``: ``value[..., q, :]`` is row ``q``'s
    (a value of rank <= 1 every row's); ``None`` where some row's store would refuse it."""
    try:
        if value.ndim < 2:
            return np.broadcast_to(value, (rows,) + shape)
        if value.shape[-2] != rows:
            return None
        return np.moveaxis(np.broadcast_to(value, shape[:-1] + (rows,) + shape[-1:]), -2, 0)
    except ValueError:
        return None


def _shifted(indices: tuple, shifts: np.ndarray):
    """The separate accesses of a grouped one: ``indices + shifts[:, q]`` for each row."""
    for row in shifts.T.tolist():
        yield tuple(index + shift for index, shift in zip(indices, row))
