"""Shared- and global-memory arrays with layout redirection and accounting.

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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..vm.split import SplitIndex, flat_index, materialised, split_access

__all__ = ["SharedArray", "GlobalArray", "SplitIndex"]


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


def _bump_global(trace, is_store: bool, count: float, nbytes: float) -> None:
    """Add one global access to the trace's load or store volume (its sectors are logged)."""
    if is_store:
        trace.store_elements += count
        trace.store_bytes += nbytes
    else:
        trace.load_elements += count
        trace.load_bytes += nbytes


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


def _per_block_values(raw: np.ndarray, batch: int, block_shape: tuple) -> np.ndarray:
    """Broadcast a store value to ``(batch,) + block_shape``.

    A value of that shape already (NW's wavefront step) is returned as it
    is.  Values of rank >= 2 whose leading extent is the batch count carry
    one slice per block; leading singleton block axes (an artifact of the
    ``(B, 1)`` block-index arrays) are squeezed until the per-block shape
    lines up.  Anything else is block-uniform and broadcasts right-aligned.
    """
    if raw.shape == (batch,) + tuple(block_shape):
        return raw
    if raw.ndim >= 2 and raw.shape[0] == batch:
        per_block = raw.shape[1:]
        while len(per_block) > len(block_shape) and per_block[0] == 1:
            per_block = per_block[1:]
            raw = raw.reshape((batch,) + per_block)
    return np.broadcast_to(raw, (batch,) + tuple(block_shape))


class SharedArray(_LayoutArray):
    """A shared-memory array addressed by logical indices through a layout.

    Allocated by :meth:`repro.minicuda.BlockContext.shared_array`, one copy per
    block of the context's pass: ``data`` is ``(B, words)``.  Accesses take
    per-thread index arrays — one row per block, or block-uniform — and each
    is logged on the launch trace, which splits it into warps and scores their
    conflict degrees.  An access decodes in one native call
    (``np.ravel_multi_index`` plus the layout table); a rejected index falls
    back to the per-axis scan, which raises the error that names it.
    :meth:`load_rows` issues many block-uniform loads in one call.
    """

    def __init__(self, context, shape: Sequence[int], dtype=np.float32, layout=None,
                 name: str = "smem"):
        super().__init__(shape, dtype, layout, name)
        self._context = context
        self.batch = context._batch
        self.data = np.zeros((self.batch, self.size), dtype=self.dtype)

    def _decode(self, indices: tuple) -> np.ndarray:
        """Physical offsets of an access, a fresh array the kernel never sees."""
        indices = tuple(map(materialised, indices))
        try:
            flat = np.ravel_multi_index(indices, self.shape)
        except (TypeError, ValueError):
            # a float, a negative or a too-large index: the scan names it
            return np.array(self._physical(indices))
        return flat if self._table is None else self._table[flat]

    def _classify(self, physical: np.ndarray) -> bool:
        """Whether an access differs per block (``True``) or is block-uniform."""
        if physical.ndim == 2 and physical.shape[0] == self.batch:
            return True
        if physical.ndim <= 1:
            return False
        raise TypeError(
            f"{self.name}: cannot classify a rank-{physical.ndim} access: expected one row "
            f"per block ({self.batch}) or a block-uniform index"
        )

    def _record(self, rows: np.ndarray, repeat: int, is_store: bool) -> None:
        """Log ``rows`` (each cut into warps of its own), paid ``repeat`` times."""
        ctx = self._context
        trace = ctx.trace
        itemsize = self.dtype.itemsize
        nbytes = float(repeat * rows.size) * itemsize
        if is_store:
            trace.smem_store_bytes += nbytes
        else:
            trace.smem_load_bytes += nbytes
        trace.log_shared(rows, itemsize, ctx.warp_size, repeat, fresh=True)

    def _access(self, indices: tuple, is_store: bool) -> tuple[np.ndarray, bool]:
        physical = self._decode(indices)
        batched = self._classify(physical)
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
            return self.data[np.arange(self.batch)[:, None], physical]
        return self.data[:, physical]

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
            flat = self._flat_shifts(indices, shifts)
            if flat is not None:
                ctx = self._context
                rows = flat.size * physical.shape[0]
                ctx.trace.smem_load_bytes += (float(self.batch * rows * physical.shape[1])
                                              * self.dtype.itemsize)
                ctx.trace.log_shared_affine(flat, physical, self.dtype.itemsize, ctx.warp_size,
                                            self.batch)
                return self.data[:, (flat[:, None, None] + physical).reshape(rows, -1)]
            # through a layout table, or out of range: decode the rows themselves
            shifted = self._decode(tuple(np.asarray(materialised(index)) + row[:, None, None]
                                         for index, row in zip(indices, shifts)))
            physical = np.broadcast_to(shifted, (shifts.shape[1],) + physical.shape)
            physical = physical.reshape(-1, physical.shape[-1])
        self._record(physical, self.batch, is_store=False)
        return self.data[:, physical]

    def _flat_shifts(self, indices: tuple, shifts: np.ndarray) -> np.ndarray | None:
        """The flat ``(shifts,)`` offsets of a shifted load without a layout table whose
        shifted rows are all in range (each axis checked on its extreme shifts), else
        ``None``."""
        if self._table is not None:
            return None
        flat = 0
        for (extent, stride), index, row in zip(self._axes, indices, shifts):
            index = np.asarray(materialised(index))
            if (not index.size or int(index.min()) + int(row.min()) < 0
                    or int(index.max()) + int(row.max()) >= extent):
                return None
            flat = flat + (row if stride == 1 else row * stride)
        return flat

    def store(self, value, *indices) -> None:
        physical, batched = self._access(indices, is_store=True)
        raw = np.asarray(value, dtype=self.dtype)
        if batched:
            values = _per_block_values(raw, self.batch, physical.shape[1:])
            self.data[np.arange(self.batch)[:, None], physical] = values
        else:
            self.data[:, physical] = _per_block_values(raw, self.batch, physical.shape)

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
    one ``pattern`` (``ctx.record_global_affine`` logs it without building
    the rows), and the gather or scatter reads ``base + pattern`` in C order
    (the last writer still wins).  Anything else takes the dense path.
    :meth:`load_rows` / :meth:`store_rows` issue many such accesses, one per
    row of shifts, in one call.
    """

    def __init__(self, array: np.ndarray, layout=None, name: str = "gmem"):
        array = np.asarray(array)
        super().__init__(array.shape, array.dtype, layout, name)
        logical_flat = np.ascontiguousarray(array).reshape(-1).copy()
        if self._table is None:
            self.data = logical_flat
        else:
            # scatter the logical contents into their physical positions
            self.data = np.empty_like(logical_flat)
            self.data[self._table] = logical_flat

    def _split(self, ctx, indices: tuple, shifts=None):
        """``(base, pattern)`` of an access that keeps its split, else ``None``
        (:func:`repro.vm.split.split_access`; a layout table keeps the dense path)."""
        if self._table is not None:
            return None
        return split_access(self.name, self._axes, indices, ctx._batch, shifts)

    def load(self, ctx, *indices) -> np.ndarray:
        split = self._split(ctx, indices)
        if split is not None:
            base, pattern = split
            ctx.record_global_affine(base, pattern, self.dtype.itemsize, is_store=False)
            return self.data[base + pattern]
        physical = self._physical(indices)
        ctx.record_global(physical, self.dtype.itemsize, is_store=False)
        return self.data[physical]

    def store(self, ctx, value, *indices) -> None:
        split = self._split(ctx, indices)
        if split is not None:
            base, pattern = split
            ctx.record_global_affine(base, pattern, self.dtype.itemsize, is_store=True)
            physical = base + pattern
        else:
            physical = self._physical(indices)
            ctx.record_global(physical, self.dtype.itemsize, is_store=True)
        self.data[physical] = np.broadcast_to(np.asarray(value, dtype=self.dtype), physical.shape)

    # -- grouped accesses: row q is the access at indices + shifts[:, q] ---------------

    def load_rows(self, ctx, *indices, shifts) -> np.ndarray:
        """Many loads in one call: ``(B, rows, lanes)``, row ``q`` what :meth:`load` at
        ``indices + shifts[:, q]`` returns (``shifts`` is ``(axes, rows)``).

        A split access is checked once on each axis's extreme shifts, logged
        as the ``B · rows`` separate accesses it stands for (each row cut into
        warps of its own) and gathered at once.  Anything else — not split,
        or some row out of range — is re-issued one row at a time, so the
        dense path and its errors are exactly those of the separate loads.
        """
        shifts = self._shift_rows(shifts)
        split = self._split(ctx, indices, shifts)
        if split is None:
            return np.stack([self.load(ctx, *row) for row in _shifted(indices, shifts)],
                            axis=-2)
        base, pattern = split
        ctx.record_global_affine(base, pattern, self.dtype.itemsize, is_store=False)
        return self.data[base[..., None] + pattern]

    def store_rows(self, ctx, value, *indices, shifts) -> None:
        """Many stores in one call: ``value[..., q, :]`` (or a value of rank <= 1, for
        every row) is :meth:`store` at ``indices + shifts[:, q]``.

        Checked, logged and re-issued as :meth:`load_rows`; the scatter writes
        row after row, each in C order, so the last writer is the separate
        stores' last writer.
        """
        shifts = self._shift_rows(shifts)
        value = np.asarray(value, dtype=self.dtype)
        split = self._split(ctx, indices, shifts)
        if split is None:
            for q, row in enumerate(_shifted(indices, shifts)):
                self.store(ctx, value[..., q, :] if value.ndim >= 2 else value, *row)
            return
        base, pattern = split
        ctx.record_global_affine(base, pattern, self.dtype.itemsize, is_store=True)
        # (rows, B, lanes) in C order, row after row: a scatter writes in memory order
        physical = np.ascontiguousarray(base.T)[..., None] + pattern
        values = np.broadcast_to(value, base.shape + pattern.shape).transpose(1, 0, 2)
        self.data[physical] = np.ascontiguousarray(values)


def _shifted(indices: tuple, shifts: np.ndarray):
    """The separate accesses of a grouped one: ``indices + shifts[:, q]`` for each row."""
    for row in shifts.T.tolist():
        yield tuple(index + shift for index, shift in zip(indices, row))
