"""Shared- and global-memory arrays with layout redirection and accounting.

``SharedArray`` is the reproduction of the paper's NW integration style: the
kernel keeps addressing the buffer with its *logical* multi-dimensional
indices, and the array redirects each access through a LEGO layout's
``apply`` bijection (the CUDA wrapper-class trick of Section V-B).  Every
access goes to the launch trace's log, which scores each warp for bank
conflicts against the 32-bank model — exactly the effect the anti-diagonal
layout removes.

``GlobalArray`` wraps a flat NumPy buffer and logs its accesses for per-warp
sector-transaction (coalescing) analysis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
        """Map per-thread logical indices to physical element offsets, in one pass.

        Each index is checked as given (a broadcast has the same extrema) by
        one reduction: viewed unsigned, a negative index is larger than any
        extent.  Python ints are checked without NumPy; an index that is not
        an integer (CUDA refuses a float subscript) is a ``TypeError``.
        """
        if len(indices) != len(self.shape):
            raise ValueError(
                f"{self.name} has {len(self.shape)} logical dimensions, got {len(indices)} indices"
            )
        flat = None
        for axis, ((extent, stride), index) in enumerate(zip(self._axes, indices)):
            if type(index) is int:
                bad = not 0 <= index < extent
            else:
                index = np.asarray(index)
                if index.dtype != np.int64:
                    if index.dtype.kind not in "biu":
                        raise TypeError(f"{self.name}: axis {axis} index must be an integer, "
                                        f"got {index.dtype}")
                    index = index.astype(np.int64)
                bad = index.size and index.view(np.uint64).max() >= extent
            if bad:
                raise IndexError(f"{self.name}: axis {axis} index out of range [0, {extent}) "
                                 f"(got [{np.min(index)}, {np.max(index)}])")
            term = index if stride == 1 else index * stride
            flat = term if flat is None else flat + term
        flat = np.asarray(0 if flat is None else flat, dtype=np.int64)
        return flat if self._table is None else self._table[flat]

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

    Values of rank >= 2 whose leading extent is the batch count carry one
    slice per block; leading singleton block axes (an artifact of the
    ``(B, 1)`` block-index arrays) are squeezed until the per-block shape
    lines up.  Anything else is block-uniform and broadcasts right-aligned.
    """
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

    def load_rows(self, *indices) -> np.ndarray:
        """Many block-uniform loads in one call: ``(B, instructions, lanes)``.

        The indices broadcast to ``(instructions, lanes)``; row ``r`` of the
        result is what ``load`` of row ``r`` returns, and the trace records
        exactly those separate loads — each row cut into warps of its own,
        paid by every block.  A per-block index (a rank-3 ``(B, instructions,
        lanes)`` pattern) or any rank but 2 is a ``TypeError``; a per-block
        access is a :meth:`load`.
        """
        physical = self._decode(indices)
        if physical.ndim != 2:
            raise TypeError(
                f"{self.name}: load_rows takes one block-uniform (instructions, lanes) "
                f"pattern, got a rank-{physical.ndim} access"
            )
        self._record(physical, self.batch, is_store=False)
        return self.data[:, physical]

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

    def load(self, ctx, *indices) -> np.ndarray:
        physical = self._physical(indices)
        ctx.record_global(physical, self.dtype.itemsize, is_store=False)
        return self.data[physical]

    def store(self, ctx, value, *indices) -> None:
        physical = self._physical(indices)
        ctx.record_global(physical, self.dtype.itemsize, is_store=True)
        self.data[physical] = np.broadcast_to(np.asarray(value, dtype=self.dtype), physical.shape)
