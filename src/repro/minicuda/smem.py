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

from ..core.bijection import flatten_index

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

    @property
    def nbytes(self) -> int:
        """Bytes of one logical copy (per block, for the batched shared array)."""
        return self.size * self.dtype.itemsize

    def _physical(self, indices: tuple) -> np.ndarray:
        """Map per-thread logical indices to physical element offsets."""
        if len(indices) != len(self.shape):
            raise ValueError(
                f"{self.name} has {len(self.shape)} logical dimensions, got {len(indices)} indices"
            )
        # each index array is checked as given (a broadcast has the same
        # extrema); flatten_index's arithmetic does the broadcasting
        arrays = [np.asarray(idx, dtype=np.int64) for idx in indices]
        for axis, (arr, extent) in enumerate(zip(arrays, self.shape)):
            if arr.size and (arr.min() < 0 or arr.max() >= extent):
                raise IndexError(
                    f"{self.name}: axis {axis} index out of range [0, {extent}) "
                    f"(got [{arr.min()}, {arr.max()}])"
                )
        logical_flat = np.asarray(flatten_index(arrays, self.shape), dtype=np.int64)
        if self._table is None:
            return logical_flat
        return self._table[logical_flat]

    def to_numpy(self) -> np.ndarray:
        """The logical-view contents (undoing the layout), as a dense array."""
        shape = self.data.shape[:-1] + self.shape
        if self._table is None:
            return self.data.reshape(shape).copy()
        return self.data[..., self._table].reshape(shape)

    def __repr__(self) -> str:
        layout_name = "row-major" if self.layout is None else repr(self.layout)
        return f"{type(self).__name__}({self.name}, shape={self.shape}, layout={layout_name})"


class SharedArray(_LayoutArray):
    """A shared-memory array addressed by logical indices through a layout.

    Accesses take per-thread NumPy index arrays; each access is logged on the
    launch trace, which splits it into warps and scores their conflict degrees.
    """

    def __init__(self, shape: Sequence[int], dtype=np.float32, layout=None, name: str = "smem", context=None):
        super().__init__(shape, dtype, layout, name)
        self._context = context
        self.data = self._allocate()

    def _allocate(self) -> np.ndarray:
        return np.zeros(self.size, dtype=self.dtype)

    def _record(self, physical: np.ndarray, is_store: bool) -> None:
        ctx = self._context
        if ctx is None:
            return
        trace = ctx.trace
        flat = physical.reshape(-1)
        nbytes = float(flat.size) * self.dtype.itemsize
        if is_store:
            trace.smem_store_bytes += nbytes
        else:
            trace.smem_load_bytes += nbytes
        # bank conflicts are scored per warp over the block's thread order
        trace.log_shared(flat[None, :], self.dtype.itemsize, getattr(ctx, "warp_size", 32))

    # -- accesses -----------------------------------------------------------------

    def load(self, *indices) -> np.ndarray:
        physical = self._physical(indices)
        self._record(physical, is_store=False)
        return self.data[physical]

    def store(self, value, *indices) -> None:
        physical = self._physical(indices)
        self._record(physical, is_store=True)
        self.data[physical] = np.broadcast_to(np.asarray(value, dtype=self.dtype), physical.shape)

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
    """

    def __init__(self, array: np.ndarray, layout=None, name: str = "gmem", sector_bytes: int = 32):
        array = np.asarray(array)
        super().__init__(array.shape, array.dtype, layout, name)
        self.sector_bytes = sector_bytes
        logical_flat = np.ascontiguousarray(array).reshape(-1).copy()
        if self._table is None:
            self.data = logical_flat
        else:
            # scatter the logical contents into their physical positions
            self.data = np.empty_like(logical_flat)
            self.data[self._table] = logical_flat

    def _record(self, ctx, physical: np.ndarray, is_store: bool) -> None:
        if ctx is None:
            return
        # batched contexts (repro.vm.cuda) synthesize the same counters from
        # the whole-grid index array instead of per-warp Python loops
        recorder = getattr(ctx, "record_global", None)
        if recorder is not None:
            recorder(physical, self.dtype.itemsize, is_store, self.sector_bytes)
            return
        trace = ctx.trace
        flat = physical.reshape(-1)
        element_bytes = self.dtype.itemsize
        count = float(flat.size)
        # count sector transactions per warp; warp width and sector
        # granularity come from the launch context (i.e. the DeviceSpec)
        # when it provides them, so recording matches the device model
        sector_bytes = getattr(ctx, "sector_bytes", None) or self.sector_bytes
        trace.log_global(flat[None, :], element_bytes, sector_bytes,
                         getattr(ctx, "warp_size", 32), is_store)
        _bump_global(trace, is_store, count, count * element_bytes)

    def load(self, ctx, *indices) -> np.ndarray:
        physical = self._physical(indices)
        self._record(ctx, physical, is_store=False)
        return self.data[physical]

    def store(self, ctx, value, *indices) -> None:
        physical = self._physical(indices)
        self._record(ctx, physical, is_store=True)
        self.data[physical] = np.broadcast_to(np.asarray(value, dtype=self.dtype), physical.shape)
