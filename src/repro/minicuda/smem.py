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
``block + lane`` (a :class:`SplitIndex`) is checked, logged and gathered
without building the per-axis ``(B, T)`` arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SharedArray", "GlobalArray", "SplitIndex"]


_LOW, _HIGH = -(1 << 63), (1 << 63) - 1  # the int64 range


def _wrapped(value: int) -> int:
    """``value`` as int64 arithmetic leaves it: reduced mod 2^64 into the signed range."""
    return value if _LOW <= value <= _HIGH else (value - _LOW) % (1 << 64) + _LOW


def _scaled(span, factor: int):
    """The extrema of a part multiplied by ``factor`` (``None`` once they leave int64,
    where only the wrapped array can say what it holds)."""
    if span is None:
        return None
    low, high = span[0] * factor, span[1] * factor
    if low > high:
        low, high = high, low
    return (low, high) if _LOW <= low and high <= _HIGH else None


def _extrema(part: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of an int64 array as Python ints (a short one sorted as a list,
    cheaper than two reductions)."""
    if part.size <= 64:
        values = sorted(part.reshape(-1).tolist())
        return values[0], values[-1]
    return int(part.min()), int(part.max())


def _summed(x, x_span, y, y_span):
    """Sum of two parts (either may be ``None``) and the sum's extrema if known."""
    if y is None:
        return x, x_span
    if x is None:
        return y, y_span
    return x + y, None


class SplitIndex:
    """An int64 index ``block + lane + offset`` that remembers its split.

    ``block`` is a per-block ``(B, 1)`` array, ``lane`` a per-lane array of
    rank 1 (either may be ``None``) and ``offset`` a Python int.
    ``ctx.blockIdx.x/y/z`` and ``ctx.tx/ty/tz`` are split indices, and they
    stay split only under ``+``/``-`` with Python ints, with int64 arrays of
    rank <= 1 (copied on entry unless they own read-only data) and with each
    other, and under ``*`` by a Python int.  Any other use — comparisons, ``//``/``%``, ``np.maximum``,
    slicing, ``.copy()``, float operands, rank >= 2 arrays, ``ctx.compact``
    — reads :attr:`data`, the materialised read-only array, equal to the
    op-by-op int64 array (int64 wraps alike in either association).
    :class:`GlobalArray` reads the split itself.  The extrema of each part
    are taken once and follow the int arithmetic, so checking ``ii + dz``
    reduces nothing.
    """

    __slots__ = ("block", "lane", "offset", "_block_span", "_lane_span", "_data")
    __hash__ = None

    def __init__(self, block, lane, offset: int = 0, block_span=None, lane_span=None):
        self.block = block
        self.lane = lane
        self.offset = offset
        self._block_span = block_span
        self._lane_span = lane_span
        self._data = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            block, lane = self.block, self.lane
            data = block if lane is None else lane if block is None else block + lane
            if self.offset:
                data = data + self.offset
            data.flags.writeable = False  # a write would leave the split behind
            self._data = data
        return self._data

    def block_span(self) -> tuple[int, int]:
        """``(min, max)`` of the block part, as Python ints."""
        if self._block_span is None:
            self._block_span = _extrema(self.block)
        return self._block_span

    def lane_span(self) -> tuple[int, int]:
        """``(min, max)`` of the lane part, as Python ints."""
        if self._lane_span is None:
            self._lane_span = _extrema(self.lane)
        return self._lane_span

    @property
    def shape(self) -> tuple:
        # what np.shape() reads: the parts answer without building the array
        if self.block is None or self.lane is None:
            return (self.lane if self.block is None else self.block).shape
        return np.broadcast_shapes(self.block.shape, self.lane.shape)

    dtype = np.dtype(np.int64)

    def _times(self, factor: int) -> "SplitIndex":
        if factor == 1:
            return self
        block, lane = self.block, self.lane
        return SplitIndex(None if block is None else block * factor,
                          None if lane is None else lane * factor,
                          _wrapped(self.offset * factor),
                          _scaled(self._block_span, factor), _scaled(self._lane_span, factor))

    def __array__(self, dtype=None, copy=None):
        data = self.data
        if dtype is not None and np.dtype(dtype) != data.dtype:
            return data.astype(dtype)
        return data.copy() if copy else data

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and len(inputs) == 2 and not kwargs:
            kept = _split2(ufunc, *inputs)
            if kept is not None:
                return kept
        inputs = tuple(_materialised(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(_materialised(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __getattr__(self, name):
        # every other ndarray attribute (reshape, copy, astype, min, ...) reads the array
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.data, name)

    def __repr__(self) -> str:
        return repr(self.data)


def _materialised(x):
    return x.data if isinstance(x, SplitIndex) else x


def _parts(x):
    """``(block, lane, offset, block_span, lane_span)`` of an operand that may join a
    split index, else ``None``."""
    if type(x) is SplitIndex:
        return x.block, x.lane, x.offset, x._block_span, x._lane_span
    if type(x) is np.ndarray and x.dtype == np.int64 and x.ndim <= 1:
        if x.ndim == 0:
            return None, None, int(x), None, None
        # the split must not follow a later in-place update of x: only an
        # array that owns its read-only data is kept as it is
        lane = x if x.base is None and not x.flags.writeable else x.copy()
        return None, lane, 0, None, None
    if type(x) is int and _LOW <= x <= _HIGH:
        return None, None, x, None, None
    return None


def _split2(op, a, b) -> SplitIndex | None:
    """``op(a, b)`` kept split, or ``None`` (the caller reads the arrays)."""
    if op is np.multiply:
        if type(b) is int and type(a) is SplitIndex and _LOW <= b <= _HIGH:
            return a._times(b)
        if type(a) is int and type(b) is SplitIndex and _LOW <= a <= _HIGH:
            return b._times(a)
        return None
    if op is not np.add and op is not np.subtract:
        return None
    a, b = _parts(a), _parts(b)
    if a is None or b is None:
        return None
    if op is np.subtract:
        b = (None if b[0] is None else -b[0], None if b[1] is None else -b[1], -b[2],
             _scaled(b[3], -1), _scaled(b[4], -1))
    block, block_span = _summed(a[0], a[3], b[0], b[3])
    lane, lane_span = _summed(a[1], a[4], b[1], b[4])
    return SplitIndex(block, lane, _wrapped(a[2] + b[2]), block_span, lane_span)


def _arithmetic(op, reflected: bool = False):
    def method(self, other):
        a, b = (other, self) if reflected else (self, other)
        kept = _split2(op, a, b)
        return kept if kept is not None else op(_materialised(a), _materialised(b))
    return method


def _forwarded(name: str):
    def method(self, *args):
        return getattr(self.data, name)(*args)
    method.__name__ = name
    return method


for _name, _op in (("add", np.add), ("sub", np.subtract), ("mul", np.multiply)):
    setattr(SplitIndex, f"__{_name}__", _arithmetic(_op))
    setattr(SplitIndex, f"__r{_name}__", _arithmetic(_op, reflected=True))
for _name in ("lt", "le", "gt", "ge", "eq", "ne", "floordiv", "rfloordiv", "mod", "rmod",
              "divmod", "rdivmod", "truediv", "rtruediv", "pow", "rpow", "matmul", "rmatmul",
              "and", "rand", "or", "ror", "xor", "rxor", "lshift", "rlshift", "rshift",
              "rrshift", "neg", "pos", "abs", "invert", "getitem", "len", "iter", "contains",
              "bool", "int", "float", "index", "str", "format"):
    setattr(SplitIndex, f"__{_name}__", _forwarded(f"__{_name}__"))
del _name, _op


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
                index = np.asarray(_materialised(index))
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
        indices = tuple(map(_materialised, indices))
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

    An access whose indices are all :class:`SplitIndex` values, some with a
    block part and some with a lane part, on an array without a layout
    table, never builds the per-axis arrays: each axis is checked on
    ``min/max(block) + min/max(lane)`` (the extrema of the dense index, so
    the errors read the same), the flat index is one ``base (B, 1)`` plus
    one ``pattern`` (``ctx.record_global_affine`` logs it without building
    the rows), and the gather or scatter reads ``base + pattern`` in C order
    (the last writer still wins).  Anything else takes the dense path.
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

    def _split(self, ctx, indices: tuple):
        """``(base (B, 1), pattern)`` of an access that keeps its split, else ``None``.

        Axes are checked in order, as the dense path checks them, so an
        access that raises raises the same error on either path.  An axis
        whose lane part or rest (block part plus offset) dips below 0 moves
        the lane minimum from one to the other; then both lie in
        ``[0, extent)``, so neither ``base`` nor ``pattern`` wraps.
        """
        batch = ctx._batch
        if self._table is not None or batch is None or len(indices) != len(self._axes):
            return None
        base = pattern = None
        shift = moved = 0  # Python ints: what base gains, what pattern loses
        for axis, ((extent, stride), index) in enumerate(zip(self._axes, indices)):
            if type(index) is not SplitIndex:
                return None
            block, lane, offset = index.block, index.lane, index.offset
            low = high = offset
            if block is not None:
                if len(block) != batch:
                    return None
                block_low, block_high = index.block_span()
                low, high = offset + block_low, offset + block_high
                term = block if stride == 1 else block * stride
                base = term if base is None else base + term
            rest_low = low
            if lane is not None:
                if lane.size == 0:
                    return None
                lane_low, lane_high = index.lane_span()
                low, high = low + lane_low, high + lane_high
                term = lane if stride == 1 else lane * stride
                pattern = term if pattern is None else pattern + term
                if lane_low < 0 or rest_low < 0:
                    moved += lane_low * stride
            if low < 0 or high >= extent:
                if low < _LOW or high > _HIGH:
                    return None  # the dense index wraps: only it can say what it holds
                raise IndexError(f"{self.name}: axis {axis} index out of range [0, {extent}) "
                                 f"(got [{low}, {high}])")
            shift += offset * stride
        if base is None or pattern is None:
            return None
        if shift or moved:
            base = base + _wrapped(shift + moved)
        if moved:
            pattern = pattern - _wrapped(moved)
        return base, pattern.reshape(-1)

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
