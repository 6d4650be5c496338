"""Index values that stay ``block + lane`` until an access reads them.

Every substrate keeps an index as a :class:`SplitIndex`: a per-block ``(B,
1)`` part, a per-lane part and an int, kept apart under ``+``/``-`` and ``*
int`` by the one combiner (:func:`combine`), so an access indexed by it never
builds the ``(B,) + lanes`` array.  mini-CUDA's ``ctx.blockIdx`` / ``ctx.tx``
and the MLIR interpreter's ``gpu.block_id`` / ``gpu.thread_id`` are split
indices with ``(T,)`` lanes; mini-Triton's pointer arithmetic joins its
program ids (the block part) and ``tl.arange`` blocks (lanes of any rank).
:func:`split_access` turns an access into ``base + pattern`` (the form
:meth:`repro.gpusim.sharedmem.AccessLog.log_global_affine` scores) after
checking every axis on the parts' extrema, and :func:`flat_index` is the dense
path's per-axis check.  Both raise the one ``IndexError`` text, ``<array>: axis
<a> index out of range [0, <extent>) (got [lo, hi])``, so an access fails alike
on either path and on every substrate.  :func:`shifted_flat_index` decodes a
dense grouped access once (its caller re-issues a bad row, which raises that
text).  :func:`per_block` tells an access with one row per block from a
block-uniform one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitIndex", "block_index", "combine", "flat_index", "lane_index", "materialised",
           "per_block", "shifted_flat_index", "split_access"]


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
    any rank (either may be ``None``) and ``offset`` a Python int; lane ``o``
    of block ``b`` is ``block[b] + lane[o] + offset``, so the index is ``(B,)
    + lane.shape``.  mini-CUDA's ``ctx.blockIdx.x/y/z`` and ``ctx.tx/ty/tz``
    and the MLIR interpreter's ``gpu.block_id`` / ``gpu.thread_id`` are split
    indices, and they stay split only under ``+``/``-`` with Python ints, with
    int64 arrays of rank <= 1 and with each other, and under ``*`` by a Python
    int.  Any other use — comparisons, ``//``/``%``, ``np.maximum``, slicing,
    ``.copy()``, float operands, rank >= 2 arrays, ``ctx.compact`` — reads
    :attr:`data`, the materialised read-only array, equal to the op-by-op
    int64 array (int64 wraps alike in either association).
    :func:`split_access` reads the split itself.  The extrema of each part
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
            if block is not None and lane is not None and lane.ndim > 1:
                block = block.reshape(block.shape[:1] + (1,) * lane.ndim)
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
        return self.block.shape[:1] + self.lane.shape

    dtype = np.dtype(np.int64)

    def __array__(self, dtype=None, copy=None):
        data = self.data
        if dtype is not None and np.dtype(dtype) != data.dtype:
            return data.astype(dtype)
        return data.copy() if copy else data

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and len(inputs) == 2 and not kwargs:
            kept = combine(ufunc, _parts(inputs[0]), _parts(inputs[1]))
            if kept is not None:
                return kept
        inputs = tuple(materialised(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(materialised(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __getattr__(self, name):
        # every other ndarray attribute (reshape, copy, astype, min, ...) reads the array
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.data, name)

    def __repr__(self) -> str:
        return repr(self.data)


def materialised(x):
    """``x``, or the array a split index stands for."""
    return x.data if isinstance(x, SplitIndex) else x


def _parts(x):
    """``(block, lane, offset, block_span, lane_span)`` of an operand that may join a
    split index — a split index, an int64 array of rank <= 1 (a lane) or a Python
    int — else ``None``."""
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


def _times(parts, factor: int):
    """``parts`` multiplied by the Python int ``factor``."""
    if factor == 1:
        return parts
    block, lane, offset, block_span, lane_span = parts
    return (None if block is None else block * factor,
            None if lane is None else lane * factor,
            _wrapped(offset * factor), _scaled(block_span, factor), _scaled(lane_span, factor))


def combine(op, a, b) -> SplitIndex | None:
    """``op(a, b)`` kept split, or ``None`` (the caller reads the arrays).

    ``a`` and ``b`` are the operands' parts, ``(block, lane, offset,
    block_span, lane_span)`` (``None`` for an operand that cannot join; each
    substrate builds its own operands' parts, copying a lane the caller could
    still change).  ``+``/``-`` join any two; ``*`` keeps a split times a
    Python int (parts with neither a block nor a lane).  Lanes broadcast
    right-aligned.
    """
    if a is None or b is None:
        return None
    if op is np.multiply:
        if b[0] is None and b[1] is None:
            return SplitIndex(*_times(a, b[2]))
        if a[0] is None and a[1] is None:
            return SplitIndex(*_times(b, a[2]))
        return None
    if op is np.subtract:
        b = _times(b, -1)
    elif op is not np.add:
        return None
    block, block_span = _summed(a[0], a[3], b[0], b[3])
    lane, lane_span = _summed(a[1], a[4], b[1], b[4])
    return SplitIndex(block, lane, _wrapped(a[2] + b[2]), block_span, lane_span)


def _arithmetic(op, reflected: bool = False):
    def method(self, other):
        a, b = (other, self) if reflected else (self, other)
        kept = combine(op, _parts(a), _parts(b))
        return kept if kept is not None else op(materialised(a), materialised(b))
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


def lane_index(lanes: np.ndarray, extent: int) -> SplitIndex:
    """A thread index over a block axis of ``extent`` threads (every value in ``[0,
    extent)`` appears): lane-only, read-only, its extrema known from the start."""
    lanes.flags.writeable = False
    return SplitIndex(None, lanes, lane_span=(0, extent - 1))


def block_index(ids: np.ndarray) -> SplitIndex:
    """A block index over ``(B, 1)`` ids: block-only, read-only, its extrema known from
    the start (the int arithmetic on it carries them along)."""
    ids.flags.writeable = False
    return SplitIndex(ids, None, block_span=_extrema(ids))


def per_block(name: str, index: np.ndarray, batch: int) -> bool:
    """Whether an access (or a value) has one row per block (``True``: 2-D with
    leading extent ``batch``) or is block-uniform (``False``: rank <= 1, the same
    in every block); any other shape is a ``TypeError``."""
    if index.ndim == 2 and index.shape[0] == batch:
        return True
    if index.ndim <= 1:
        return False
    raise TypeError(f"{name}: cannot classify a rank-{index.ndim} value: expected one row "
                    f"per block ({batch}) or a block-uniform value")


def _out_of_range(name: str, axis: int, extent: int, low, high) -> IndexError:
    return IndexError(f"{name}: axis {axis} index out of range [0, {extent}) "
                      f"(got [{low}, {high}])")


def flat_index(name: str, axes, indices) -> np.ndarray:
    """The row-major flat index of a dense access over ``axes`` (``(extent, stride)``
    pairs), every axis checked as given.

    An index broadcast later has the same extrema, so each axis costs one
    reduction: viewed unsigned, a negative index is larger than any extent.
    Python ints are checked without NumPy; an index that is not an integer
    (CUDA refuses a float subscript) is a ``TypeError``.
    """
    flat = None
    for axis, ((extent, stride), index) in enumerate(zip(axes, indices)):
        if type(index) is int:
            bad = not 0 <= index < extent
        else:
            index = np.asarray(materialised(index))
            if index.dtype != np.int64:
                if index.dtype.kind not in "biu":
                    raise TypeError(f"{name}: axis {axis} index must be an integer, "
                                    f"got {index.dtype}")
                index = index.astype(np.int64)
            bad = index.size and index.view(np.uint64).max() >= extent
        if bad:
            raise _out_of_range(name, axis, extent, np.min(index), np.max(index))
        term = index if stride == 1 else index * stride
        flat = term if flat is None else flat + term
    return np.asarray(0 if flat is None else flat, dtype=np.int64)


def shifted_flat_index(axes, indices, shifts):
    """``(flat, moves)`` of a dense grouped access whose every row is in range, else
    ``None``: row ``q`` (the access at ``indices + shifts[:, q]``) reads ``flat +
    moves[q]``.

    Row ``q`` is in range exactly when, on every axis, the index's extrema
    plus ``shifts[axis, q]`` are; so all rows are when each axis holds at its
    extreme shifts, and the index is decoded once whatever the row count.  An
    empty or non-integer index also gives ``None``: its caller re-issues the
    rows one at a time, and the first bad one raises its own error.
    """
    flat = None
    moves = 0
    for (extent, stride), index, row in zip(axes, indices, shifts):
        index = np.asarray(materialised(index))
        if index.dtype.kind not in "iu" or not index.size:
            return None
        low, high = _extrema(index)
        shift_low, shift_high = _extrema(row)
        if low + shift_low < 0 or high + shift_high >= extent:
            return None
        index = index.astype(np.int64, copy=False)
        term = index if stride == 1 else index * stride
        flat = term if flat is None else flat + term
        moves = moves + (row if stride == 1 else row * stride)
    return flat, moves


def split_access(name: str, axes, indices, batch, shifts=None):
    """``(base, pattern)`` of an access that keeps its split, else ``None``.

    ``axes`` are the array's ``(extent, stride)`` pairs and ``batch`` the
    pass's block count (``None`` where lanes are not rows of blocks).  Every
    index must be a :class:`SplitIndex`, with a block part and a lane part
    among them; ``base`` is ``(B, 1)`` and ``pattern`` ``(lanes,)``, and lane
    ``o`` of block ``b`` reads ``base[b] + pattern[o]``.

    ``shifts`` (an ``(axes, rows)`` int64 array) makes the access grouped:
    row ``q`` is the access at ``indices + shifts[:, q]``, and ``base`` is
    ``(B, rows)``.  A shift joins the block part.

    Axes are checked in order on ``min/max(rest) + min/max(lane)`` — the
    extrema of the dense index, so an access that raises raises the dense
    path's error (a grouped one returns ``None`` instead: its caller
    re-issues the rows one at a time, and the first bad row raises).  An
    axis whose lane part or rest (block part, shift and offset) dips below 0
    moves the lane minimum from one to the other; then both lie in ``[0,
    extent)``, so neither ``base`` nor ``pattern`` wraps.
    """
    if batch is None or len(indices) != len(axes):
        return None
    base = pattern = rows = None
    shift = moved = 0  # Python ints: what base gains, what pattern loses
    for axis, ((extent, stride), index) in enumerate(zip(axes, indices)):
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
        if shifts is not None:
            row_shifts = shifts[axis]
            shift_low, shift_high = _extrema(row_shifts)
            low, high = low + shift_low, high + shift_high
            if shift_low or shift_high:
                term = row_shifts if stride == 1 else row_shifts * stride
                rows = term if rows is None else rows + term
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
            if low < _LOW or high > _HIGH or shifts is not None:
                return None  # only the dense index (or the rows one at a time) can say
            raise _out_of_range(name, axis, extent, low, high)
        shift += offset * stride
    if base is None or pattern is None:
        return None
    if shifts is not None:
        base = base + (0 if rows is None else rows)
        if base.shape[1] != shifts.shape[1]:
            base = np.broadcast_to(base, (batch, shifts.shape[1]))
    if shift or moved:
        base = base + _wrapped(shift + moved)
    if moved:
        pattern = pattern - _wrapped(moved)
    return base, pattern.reshape(-1)
