"""The ``tl.*`` language subset used by the paper's Triton benchmarks.

Generated kernels see :data:`tl` under the name ``tl``.  It implements, on
top of NumPy, exactly the operations the evaluation kernels use:

``program_id``, ``num_programs``, ``arange``, ``zeros``, ``full``, ``load``,
``store``, ``dot``, ``cdiv``, ``sum``, ``max``, ``min``, ``exp``, ``log``,
``sqrt``, ``rsqrt``, ``where``, ``maximum``, ``minimum``, ``abs`` and the
dtype markers ``float16``/``float32``/``int32``/``int64`` plus ``constexpr``.

Semantics follow Triton's block-program model, run for a whole pass of
programs at once: ``tl.program_id`` returns an array holding every program
id of the pass, so one call of the kernel body evaluates all of them (a
one-program launch is the pass of one).  Values derived from the program id
become :class:`BatchedTensor`\\ s — NumPy arrays with a leading batch
(program) axis — while values that do not depend on it stay plain arrays
shared by all programs, exactly as a register common to all CTAs would be.
Pointer arithmetic keeps its structure: ``+``/``-`` of program-id scalars and
int64 blocks, and ``*`` by an int, yield :class:`AffineOffsets` — a base per
program plus one block pattern — which an unmasked ``load``/``store``
bounds-checks and scores on the form; everything else materialises it.  An
unmasked load whose bases repeat gathers each distinct tile once
(:class:`SharedTiles`), and ``tl.dot`` casts each of them once.

Alignment convention: a ``BatchedTensor`` stores ``data`` of shape
``(P,) + block_shape``; binary operations pad the shorter *block* rank with
leading singleton axes (after the batch axis), so plain operands broadcast
right-aligned into the block dims and never touch the batch axis.  An access
is appended to the active :class:`KernelTrace`'s log
(:class:`repro.gpusim.sharedmem.AccessLog`) as a ``(P, block)`` matrix — a
row is a program, deduplicated whole, its mask riding along; a
program-uniform access is one row with ``repeat = P``.  Stores flatten in C
(program-major) order, so duplicate offsets resolve to the highest program
id, as sequential program execution would.  The trace feeds the analytic
performance model.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field

import numpy as np

from ..gpusim.sharedmem import AccessLog, distinct_bases

__all__ = [
    "constexpr",
    "float16",
    "float32",
    "int32",
    "int64",
    "KernelTrace",
    "DeviceBuffer",
    "PointerArray",
    "BatchedTensor",
    "tl",
]


# ---------------------------------------------------------------------------
# dtypes and tensors
# ---------------------------------------------------------------------------


class constexpr:  # noqa: N801 - Triton spelling
    """Marker used in kernel signatures (``BM: tl.constexpr``); no behaviour."""


class _DType:
    def __init__(self, name: str, np_dtype):
        self.name = name
        self.np_dtype = np.dtype(np_dtype)

    def __repr__(self) -> str:
        return f"tl.{self.name}"


float16 = _DType("float16", np.float16)
float32 = _DType("float32", np.float32)
int32 = _DType("int32", np.int32)
int64 = _DType("int64", np.int64)


def _np_dtype(dtype) -> np.dtype:
    if isinstance(dtype, _DType):
        return dtype.np_dtype
    return np.dtype(dtype)


class TlTensor(np.ndarray):
    """A program-uniform block: a NumPy array with Triton's ``.to(dtype)``."""

    def to(self, dtype) -> "TlTensor":
        return np.asarray(self).astype(_np_dtype(dtype)).view(TlTensor)


def _as_tensor(values) -> TlTensor:
    return np.asarray(values).view(TlTensor)


@dataclass
class KernelTrace(AccessLog):
    """Memory-traffic and arithmetic counters accumulated across programs.

    The language appends every access to the trace's log
    (:class:`~repro.gpusim.sharedmem.AccessLog`) and the launcher flushes it.
    """

    load_elements: float = 0.0
    store_elements: float = 0.0
    load_bytes: float = 0.0
    store_bytes: float = 0.0
    load_transactions: float = 0.0
    store_transactions: float = 0.0
    flops: float = 0.0
    tensor_core_flops: float = 0.0
    programs: int = 0
    #: DRAM sector granularity (bytes) the transaction counters are recorded
    #: at — the trace->cost adapter charges moved bytes at the same size, so
    #: recording and costing can never disagree
    sector_bytes: int = 32
    extras: dict = field(default_factory=dict)

    @property
    def dram_bytes(self) -> float:
        return self.load_bytes + self.store_bytes


class BatchedTensor:
    """A block value carried by every program: ``data`` is ``(P,) + block_shape``."""

    __array_ufunc__ = None  # force NumPy to defer to our reflected operators
    __array_priority__ = 1000

    __slots__ = ("data", "block_ndim")

    def __init__(self, data: np.ndarray, block_ndim: int):
        data = np.asarray(data)
        if data.ndim != block_ndim + 1:
            raise ValueError(
                f"batched data of shape {data.shape} inconsistent with block rank {block_ndim}"
            )
        self.data = data
        self.block_ndim = int(block_ndim)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def to(self, dtype) -> "BatchedTensor":
        return BatchedTensor(self.data.astype(_np_dtype(dtype)), self.block_ndim)

    astype = to

    def __repr__(self) -> str:
        return f"BatchedTensor(P={self.data.shape[0]}, block={self.data.shape[1:]})"

    # -- indexing ----------------------------------------------------------

    def __getitem__(self, key) -> "BatchedTensor":
        if not isinstance(key, tuple):
            key = (key,)
        block_ndim = self.block_ndim
        for item in key:
            if item is None:
                block_ndim += 1
            elif isinstance(item, (int, np.integer)):
                block_ndim -= 1
            elif not isinstance(item, slice):
                raise TypeError(
                    f"batched indexing supports ints, slices and None, got {type(item).__name__}"
                )
        return BatchedTensor(self.data[(slice(None),) + key], block_ndim)

    # -- unary -------------------------------------------------------------

    def __neg__(self):
        return BatchedTensor(-self.data, self.block_ndim)

    def __pos__(self):
        return self

    def __invert__(self):
        return BatchedTensor(~self.data, self.block_ndim)

    def __abs__(self):
        return BatchedTensor(np.abs(self.data), self.block_ndim)

    # -- binary (generated below) ------------------------------------------


_INT64 = np.iinfo(np.int64)


class AffineOffsets(BatchedTensor):
    """Integer offsets ``base[p] + pattern``: an int64 base per program, one block pattern.

    ``program_id``-derived pointer arithmetic keeps this form (see
    :func:`_affine2`): the base is ``(P,)``, the pattern is program-uniform
    and carries the block shape.  ``data`` is the materialised
    ``(P,) + block`` array — what every other op, dtype or mask reads — and
    is built once, on first use.
    """

    __slots__ = ("base", "pattern", "_data")

    def __init__(self, base: np.ndarray, pattern: np.ndarray):
        self.base = base
        self.pattern = pattern
        self.block_ndim = pattern.ndim
        self._data = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = self.base.reshape(self.base.shape + (1,) * self.block_ndim) + self.pattern
        return self._data

    def span(self) -> tuple[int, int] | None:
        """``(min, max)`` over every program's offsets, as Python ints.

        ``None`` when there are none, or when a sum leaves int64 (the
        materialised array wraps there, so only it can say what it holds).
        """
        base, pattern = self.base, self.pattern
        if not (base.size and pattern.size):
            return None
        low = int(base.min()) + int(pattern.min())
        high = int(base.max()) + int(pattern.max())
        if low < _INT64.min or high > _INT64.max:
            return None
        return low, high


class SharedTiles(BatchedTensor):
    """A load whose programs share tiles: program ``p`` holds ``tiles[index[p]]``.

    ``tiles`` is ``(U,) + block``, one gathered copy per distinct base, and
    ``index`` is ``(P,)``.  ``data`` is the ``(P,) + block`` array every op but
    ``tl.dot`` reads, built once, on first use.
    """

    __slots__ = ("tiles", "index", "_data")

    def __init__(self, tiles: np.ndarray, index: np.ndarray):
        self.tiles = tiles
        self.index = index
        self.block_ndim = tiles.ndim - 1
        self._data = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = self.tiles[self.index]
        return self._data


def _gather(data: np.ndarray, offsets: AffineOffsets) -> BatchedTensor:
    """``data[offsets.data]``, gathering each distinct base's tile once when bases repeat.

    One program, or bases strictly increasing (a row per program), cannot
    repeat: one compare pass and the plain gather.
    """
    base, pattern = offsets.base, offsets.pattern
    if base.size > 1 and not (base[1:] > base[:-1]).all():
        unique, index = distinct_bases(base)
        if unique.size < base.size:
            rows = unique.reshape(unique.shape + (1,) * pattern.ndim)
            return SharedTiles(data[rows + pattern], index)
    return BatchedTensor(data[offsets.data], offsets.block_ndim)


def _affine_parts(x):
    """``(base, pattern)`` of an operand that may join an affine form (either may be
    ``None``), or ``None`` when it may not."""
    if isinstance(x, AffineOffsets):
        return x.base, x.pattern
    if isinstance(x, BatchedTensor):
        return (x.data, None) if x.block_ndim == 0 and x.data.dtype == np.int64 else None
    if isinstance(x, np.ndarray) and x.dtype == np.int64:
        return None, x.copy()  # the form must not follow a later in-place update of x
    return (None, x) if type(x) is int else None


def _joined(op, x, y):
    if y is None:
        return x
    if x is None:
        return y if op is np.add else -y
    return op(x, y)


def _affine2(op, a, b) -> AffineOffsets | None:
    """``op(a, b)`` kept affine, or ``None`` (the caller materialises).

    ``+``/``-`` of rank-0 int64 batched values, int64 plain arrays, Python
    ints and affine offsets is affine once some operand has a block (an
    affine one, or a plain array of rank >= 1); so is ``*`` of affine
    offsets by a Python int.  Int64 arithmetic wraps alike in either
    association, so the materialised form equals the op-by-op array.
    """
    if op is np.multiply:
        if type(b) is int and isinstance(a, AffineOffsets):
            return AffineOffsets(a.base * b, a.pattern * b)
        if type(a) is int and isinstance(b, AffineOffsets):
            return AffineOffsets(b.base * a, b.pattern * a)
        return None
    if (op is not np.add and op is not np.subtract) or not (_has_block(a) or _has_block(b)):
        return None
    parts_a, parts_b = _affine_parts(a), _affine_parts(b)
    if parts_a is None or parts_b is None:
        return None
    return AffineOffsets(_joined(op, parts_a[0], parts_b[0]), _joined(op, parts_a[1], parts_b[1]))


def _has_block(x) -> bool:
    return isinstance(x, AffineOffsets) or (isinstance(x, np.ndarray) and x.ndim > 0)


def _block_rank(x) -> int:
    return x.block_ndim if isinstance(x, BatchedTensor) else np.ndim(x)


def _aligned_raw(x, rank: int):
    """Raw array for ``x`` broadcast-compatible at block rank ``rank``.

    Batched operands pad missing block axes directly after the batch
    axis; plain operands are returned as-is — right-aligned NumPy
    broadcasting lines them up with the trailing block dims without ever
    touching the batch axis (their rank is at most ``rank`` < data rank).
    """
    if isinstance(x, BatchedTensor):
        data = x.data
        pad = rank - x.block_ndim
        if pad:
            data = data.reshape(data.shape[:1] + (1,) * pad + data.shape[1:])
        return data
    return x


def _apply2(op, a, b):
    """Apply a two-operand NumPy op under the batch-alignment convention."""
    if not (isinstance(a, BatchedTensor) or isinstance(b, BatchedTensor)):
        return op(a, b)
    affine = _affine2(op, a, b)
    if affine is not None:
        return affine
    rank = builtins.max(_block_rank(a), _block_rank(b))
    return BatchedTensor(op(_aligned_raw(a, rank), _aligned_raw(b, rank)), rank)


def _make_binop(op, reflected: bool):
    def method(self, other):
        if isinstance(other, (DeviceBuffer, PointerArray)):
            return NotImplemented
        if reflected:
            return _apply2(op, other, self)
        return _apply2(op, self, other)

    return method


for _name, _op in {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "truediv": np.true_divide, "floordiv": np.floor_divide, "mod": np.mod,
    "pow": np.power, "and": np.bitwise_and, "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}.items():
    setattr(BatchedTensor, f"__{_name}__", _make_binop(_op, reflected=False))
    setattr(BatchedTensor, f"__r{_name}__", _make_binop(_op, reflected=True))
for _name, _op in {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}.items():
    setattr(BatchedTensor, f"__{_name}__", _make_binop(_op, reflected=False))


# ---------------------------------------------------------------------------
# pointers and buffers
# ---------------------------------------------------------------------------


class DeviceBuffer:
    """A flat "device" allocation; kernel arguments of pointer type."""

    def __init__(self, array: np.ndarray, name: str = "buf"):
        array = np.asarray(array)
        self._shape = array.shape
        self.data = np.ascontiguousarray(array).reshape(-1)
        self.name = name

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def element_bytes(self) -> int:
        return int(self.data.dtype.itemsize)

    def to_numpy(self, shape=None) -> np.ndarray:
        shape = shape if shape is not None else self._shape
        return self.data.reshape(shape).copy()

    def __add__(self, offsets) -> "PointerArray":
        return PointerArray(self, offsets)

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"DeviceBuffer({self.name}, n={self.data.size}, dtype={self.data.dtype})"


class PointerArray:
    """``buffer + offsets`` (the result of ``ptr + offs``); offsets may be batched or uniform."""

    __slots__ = ("buffer", "offsets")

    def __init__(self, buffer: DeviceBuffer, offsets):
        self.buffer = buffer
        self.offsets = offsets

    def __add__(self, more) -> "PointerArray":
        return PointerArray(self.buffer, _apply2(np.add, self.offsets, more))

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"PointerArray({self.buffer.name})"


# ---------------------------------------------------------------------------
# block constructors
# ---------------------------------------------------------------------------


def arange(start: int, end: int) -> TlTensor:
    """A 1-D block of consecutive integers ``[start, end)`` (like ``tl.arange``)."""
    return _as_tensor(np.arange(int(start), int(end), dtype=np.int64))


def zeros(shape, dtype=float32) -> TlTensor:
    return _as_tensor(np.zeros(tuple(int(s) for s in shape), dtype=_np_dtype(dtype)))


def full(shape, value, dtype=float32) -> TlTensor:
    return _as_tensor(np.full(tuple(int(s) for s in shape), value, dtype=_np_dtype(dtype)))


def cdiv(a: int, b: int) -> int:
    """Ceiling division."""
    return -(-int(a) // int(b))


def _np_shape(x) -> tuple:
    return np.asarray(x).shape if not isinstance(x, np.ndarray) else x.shape


def _extent(raw: np.ndarray) -> tuple[int, int] | None:
    """``(min, max)`` of an offset array; ``None`` when it is empty."""
    return (raw.min(), raw.max()) if raw.size else None


def _check_unmasked(what: str, buffer: DeviceBuffer, span) -> None:
    """Raise when an unmasked access's ``(min, max)`` offset leaves the buffer."""
    size = buffer.data.size
    if span is not None and (span[0] < 0 or span[1] >= size):
        raise IndexError(f"out-of-bounds unmasked {what} on {buffer.name}: "
                         f"range [{span[0]}, {span[1]}] vs size {size}")


def _masked_gather(buffer: DeviceBuffer, raw: np.ndarray, mask: np.ndarray, other):
    """``buffer[raw]`` where ``mask`` holds and ``other`` elsewhere.

    Only the active lanes are bounds-checked and gathered: an inactive lane
    may point anywhere, a fully masked access touches nothing.
    """
    data = buffer.data
    active = raw[mask]
    if active.size and (active.min() < 0 or active.max() >= data.size):
        raise IndexError(f"masked load still out of bounds on {buffer.name}")
    gathered = data[np.where(mask, raw, 0)] if active.size else np.zeros((), data.dtype)
    return np.where(mask, gathered, other)


def _fp32_operand(x) -> tuple[np.ndarray, np.dtype]:
    """A ``tl.dot`` operand as float32, with the dtype it had.

    Shared tiles are cast once per distinct tile, then spread over the
    programs: the cast is elementwise, so this is bit-identical to casting
    ``data``.
    """
    if isinstance(x, SharedTiles):
        return x.tiles.astype(np.float32)[x.index], x.tiles.dtype
    raw = x.data if isinstance(x, BatchedTensor) else np.asarray(x)
    return raw.astype(np.float32), raw.dtype


# ---------------------------------------------------------------------------
# the namespace
# ---------------------------------------------------------------------------


class _Language:
    """The ``tl`` namespace generated kernels see.

    The launcher binds a pass of program ids and the launch trace around
    each call of the kernel.  The flop-counting rule is that a
    program-uniform value would have been computed by every program, so
    plain operands count ``size * P`` while batched operands already carry
    the program axis in their size.
    """

    constexpr = constexpr
    float16 = float16
    float32 = float32
    int32 = int32
    int64 = int64
    arange = staticmethod(arange)
    zeros = staticmethod(zeros)
    full = staticmethod(full)

    def __init__(self):
        self._trace: KernelTrace | None = None
        self._pids: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._grid: tuple[int, int, int] = (1, 1, 1)
        self._programs: int = 0

    # -- launch state ------------------------------------------------------

    def _begin(self, pids, grid, trace):
        self._pids = pids
        self._grid = grid
        self._trace = trace
        self._programs = int(pids[0].size)

    def _end(self):
        self._pids = None
        self._trace = None
        self._programs = 0

    # -- program / grid queries --------------------------------------------

    def program_id(self, axis: int) -> BatchedTensor:
        return BatchedTensor(self._pids[axis], 0)

    def num_programs(self, axis: int) -> int:
        return self._grid[axis]

    # -- tracing helpers ---------------------------------------------------

    def _size_of(self, x) -> float:
        """Element count of ``x`` summed over the pass's programs."""
        if isinstance(x, SharedTiles):
            return float(x.index.size * (x.tiles.size // x.tiles.shape[0]))
        if isinstance(x, BatchedTensor):
            return float(x.data.size)
        return float(np.asarray(x).size) * self._programs

    def _count_flops(self, x, per_element: float = 1.0) -> None:
        self._trace.flops += self._size_of(x) * per_element

    def _record_batched(self, offsets: np.ndarray, element_bytes: int,
                        is_store: bool, valid: np.ndarray | None = None) -> None:
        """Log a ``(P,) + block`` offset array: a row per program, deduplicated whole."""
        programs = offsets.shape[0]
        flat = offsets.reshape(programs, -1)
        if valid is not None:
            valid = np.broadcast_to(valid, offsets.shape).reshape(programs, -1)
            count = float(valid.sum())
        else:
            count = float(flat.size)
        self._log(flat, element_bytes, is_store, count, valid=valid)

    def _record_uniform(self, offsets: np.ndarray, element_bytes: int,
                        is_store: bool, valid: np.ndarray | None = None) -> None:
        """A program-uniform access repeats identically in every program."""
        flat = offsets.reshape(-1)
        if valid is not None:
            flat = flat[np.broadcast_to(valid, offsets.shape).reshape(-1)]
        self._log(flat[None, :], element_bytes, is_store, float(flat.size) * self._programs,
                  repeat=self._programs)

    def _record_affine(self, base: np.ndarray, pattern: np.ndarray, element_bytes: int,
                       is_store: bool) -> None:
        """Log affine offsets: a row per program, ``base[p] + pattern``, counted in closed form."""
        trace = self._trace
        pattern = pattern.reshape(-1)
        trace.log_global_affine(base, pattern, element_bytes, trace.sector_bytes, pattern.size,
                                is_store)
        self._count_volume(float(base.size * pattern.size), element_bytes, is_store)

    def _log(self, rows: np.ndarray, element_bytes: int, is_store: bool, count: float,
             repeat: int = 1, valid: np.ndarray | None = None) -> None:
        trace = self._trace
        trace.log_global(rows, element_bytes, trace.sector_bytes, rows.shape[1], is_store,
                         repeat, valid)
        self._count_volume(count, element_bytes, is_store)

    def _count_volume(self, count: float, element_bytes: int, is_store: bool) -> None:
        trace = self._trace
        if is_store:
            trace.store_elements += count
            trace.store_bytes += count * element_bytes
        else:
            trace.load_elements += count
            trace.load_bytes += count * element_bytes

    # -- memory operations -------------------------------------------------

    def load(self, pointer, mask=None, other=0.0):
        """Gather from a pointer block, honouring the optional mask."""
        if not isinstance(pointer, PointerArray):
            raise TypeError("tl.load expects a pointer expression (buffer + offsets)")
        buffer = pointer.buffer
        data = buffer.data
        element_bytes = buffer.element_bytes
        offsets = pointer.offsets
        if mask is None and isinstance(offsets, AffineOffsets):
            span = offsets.span()
            if span is not None:
                _check_unmasked("load", buffer, span)
                self._record_affine(offsets.base, offsets.pattern, element_bytes, is_store=False)
                return _gather(data, offsets)
        if not isinstance(offsets, BatchedTensor) and isinstance(mask, BatchedTensor):
            # a uniform pointer guarded by a per-program mask gathers
            # differently in each program: replay it batched
            raw = np.broadcast_to(
                np.asarray(offsets, dtype=np.int64),
                (self._programs,) + np.asarray(offsets).shape,
            )
            offsets = BatchedTensor(raw, np.ndim(np.asarray(offsets)))
        if isinstance(offsets, BatchedTensor):
            raw = offsets.data.astype(np.int64, copy=False)
            if mask is None:
                _check_unmasked("load", buffer, _extent(raw))
                self._record_batched(raw, element_bytes, is_store=False)
                return BatchedTensor(data[raw], offsets.block_ndim)
            rank = builtins.max(offsets.block_ndim, _block_rank(mask))
            raw = _aligned_raw(offsets, rank).astype(np.int64, copy=False)
            mask_raw = np.broadcast_to(
                np.asarray(_aligned_raw(mask, rank), dtype=bool), raw.shape
            )
            other_raw = _aligned_raw(other, rank) if isinstance(other, BatchedTensor) else other
            values = _masked_gather(buffer, raw, mask_raw, other_raw)
            self._record_batched(raw, element_bytes, is_store=False, valid=mask_raw)
            return BatchedTensor(values, rank)
        # program-uniform access: identical in every program
        raw = np.asarray(offsets, dtype=np.int64)
        if mask is None:
            _check_unmasked("load", buffer, _extent(raw))
            self._record_uniform(raw, element_bytes, is_store=False)
            return _as_tensor(data[raw])
        mask_raw = np.broadcast_to(np.asarray(mask, dtype=bool), raw.shape)
        values = _masked_gather(buffer, raw, mask_raw, other)
        self._record_uniform(raw, element_bytes, is_store=False, valid=mask_raw)
        return _as_tensor(values)

    def store(self, pointer, value, mask=None) -> None:
        """Scatter a block to memory, honouring the optional mask."""
        if not isinstance(pointer, PointerArray):
            raise TypeError("tl.store expects a pointer expression (buffer + offsets)")
        buffer = pointer.buffer
        data = buffer.data
        element_bytes = buffer.element_bytes
        offsets = pointer.offsets
        if not isinstance(offsets, BatchedTensor):
            # a program-uniform store target is written by every program in
            # turn; replaying it batched (broadcast over the program axis)
            # reproduces both the last-writer-wins result and the counters
            raw = np.broadcast_to(
                np.asarray(offsets, dtype=np.int64),
                (self._programs,) + np.asarray(offsets).shape,
            )
            offsets = BatchedTensor(raw, np.ndim(np.asarray(offsets)))
        rank = builtins.max(offsets.block_ndim, _block_rank(value))
        if mask is not None:
            rank = builtins.max(rank, _block_rank(mask))
        raw = np.broadcast_to(
            _aligned_raw(offsets, rank).astype(np.int64, copy=False),
            np.broadcast_shapes(
                _np_shape(_aligned_raw(offsets, rank)),
                _np_shape(_aligned_raw(value, rank)),
            ),
        )
        values = np.broadcast_to(np.asarray(_aligned_raw(value, rank)), raw.shape)
        if mask is None:
            span = offsets.span() if isinstance(offsets, AffineOffsets) and raw.size else None
            _check_unmasked("store", buffer, span or _extent(raw))
            # C-order flatten is program-major: duplicate offsets resolve to
            # the highest program id, matching sequential execution
            data[raw.reshape(-1)] = values.reshape(-1).astype(data.dtype, copy=False)
            if span:
                self._record_affine(offsets.base, np.broadcast_to(offsets.pattern, raw.shape[1:]),
                                    element_bytes, is_store=True)
            else:
                self._record_batched(raw, element_bytes, is_store=True)
            return
        mask_raw = np.broadcast_to(
            np.asarray(_aligned_raw(mask, rank), dtype=bool), raw.shape
        )
        flat_offsets = raw[mask_raw]
        if flat_offsets.size and (flat_offsets.min() < 0 or flat_offsets.max() >= data.size):
            raise IndexError(f"masked store still out of bounds on {pointer.buffer.name}")
        data[flat_offsets] = values[mask_raw].astype(data.dtype, copy=False)
        self._record_batched(raw, element_bytes, is_store=True, valid=mask_raw)

    # -- arithmetic --------------------------------------------------------

    def dot(self, a, b, acc=None):
        """Block matrix multiply with float32 accumulation (tensor-core ``tl.dot``)."""
        (a32, a_dtype), (b32, b_dtype) = _fp32_operand(a), _fp32_operand(b)
        batched = isinstance(a, BatchedTensor) or isinstance(b, BatchedTensor)
        result = np.matmul(a32, b32)
        if acc is not None:
            acc_raw = acc.data if isinstance(acc, BatchedTensor) else np.asarray(acc, dtype=np.float32)
            result = result + np.asarray(acc_raw, dtype=np.float32)
        m, k = a32.shape[-2], a32.shape[-1]
        n = b32.shape[-1]
        flops = 2.0 * m * n * k * self._programs
        self._trace.flops += flops
        if a_dtype == np.float16 or b_dtype == np.float16:
            self._trace.tensor_core_flops += flops
        if batched:
            return BatchedTensor(result, 2)
        return _as_tensor(result)

    def cdiv(self, a, b):
        if isinstance(a, BatchedTensor) or isinstance(b, BatchedTensor):
            return -(-a // b)
        return cdiv(a, b)

    # -- reductions --------------------------------------------------------

    def _reduce(self, np_op, x, axis, cast=None):
        self._count_flops(x)
        if isinstance(x, BatchedTensor):
            data = x.data if cast is None else x.data.astype(cast)
            if axis is None:
                # each program reduces its own flat block: reduce each row of
                # the (P, -1) view
                return BatchedTensor(np_op(data.reshape(data.shape[0], -1), axis=1), 0)
            data_axis = axis + 1 if axis >= 0 else axis
            return BatchedTensor(np_op(data, axis=data_axis), x.block_ndim - 1)
        arr = np.asarray(x) if cast is None else np.asarray(x, dtype=cast)
        return _as_tensor(np_op(arr, axis=axis))

    def sum(self, x, axis=None):  # noqa: A003 - Triton spelling
        return self._reduce(np.sum, x, axis, cast=np.float32)

    def max(self, x, axis=None):  # noqa: A003 - Triton spelling
        return self._reduce(np.max, x, axis)

    def min(self, x, axis=None):  # noqa: A003 - Triton spelling
        return self._reduce(np.min, x, axis)

    # -- elementwise -------------------------------------------------------

    def _unary(self, np_op, x, cast=None):
        self._count_flops(x)
        if isinstance(x, BatchedTensor):
            data = x.data if cast is None else x.data.astype(cast)
            return BatchedTensor(np_op(data), x.block_ndim)
        arr = np.asarray(x) if cast is None else np.asarray(x, dtype=cast)
        return _as_tensor(np_op(arr))

    def exp(self, x):
        return self._unary(np.exp, x, cast=np.float32)

    def log(self, x):
        return self._unary(np.log, x, cast=np.float32)

    def sqrt(self, x):
        return self._unary(np.sqrt, x, cast=np.float32)

    def rsqrt(self, x):
        return self._unary(lambda v: 1.0 / np.sqrt(v), x, cast=np.float32)

    def abs(self, x):  # noqa: A003 - Triton spelling
        return self._unary(np.abs, x)

    # the three below count their broadcast result: every operand order counts alike

    def where(self, cond, a, b):
        if not any(isinstance(v, BatchedTensor) for v in (cond, a, b)):
            result = _as_tensor(np.where(np.asarray(cond), a, b))
        else:
            rank = builtins.max(_block_rank(cond), _block_rank(a), _block_rank(b))
            raws = [np.asarray(_aligned_raw(v, rank)) for v in (cond, a, b)]
            result = BatchedTensor(np.where(*raws), rank)
        self._count_flops(result)
        return result

    def maximum(self, a, b):
        result = _apply2(np.maximum, a, b)
        self._count_flops(result)
        return result

    def minimum(self, a, b):
        result = _apply2(np.minimum, a, b)
        self._count_flops(result)
        return result


#: the namespace every kernel runs under (``from repro.minitriton import tl``)
tl = _Language()
