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
Pointer arithmetic keeps its structure: ``+``/``-`` of program-id scalars,
int64 blocks and ints, and ``*`` by an int, go through the substrates' one
combiner (:func:`repro.vm.split.combine`) and yield :class:`SplitOffsets` — a
:class:`~repro.vm.split.SplitIndex` whose block part is the program and whose
lanes are the block pattern.  An unmasked ``load``/``store`` checks and
decomposes it with :func:`~repro.vm.split.split_access`, and a dense one with
:func:`~repro.vm.split.flat_index`, so its ``IndexError`` reads as mini-CUDA's
and MLIR's; everything else materialises it.  An unmasked load whose bases
repeat gathers each distinct tile once (:class:`SharedTiles`).  Which programs
share a tile (the tile classes, :func:`~repro.gpusim.sharedmem.distinct_bases`)
depends only on the bases relative to the first, so a pass computes them once
per such pattern and every later load reuses them (a GEMM's K step only moves
its bases).  ``tl.dot`` of two shared-tile operands multiplies each distinct
tile pair once when the pairs are no more than the programs, and casts each
tile once otherwise.

The launch state — the pass's program ids, the launch trace and the tile
classes — lives on :data:`tl` per thread, so threads that launch at once do
not see each other's pass.

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
import threading
from dataclasses import dataclass, field

import numpy as np

from ..gpusim.sharedmem import AccessLog, distinct_bases
from ..vm.split import SplitIndex, combine, flat_index, split_access

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

    tensor_core_flops: float = 0.0
    programs: int = 0
    extras: dict = field(default_factory=dict)


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

    def __bool__(self):
        # one kernel body runs every program of the pass: a branch would take
        # one side for all of them, whatever each program's own value says
        raise TypeError(
            "a program-dependent value has no single truth value: `if`, `while`, "
            "`and`/`or`/`not`, chained comparisons and `min`/`max` with a key= "
            "cannot branch per program; use tl.where, tl.minimum or tl.maximum"
        )

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


class SplitOffsets(BatchedTensor):
    """Pointer offsets that keep their :class:`~repro.vm.split.SplitIndex`.

    Program-id-derived pointer arithmetic builds ``split`` (see
    :func:`_apply2`): its block part is ``(P, 1)``, its lane part the
    program-uniform block pattern.  ``data`` is the materialised ``(P,) +
    block`` array — what every other op, dtype or mask reads — built once, on
    first use.
    """

    __slots__ = ("split",)

    def __init__(self, split: SplitIndex):
        self.split = split
        self.block_ndim = split.lane.ndim

    @property
    def data(self) -> np.ndarray:
        return self.split.data


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


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: the ops that keep pointer offsets split
_SPLIT_OPS = (np.add, np.subtract, np.multiply)


def _parts(x):
    """Split parts (:func:`repro.vm.split.combine`) of an operand that may join
    pointer offsets — split offsets, an int64 program value (the block part), an
    int64 block (a lane of any rank) or a Python int — else ``None``."""
    if type(x) is SplitOffsets:
        split = x.split
        return split.block, split.lane, split.offset, split._block_span, split._lane_span
    if isinstance(x, BatchedTensor):
        if x.block_ndim == 0 and x.data.dtype == np.int64:
            return x.data[:, None], None, 0, None, None
        return None
    if type(x) is int:
        return (None, None, x, None, None) if _INT64_MIN <= x <= _INT64_MAX else None
    if isinstance(x, np.ndarray) and x.dtype == np.int64:
        if x.ndim == 0:
            return None, None, int(x), None, None
        # a plain copy: the split must not follow a later in-place update of x
        return None, np.array(x), 0, None, None
    return None


def _has_lanes(x) -> bool:
    return type(x) is SplitOffsets or (isinstance(x, np.ndarray) and x.ndim > 0)


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
    # +/- of program values, int64 blocks and ints, and * by an int, keep the split
    # once some operand has lanes
    if op in _SPLIT_OPS and (_has_lanes(a) or _has_lanes(b)):
        split = combine(op, _parts(a), _parts(b))
        if split is not None:
            return SplitOffsets(split)
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
        #: ``(extent, stride)`` of the one flat axis every access checks against
        self.axes = ((self.data.size, 1),)

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


def _tile_pair_product(a: SharedTiles, b: SharedTiles) -> np.ndarray:
    """``a.data @ b.data`` in float32, multiplying each distinct tile pair once.

    Every ``(i, j)`` product of ``a.tiles[i] @ b.tiles[j]`` is one matrix
    product of the same two float32 tiles the per-program product would
    multiply, so gathering program ``p``'s at ``(a.index[p], b.index[p])`` is
    bit-identical to it.
    """
    pairs = np.matmul(a.tiles.astype(np.float32)[:, None], b.tiles.astype(np.float32)[None, :])
    return pairs[a.index, b.index]


# ---------------------------------------------------------------------------
# the namespace
# ---------------------------------------------------------------------------


class _Language(threading.local):
    """The ``tl`` namespace generated kernels see.

    The launcher binds a pass of program ids and the launch trace around
    each call of the kernel.  That launch state is per thread: two threads
    that launch at once each see their own pass, trace and tile classes.
    The flop-counting rule is that a program-uniform value would have been
    computed by every program, so plain operands count ``size * P`` while
    batched operands already carry the program axis in their size.
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
        #: the pass's tile classes: ``(base - base[0]).tobytes()`` -> the
        #: :func:`distinct_bases` of those relative bases
        self._classes: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    # -- launch state ------------------------------------------------------

    def _begin(self, pids, grid, trace):
        self._pids = pids
        self._grid = grid
        self._trace = trace
        self._programs = int(pids[0].size)
        self._classes = {}

    def _end(self):
        self._pids = None
        self._trace = None
        self._programs = 0
        self._classes = {}

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
        self._trace.log_global(flat, element_bytes, flat.shape[1], is_store, valid=valid)

    def _record_uniform(self, offsets: np.ndarray, element_bytes: int,
                        is_store: bool, valid: np.ndarray | None = None) -> None:
        """A program-uniform access repeats identically in every program."""
        flat = offsets.reshape(-1)
        if valid is not None:
            flat = flat[np.broadcast_to(valid, offsets.shape).reshape(-1)]
        self._trace.log_global(flat[None, :], element_bytes, flat.size, is_store,
                               repeat=self._programs)

    def _split(self, buffer: DeviceBuffer, offsets):
        """``(base, pattern)`` of unmasked offsets that keep their split, else ``None``
        (:func:`repro.vm.split.split_access`)."""
        if type(offsets) is not SplitOffsets:
            return None
        return split_access(buffer.name, buffer.axes, (offsets.split,), self._programs)

    def _gather(self, data: np.ndarray, base: np.ndarray, pattern: np.ndarray,
                block_shape: tuple) -> BatchedTensor:
        """``data[base + pattern]`` (``base`` ``(P, 1)``, ``pattern`` a flat block of
        ``block_shape``), gathering each distinct base's tile once when bases repeat.

        One program, or bases strictly increasing (a row per program), cannot
        repeat: one compare pass and the plain gather.  Which programs share a
        tile depends only on the bases relative to the first, and a loop step
        moves every base by one amount, so the pass computes the classes of
        each relative pattern once and every later load reuses them.
        """
        base = base.reshape(-1)
        if base.size > 1 and not (base[1:] > base[:-1]).all():
            first = int(base[0])
            relative = base - first
            key = relative.tobytes()
            classes = self._classes.get(key)
            if classes is None:
                unique, index = distinct_bases(relative)
                index.flags.writeable = False  # every load of the pattern shares it
                classes = self._classes[key] = (unique, index)
            unique, index = classes
            if unique.size < base.size:
                return SharedTiles(data[unique[:, None] + (pattern + first)]
                                   .reshape(unique.shape + block_shape), index)
        return BatchedTensor(data[base[:, None] + pattern].reshape(base.shape + block_shape),
                             len(block_shape))

    # -- memory operations -------------------------------------------------

    def load(self, pointer, mask=None, other=0.0):
        """Gather from a pointer block, honouring the optional mask."""
        if not isinstance(pointer, PointerArray):
            raise TypeError("tl.load expects a pointer expression (buffer + offsets)")
        buffer = pointer.buffer
        data = buffer.data
        element_bytes = buffer.element_bytes
        offsets = pointer.offsets
        split = self._split(buffer, offsets) if mask is None else None
        if split is not None:
            base, pattern = split
            self._trace.log_global_affine(base, pattern, element_bytes, pattern.size,
                                          is_store=False)
            return self._gather(data, base, pattern, offsets.split.lane.shape)
        if not isinstance(offsets, BatchedTensor) and isinstance(mask, BatchedTensor):
            # a uniform pointer guarded by a per-program mask gathers
            # differently in each program: replay it batched
            raw = np.broadcast_to(
                np.asarray(offsets, dtype=np.int64),
                (self._programs,) + np.asarray(offsets).shape,
            )
            offsets = BatchedTensor(raw, np.ndim(np.asarray(offsets)))
        if isinstance(offsets, BatchedTensor):
            if mask is None:
                raw = flat_index(buffer.name, buffer.axes, (offsets.data,))
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
        if mask is None:
            raw = flat_index(buffer.name, buffer.axes, (offsets,))
            self._record_uniform(raw, element_bytes, is_store=False)
            return _as_tensor(data[raw])
        raw = np.asarray(offsets, dtype=np.int64)
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
            split = self._split(buffer, offsets)
            if split is None:
                raw = flat_index(buffer.name, buffer.axes, (raw,))
            # C-order flatten is program-major: duplicate offsets resolve to
            # the highest program id, matching sequential execution
            data[raw.reshape(-1)] = values.reshape(-1).astype(data.dtype, copy=False)
            if split is None:
                self._record_batched(raw, element_bytes, is_store=True)
                return
            base, pattern = split
            lanes = offsets.split.lane.shape
            if raw.shape[1:] != lanes:  # the value widens the block
                pattern = np.broadcast_to(pattern.reshape(lanes), raw.shape[1:]).reshape(-1)
            self._trace.log_global_affine(base, pattern, element_bytes, pattern.size,
                                          is_store=True)
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
        """Block matrix multiply with float32 accumulation (tensor-core ``tl.dot``).

        Two shared-tile operands whose distinct tile pairs are no more than
        the programs multiply each pair once (:func:`_tile_pair_product`);
        every other pair multiplies per program.
        """
        if (isinstance(a, SharedTiles) and isinstance(b, SharedTiles)
                and a.tiles.shape[0] * b.tiles.shape[0] <= self._programs):
            a32, a_dtype, b32, b_dtype = a.tiles, a.tiles.dtype, b.tiles, b.tiles.dtype
            result = _tile_pair_product(a, b)
        else:
            (a32, a_dtype), (b32, b_dtype) = _fp32_operand(a), _fp32_operand(b)
            result = np.matmul(a32, b32)
        batched = isinstance(a, BatchedTensor) or isinstance(b, BatchedTensor)
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
