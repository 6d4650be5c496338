"""Whole-grid batched execution of mini-Triton kernels.

The tree-walk launcher runs one Python call per program id.  Here the
kernel source is re-executed under a *batched* ``tl`` namespace in which
``tl.program_id`` returns an array holding every launched program id at
once, so a single pass through the kernel body evaluates the whole grid:
values derived from the program id become :class:`BatchedTensor`\\ s —
NumPy arrays with a leading batch (program) axis — while values that do
not depend on the program id stay plain arrays shared by all programs,
exactly as a register common to all CTAs would be.

Alignment convention: a ``BatchedTensor`` stores ``data`` of shape
``(P,) + block_shape``; binary operations pad the shorter *block* rank
with leading singleton axes (after the batch axis), so plain operands
broadcast right-aligned into the block dims and never touch the batch
axis.  An access is appended to the trace's log
(:class:`repro.gpusim.sharedmem.AccessLog`) as a ``(P, block)`` matrix — a row
is a program, deduplicated whole, its mask riding along; a program-uniform
access is one row with ``repeat = P`` — and the sector totals the log commits
match the tree-walk's per-program dedup.  Stores flatten in C (program-major)
order so duplicate offsets resolve identically to sequential program
execution.
"""

from __future__ import annotations

import builtins
from typing import Callable, Mapping

import numpy as np

from ..minitriton import language as tl
from ..minitriton.language import DeviceBuffer, KernelTrace, _np_dtype

__all__ = ["BatchedTensor", "batched_tl", "launch_batched"]


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
    rank = builtins.max(_block_rank(a), _block_rank(b))
    return BatchedTensor(op(_aligned_raw(a, rank), _aligned_raw(b, rank)), rank)


def _make_binop(op, reflected: bool):
    def method(self, other):
        if isinstance(other, (_BatchedDeviceBuffer, _BatchedPointerArray)):
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


class _BatchedDeviceBuffer:
    """Wrapper handed to kernels in place of a :class:`DeviceBuffer` argument."""

    __slots__ = ("buffer",)

    def __init__(self, buffer: DeviceBuffer):
        self.buffer = buffer

    def __add__(self, offsets) -> "_BatchedPointerArray":
        return _BatchedPointerArray(self.buffer, offsets)

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"BatchedDeviceBuffer({self.buffer.name})"


class _BatchedPointerArray:
    """``buffer + offsets`` where offsets may be batched or program-uniform."""

    __slots__ = ("buffer", "offsets")

    def __init__(self, buffer: DeviceBuffer, offsets):
        self.buffer = buffer
        self.offsets = offsets

    def __add__(self, more) -> "_BatchedPointerArray":
        return _BatchedPointerArray(self.buffer, _apply2(np.add, self.offsets, more))

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"BatchedPointerArray({self.buffer.name})"


class _BatchedLanguage:
    """The ``tl`` namespace generated kernels see during a batched launch.

    Mirrors :mod:`repro.minitriton.language` operation for operation; the
    flop-counting rule is that a program-uniform value would have been
    computed by every program, so plain operands count ``size * P``
    while batched operands already carry the program axis in their size.
    """

    # dtype markers and constructors are the language module's own
    constexpr = tl.constexpr
    float16 = tl.float16
    float32 = tl.float32
    int32 = tl.int32
    int64 = tl.int64
    arange = staticmethod(tl.arange)
    zeros = staticmethod(tl.zeros)
    full = staticmethod(tl.full)

    def __init__(self):
        self._trace: KernelTrace | None = None
        self._pids: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._grid: tuple[int, int, int] = (1, 1, 1)
        self._sector_bytes: int = 32
        self._programs: int = 0

    # -- launch state ------------------------------------------------------

    def _begin(self, pids, grid, trace, sector_bytes):
        self._pids = pids
        self._grid = grid
        self._trace = trace
        self._sector_bytes = sector_bytes
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
        """Element count of ``x`` summed over programs (the tree-walk total)."""
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

    def _log(self, rows: np.ndarray, element_bytes: int, is_store: bool, count: float,
             repeat: int = 1, valid: np.ndarray | None = None) -> None:
        trace = self._trace
        trace.log_global(rows, element_bytes, self._sector_bytes, rows.shape[1], is_store,
                         repeat, valid)
        if is_store:
            trace.store_elements += count
            trace.store_bytes += count * element_bytes
        else:
            trace.load_elements += count
            trace.load_bytes += count * element_bytes

    # -- memory operations -------------------------------------------------

    def load(self, pointer, mask=None, other=0.0):
        if not isinstance(pointer, _BatchedPointerArray):
            raise TypeError("tl.load expects a pointer expression (buffer + offsets)")
        data = pointer.buffer.data
        element_bytes = pointer.buffer.element_bytes
        offsets = pointer.offsets
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
                if raw.size and (raw.min() < 0 or raw.max() >= data.size):
                    raise IndexError(
                        f"out-of-bounds unmasked load on {pointer.buffer.name}: "
                        f"range [{raw.min()}, {raw.max()}] vs size {data.size}"
                    )
                self._record_batched(raw, element_bytes, is_store=False)
                return BatchedTensor(data[raw], offsets.block_ndim)
            rank = builtins.max(offsets.block_ndim, _block_rank(mask))
            raw = _aligned_raw(offsets, rank).astype(np.int64, copy=False)
            mask_raw = np.broadcast_to(
                np.asarray(_aligned_raw(mask, rank), dtype=bool), raw.shape
            )
            safe = np.where(mask_raw, raw, 0)
            if safe.size and (safe.min() < 0 or safe.max() >= data.size):
                raise IndexError(f"masked load still out of bounds on {pointer.buffer.name}")
            other_raw = _aligned_raw(other, rank) if isinstance(other, BatchedTensor) else other
            values = np.where(mask_raw, data[safe], other_raw)
            self._record_batched(raw, element_bytes, is_store=False, valid=mask_raw)
            return BatchedTensor(values, rank)
        # program-uniform access: identical in every program
        raw = np.asarray(offsets, dtype=np.int64)
        if mask is None:
            if raw.size and (raw.min() < 0 or raw.max() >= data.size):
                raise IndexError(
                    f"out-of-bounds unmasked load on {pointer.buffer.name}: "
                    f"range [{raw.min()}, {raw.max()}] vs size {data.size}"
                )
            self._record_uniform(raw, element_bytes, is_store=False)
            return tl._as_tensor(data[raw])
        mask_raw = np.broadcast_to(np.asarray(mask, dtype=bool), raw.shape)
        safe = np.where(mask_raw, raw, 0)
        if safe.size and (safe.min() < 0 or safe.max() >= data.size):
            raise IndexError(f"masked load still out of bounds on {pointer.buffer.name}")
        values = np.where(mask_raw, data[safe], other)
        self._record_uniform(raw, element_bytes, is_store=False, valid=mask_raw)
        return tl._as_tensor(values)

    def store(self, pointer, value, mask=None) -> None:
        if not isinstance(pointer, _BatchedPointerArray):
            raise TypeError("tl.store expects a pointer expression (buffer + offsets)")
        data = pointer.buffer.data
        element_bytes = pointer.buffer.element_bytes
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
            if raw.size and (raw.min() < 0 or raw.max() >= data.size):
                raise IndexError(
                    f"out-of-bounds unmasked store on {pointer.buffer.name}: "
                    f"range [{raw.min()}, {raw.max()}] vs size {data.size}"
                )
            # C-order flatten is program-major: duplicate offsets resolve to
            # the highest program id, matching sequential execution
            data[raw.reshape(-1)] = values.reshape(-1).astype(data.dtype, copy=False)
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
        a_raw = a.data if isinstance(a, BatchedTensor) else np.asarray(a)
        b_raw = b.data if isinstance(b, BatchedTensor) else np.asarray(b)
        batched = isinstance(a, BatchedTensor) or isinstance(b, BatchedTensor)
        result = np.matmul(a_raw.astype(np.float32), b_raw.astype(np.float32))
        if acc is not None:
            acc_raw = acc.data if isinstance(acc, BatchedTensor) else np.asarray(acc, dtype=np.float32)
            result = result + np.asarray(acc_raw, dtype=np.float32)
        m, k = a_raw.shape[-2], a_raw.shape[-1]
        n = b_raw.shape[-1]
        flops = 2.0 * m * n * k * self._programs
        self._trace.flops += flops
        if a_raw.dtype == np.float16 or b_raw.dtype == np.float16:
            self._trace.tensor_core_flops += flops
        if batched:
            return BatchedTensor(result, 2)
        return tl._as_tensor(result)

    def cdiv(self, a, b):
        if isinstance(a, BatchedTensor) or isinstance(b, BatchedTensor):
            return -(-a // b)
        return tl.cdiv(a, b)

    # -- reductions --------------------------------------------------------

    def _reduce(self, np_op, x, axis, cast=None):
        self._count_flops(x)
        if isinstance(x, BatchedTensor):
            data = x.data if cast is None else x.data.astype(cast)
            if axis is None:
                # the tree-walk reduces each program's flat block, so the
                # batched twin reduces each row of the (P, -1) view — the
                # element order (and hence pairwise summation) is identical
                return BatchedTensor(np_op(data.reshape(data.shape[0], -1), axis=1), 0)
            data_axis = axis + 1 if axis >= 0 else axis
            return BatchedTensor(np_op(data, axis=data_axis), x.block_ndim - 1)
        arr = np.asarray(x) if cast is None else np.asarray(x, dtype=cast)
        return tl._as_tensor(np_op(arr, axis=axis))

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
        return tl._as_tensor(np_op(arr))

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

    def where(self, cond, a, b):
        self._count_flops(cond)
        if not any(isinstance(v, BatchedTensor) for v in (cond, a, b)):
            return tl._as_tensor(np.where(np.asarray(cond), a, b))
        rank = builtins.max(_block_rank(cond), _block_rank(a), _block_rank(b))
        raws = [np.asarray(_aligned_raw(v, rank)) for v in (cond, a, b)]
        return BatchedTensor(np.where(*raws), rank)

    def maximum(self, a, b):
        self._count_flops(a)
        return _apply2(np.maximum, a, b)

    def minimum(self, a, b):
        self._count_flops(a)
        return _apply2(np.minimum, a, b)


def _np_shape(x) -> tuple:
    return np.asarray(x).shape if not isinstance(x, np.ndarray) else x.shape


batched_tl = _BatchedLanguage()


def _namespace_min(*args, **kwargs):
    """``min`` builtin that understands batched scalars (``min(GM, nt_m - pid)``)."""
    if len(args) == 2 and not kwargs and any(isinstance(a, BatchedTensor) for a in args):
        return _apply2(np.minimum, args[0], args[1])
    return builtins.min(*args, **kwargs)


def _namespace_max(*args, **kwargs):
    if len(args) == 2 and not kwargs and any(isinstance(a, BatchedTensor) for a in args):
        return _apply2(np.maximum, args[0], args[1])
    return builtins.max(*args, **kwargs)


_COMPILE_CACHE: dict[tuple[str, str], Callable] = {}


def _compile_batched(source: str, kernel_name: str) -> Callable:
    """Re-execute kernel source under the batched ``tl`` namespace (cached)."""
    key = (source, kernel_name)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        return cached
    from ..minitriton.runtime import TritonJitShim

    namespace: dict[str, object] = {
        "tl": batched_tl,
        "triton": TritonJitShim(),
        "min": _namespace_min,
        "max": _namespace_max,
        "range": range,
    }
    code = compile(source, filename=f"<lego-kernel-batched:{kernel_name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generated by this package, not user input
    fn = namespace[kernel_name]
    _COMPILE_CACHE[key] = fn
    return fn


#: programs executed per batched pass (chunks run in increasing id order, which
#: keeps the program-major store order intact).  It counts programs, not lanes
#: — the block size is unknown before the body runs — so it is the slab
#: (:data:`repro.vm.engine.SLAB_ELEMENTS`) in its own unit.  Best-of-15 launch,
#: ms, at 8192 / 2048 / 1024 / 512 / 256 programs a pass: softmax 7.2 / 4.2 /
#: 4.3 / 4.7 / 5.7, layernorm 7.1 / 4.3 / 4.5 / 5.1 / 6.7, matmul 35.2 / 35.2 /
#: 34.5 / 38.6 / 43.2, grouped GEMM 18.8 / 18.8 / 18.8 / 21.3 / 24.8 — do not
#: go below 1024.
PROGRAM_CHUNK = 1024


def launch_batched(
    kernel: Callable,
    grid3: tuple[int, int, int],
    kernel_args: Mapping[str, object],
    run_trace: KernelTrace,
    total: int,
    sector_bytes: int,
) -> None:
    """Execute all ``total`` programs of the grid in vectorized batches.

    Counters accumulate into ``run_trace`` (which the caller owns) and
    device buffers are mutated in place, exactly as the per-program loop
    would have.  Raises when the kernel was not compiled through
    :func:`repro.minitriton.compile_kernel` (no attached source) or uses
    a construct the batched namespace cannot express.
    """
    source = getattr(kernel, "_lego_source", None)
    name = getattr(kernel, "_lego_name", None)
    if not source or not name:
        raise TypeError("kernel carries no source; batched execution unavailable")
    fn = _compile_batched(source, name)
    ids = np.arange(total, dtype=np.int64)
    wrapped = {
        key: _BatchedDeviceBuffer(value) if isinstance(value, DeviceBuffer) else value
        for key, value in kernel_args.items()
    }
    for start in range(0, total, PROGRAM_CHUNK):
        chunk = ids[start:start + PROGRAM_CHUNK]
        pid0 = chunk % grid3[0]
        pid1 = (chunk // grid3[0]) % grid3[1]
        pid2 = chunk // (grid3[0] * grid3[1])
        batched_tl._begin((pid0, pid1, pid2), grid3, run_trace, sector_bytes)
        try:
            fn(**wrapped)
        finally:
            batched_tl._end()
