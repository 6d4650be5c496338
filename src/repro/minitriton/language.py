"""The ``tl.*`` language subset used by the paper's Triton benchmarks.

This module is imported as ``tl`` inside generated kernels.  It implements,
on top of NumPy, exactly the operations the evaluation kernels use:

``program_id``, ``num_programs``, ``arange``, ``zeros``, ``full``, ``load``,
``store``, ``dot``, ``cdiv``, ``sum``, ``max``, ``exp``, ``log``, ``sqrt``,
``rsqrt``, ``where``, ``maximum``, ``minimum``, ``abs`` and the dtype markers
``float16``/``float32``/``int32`` plus ``constexpr``.

Semantics follow Triton's block-program model: a kernel instance ("program")
operates on whole blocks (NumPy arrays); the launcher in
:mod:`repro.minitriton.runtime` runs one Python call per program id.  Every
``load``/``store``/``dot`` optionally records volume and coalescing
information into the active :class:`KernelTrace`, which feeds the analytic
performance model.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field

import numpy as np

from ..gpusim.sharedmem import AccessLog

__all__ = [
    "constexpr",
    "float16",
    "float32",
    "int32",
    "int64",
    "KernelTrace",
    "DeviceBuffer",
    "PointerArray",
    "program_id",
    "num_programs",
    "arange",
    "zeros",
    "full",
    "load",
    "store",
    "dot",
    "cdiv",
    "sum",
    "max",
    "min",
    "exp",
    "log",
    "sqrt",
    "rsqrt",
    "abs",
    "where",
    "maximum",
    "minimum",
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
    """A NumPy array with Triton's ``.to(dtype)`` conversion method."""

    def to(self, dtype) -> "TlTensor":
        return np.asarray(self).astype(_np_dtype(dtype)).view(TlTensor)


def _as_tensor(values) -> TlTensor:
    return np.asarray(values).view(TlTensor)


# ---------------------------------------------------------------------------
# execution state (set by the launcher) and tracing
# ---------------------------------------------------------------------------


@dataclass
class KernelTrace(AccessLog):
    """Memory-traffic and arithmetic counters accumulated across programs.

    The batched engine appends its accesses to the trace's log
    (:class:`~repro.gpusim.sharedmem.AccessLog`) and the launcher flushes it;
    the per-program reference below counts each access's sectors on the spot.
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
    #: DRAM sector granularity (bytes) the transaction counters were
    #: recorded at — the trace->cost adapter charges moved bytes at the same
    #: size, so recording and costing can never disagree
    sector_bytes: int = 32
    extras: dict = field(default_factory=dict)

    @property
    def dram_bytes(self) -> float:
        return self.load_bytes + self.store_bytes


class _State:
    """Per-launch execution state (program ids, grid shape, active trace)."""

    def __init__(self):
        self.program_ids: tuple[int, int, int] = (0, 0, 0)
        self.grid: tuple[int, int, int] = (1, 1, 1)
        self.trace: KernelTrace | None = None
        #: DRAM sector granularity transactions are counted at; the launcher
        #: sets it from the target :class:`~repro.gpusim.DeviceSpec`
        self.sector_bytes: int = 32


_state = _State()


def _get_state() -> _State:
    return _state


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
        return PointerArray(self, np.asarray(offsets))

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"DeviceBuffer({self.name}, n={self.data.size}, dtype={self.data.dtype})"


class PointerArray:
    """A buffer plus an array of element offsets (the result of ``ptr + offs``)."""

    def __init__(self, buffer: DeviceBuffer, offsets: np.ndarray):
        self.buffer = buffer
        self.offsets = np.asarray(offsets, dtype=np.int64)

    def __add__(self, more) -> "PointerArray":
        return PointerArray(self.buffer, self.offsets + np.asarray(more))

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"PointerArray({self.buffer.name}, shape={self.offsets.shape})"


# ---------------------------------------------------------------------------
# program / grid queries
# ---------------------------------------------------------------------------


def program_id(axis: int) -> int:
    """Index of the current program along ``axis`` of the launch grid."""
    return _state.program_ids[axis]


def num_programs(axis: int) -> int:
    """Number of programs along ``axis`` of the launch grid."""
    return _state.grid[axis]


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


# ---------------------------------------------------------------------------
# memory operations (traced)
# ---------------------------------------------------------------------------


def _record_access(offsets: np.ndarray, element_bytes: int, is_store: bool) -> None:
    trace = _state.trace
    if trace is None:
        return
    count = float(offsets.size)
    byte_addresses = offsets.reshape(-1) * element_bytes
    sectors = np.unique(byte_addresses // _state.sector_bytes)
    transactions = float(sectors.size)
    if is_store:
        trace.store_elements += count
        trace.store_bytes += count * element_bytes
        trace.store_transactions += transactions
    else:
        trace.load_elements += count
        trace.load_bytes += count * element_bytes
        trace.load_transactions += transactions


def load(pointer: PointerArray, mask=None, other=0.0) -> TlTensor:
    """Gather from a pointer block, honouring the optional mask."""
    if not isinstance(pointer, PointerArray):
        raise TypeError("tl.load expects a pointer expression (buffer + offsets)")
    offsets = pointer.offsets
    data = pointer.buffer.data
    if mask is None:
        if offsets.size and (offsets.min() < 0 or offsets.max() >= data.size):
            raise IndexError(
                f"out-of-bounds unmasked load on {pointer.buffer.name}: "
                f"range [{offsets.min()}, {offsets.max()}] vs size {data.size}"
            )
        values = data[offsets]
        _record_access(offsets, pointer.buffer.element_bytes, is_store=False)
        return _as_tensor(values)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), offsets.shape)
    safe_offsets = np.where(mask, offsets, 0)
    if safe_offsets.size and (safe_offsets.min() < 0 or safe_offsets.max() >= data.size):
        raise IndexError(f"masked load still out of bounds on {pointer.buffer.name}")
    values = np.where(mask, data[safe_offsets], other)
    _record_access(offsets[mask], pointer.buffer.element_bytes, is_store=False)
    return _as_tensor(values)


def store(pointer: PointerArray, value, mask=None) -> None:
    """Scatter a block to memory, honouring the optional mask."""
    if not isinstance(pointer, PointerArray):
        raise TypeError("tl.store expects a pointer expression (buffer + offsets)")
    offsets = pointer.offsets
    data = pointer.buffer.data
    value = np.broadcast_to(np.asarray(value), offsets.shape)
    if mask is None:
        if offsets.size and (offsets.min() < 0 or offsets.max() >= data.size):
            raise IndexError(
                f"out-of-bounds unmasked store on {pointer.buffer.name}: "
                f"range [{offsets.min()}, {offsets.max()}] vs size {data.size}"
            )
        data[offsets] = value.astype(data.dtype, copy=False)
        _record_access(offsets, pointer.buffer.element_bytes, is_store=True)
        return
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), offsets.shape)
    flat_offsets = offsets[mask]
    if flat_offsets.size and (flat_offsets.min() < 0 or flat_offsets.max() >= data.size):
        raise IndexError(f"masked store still out of bounds on {pointer.buffer.name}")
    data[flat_offsets] = value[mask].astype(data.dtype, copy=False)
    _record_access(flat_offsets, pointer.buffer.element_bytes, is_store=True)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def dot(a, b, acc=None) -> TlTensor:
    """Block matrix multiply with float32 accumulation (tensor-core ``tl.dot``)."""
    a = np.asarray(a)
    b = np.asarray(b)
    result = np.matmul(a.astype(np.float32), b.astype(np.float32))
    if acc is not None:
        result = result + np.asarray(acc, dtype=np.float32)
    trace = _state.trace
    if trace is not None:
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-1]
        flops = 2.0 * m * n * k
        trace.flops += flops
        if a.dtype == np.float16 or b.dtype == np.float16:
            trace.tensor_core_flops += flops
    return _as_tensor(result)


def cdiv(a: int, b: int) -> int:
    """Ceiling division."""
    return -(-int(a) // int(b))


def _count_flops(array, per_element: float = 1.0) -> None:
    trace = _state.trace
    if trace is not None:
        trace.flops += float(np.asarray(array).size) * per_element


def sum(x, axis=None):  # noqa: A001 - Triton spelling
    _count_flops(x)
    return _as_tensor(np.sum(np.asarray(x, dtype=np.float32), axis=axis))


def max(x, axis=None):  # noqa: A001 - Triton spelling
    _count_flops(x)
    return _as_tensor(np.max(np.asarray(x), axis=axis))


def min(x, axis=None):  # noqa: A001 - Triton spelling
    _count_flops(x)
    return _as_tensor(np.min(np.asarray(x), axis=axis))


def exp(x):
    _count_flops(x)
    return _as_tensor(np.exp(np.asarray(x, dtype=np.float32)))


def log(x):
    _count_flops(x)
    return _as_tensor(np.log(np.asarray(x, dtype=np.float32)))


def sqrt(x):
    _count_flops(x)
    return _as_tensor(np.sqrt(np.asarray(x, dtype=np.float32)))


def rsqrt(x):
    _count_flops(x)
    return _as_tensor(1.0 / np.sqrt(np.asarray(x, dtype=np.float32)))


def abs(x):  # noqa: A001 - Triton spelling
    _count_flops(x)
    return _as_tensor(np.abs(np.asarray(x)))


def where(cond, a, b):
    _count_flops(cond)
    return _as_tensor(np.where(np.asarray(cond), a, b))


def maximum(a, b):
    _count_flops(a)
    return _as_tensor(np.maximum(np.asarray(a), np.asarray(b)))


def minimum(a, b):
    _count_flops(a)
    return _as_tensor(np.minimum(np.asarray(a), np.asarray(b)))
