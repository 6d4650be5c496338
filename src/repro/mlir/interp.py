"""Interpreter for ``gpu.func`` kernels emitted by the LEGO MLIR backend.

The interpreter executes a pass of thread blocks at a time with all threads
of each block vectorised (each SSA value is a per-thread array with one row
per block, or a block-uniform value), mirroring the mini-CUDA substrate.
Global memrefs are NumPy buffers shared across blocks; workgroup (shared)
memrefs are allocated one row per block.  Loads and stores go to the launch
result's access log, which scores the per-warp sector transactions and
shared-memory bank conflicts that feed the analytic device model.

Supported operations: the ``arith`` / ``memref`` / ``gpu`` / ``scf`` subset
produced by :mod:`repro.codegen.mlir`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..gpusim.sharedmem import AccessLog, ConflictProfile
from ..vm import engine
from ..vm.engine import launch_extents, run_launch
from .ir import Block, FuncOp, Module, Operation, Value
from .types import MemRefType

__all__ = ["GpuLaunchResult", "run_gpu_kernel"]

#: CUDA defaults, used when no DeviceSpec is supplied to the launcher
_WARP = 32
_SECTOR_BYTES = 32


@dataclass
class GpuLaunchResult(AccessLog):
    """Traffic counters accumulated while interpreting a launch (final once its log is flushed)."""

    load_elements: float = 0.0
    store_elements: float = 0.0
    load_bytes: float = 0.0
    store_bytes: float = 0.0
    load_transactions: float = 0.0
    store_transactions: float = 0.0
    smem_bytes: float = 0.0
    smem_profile: ConflictProfile = field(default_factory=ConflictProfile)
    flops: float = 0.0
    blocks: int = 0
    threads_per_block: int = 0
    smem_per_block: int = 0
    #: DRAM sector granularity (bytes) the transaction counters were
    #: recorded at; moved-byte accounting uses the same size
    sector_bytes: int = _SECTOR_BYTES

    @property
    def dram_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    @property
    def moved_dram_bytes(self) -> float:
        return (self.load_transactions + self.store_transactions) * float(self.sector_bytes)

    @property
    def bank_conflict_factor(self) -> float:
        return self.smem_profile.average_degree


class _BlockExecutor:
    """Executes one function body for a pass of thread blocks at once.

    ``gpu.block_id`` binds to ``(B, 1)`` arrays, so every block's SSA values
    materialise together: per-thread values broadcast to ``(B, T)`` rows,
    block-uniform values stay rank <= 1 (logged once with ``repeat = B``).
    ``memref.alloc`` buffers get one row per block; kernel argument buffers
    stay flat and are shared by all blocks.
    """

    def __init__(
        self,
        block_ids: np.ndarray,
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        memrefs: Mapping[int, np.ndarray],
        result: GpuLaunchResult,
        warp_size: int = _WARP,
    ):
        batch = int(block_ids.size)
        self.block_idx = (
            (block_ids % grid_dim[0]).reshape(batch, 1),
            ((block_ids // grid_dim[0]) % grid_dim[1]).reshape(batch, 1),
            (block_ids // (grid_dim[0] * grid_dim[1])).reshape(batch, 1),
        )
        self._batch = batch
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.warp_size = warp_size
        self.memrefs = dict(memrefs)  # id(Value) -> numpy buffer
        self.memref_types: dict[int, MemRefType] = {}
        #: in-kernel allocations, one row per block
        self._batched_buffers: set[int] = set()
        self.shared_allocated = 0
        self.result = result
        count = block_dim[0] * block_dim[1] * block_dim[2]
        linear = np.arange(count, dtype=np.int64)
        self.thread_ids = {
            "x": linear % block_dim[0],
            "y": (linear // block_dim[0]) % block_dim[1],
            "z": linear // (block_dim[0] * block_dim[1]),
        }
        self.values: dict[int, object] = {}

    # -- value helpers ------------------------------------------------------------

    def get(self, value: Value):
        try:
            return self.values[id(value)]
        except KeyError as exc:
            raise KeyError(f"use of undefined SSA value {value}") from exc

    def set(self, value: Value, concrete) -> None:
        self.values[id(value)] = concrete

    # -- execution ------------------------------------------------------------------

    def run_block(self, block: Block) -> None:
        for op in block.operations:
            self.run_operation(op)

    def run_operation(self, op: Operation) -> None:
        name = op.name
        if name == "arith.constant":
            self.set(op.result, op.attributes["value"])
        elif name in ("arith.addi", "arith.addf"):
            self.set(op.result, self.get(op.operands[0]) + self.get(op.operands[1]))
            self._count_flops(op)
        elif name in ("arith.subi",):
            self.set(op.result, self.get(op.operands[0]) - self.get(op.operands[1]))
        elif name in ("arith.muli", "arith.mulf"):
            self.set(op.result, self.get(op.operands[0]) * self.get(op.operands[1]))
            self._count_flops(op)
        elif name == "arith.divsi":
            self.set(op.result, self.get(op.operands[0]) // self.get(op.operands[1]))
        elif name == "arith.remsi":
            self.set(op.result, self.get(op.operands[0]) % self.get(op.operands[1]))
        elif name == "arith.minsi":
            self.set(op.result, np.minimum(self.get(op.operands[0]), self.get(op.operands[1])))
        elif name == "arith.maxsi":
            self.set(op.result, np.maximum(self.get(op.operands[0]), self.get(op.operands[1])))
        elif name == "arith.cmpi":
            self.set(op.result, self._compare(op))
        elif name == "arith.select":
            cond = self.get(op.operands[0])
            self.set(op.result, np.where(cond, self.get(op.operands[1]), self.get(op.operands[2])))
        elif name == "arith.index_cast":
            self.set(op.result, self.get(op.operands[0]))
        elif name == "gpu.thread_id":
            self.set(op.result, self.thread_ids[op.attributes["dimension"]])
        elif name == "gpu.block_id":
            axis = "xyz".index(op.attributes["dimension"])
            self.set(op.result, self.block_idx[axis])
        elif name == "gpu.block_dim":
            axis = "xyz".index(op.attributes["dimension"])
            self.set(op.result, self.block_dim[axis])
        elif name == "gpu.grid_dim":
            axis = "xyz".index(op.attributes["dimension"])
            self.set(op.result, self.grid_dim[axis])
        elif name == "gpu.barrier":
            pass  # threads execute in lockstep
        elif name in ("gpu.return", "func.return", "scf.yield"):
            pass
        elif name == "memref.alloc":
            self._alloc(op)
        elif name == "memref.load":
            self._load(op)
        elif name == "memref.store":
            self._store(op)
        elif name == "scf.for":
            self._for(op)
        else:
            raise NotImplementedError(f"interpreter does not support {name}")

    def _is_batched(self, array: np.ndarray) -> bool:
        """Whether a value differs per block (``True``) or is block-uniform."""
        if array.ndim == 2 and array.shape[0] == self._batch:
            return True
        if array.ndim <= 1:
            return False
        raise NotImplementedError(
            f"cannot classify a rank-{array.ndim} value: expected one row per block "
            f"({self._batch}) or a block-uniform value"
        )

    def _count_flops(self, op: Operation) -> None:
        if op.name.endswith("f"):
            value = self.values.get(id(op.results[0])) if op.results else None
            raw = np.asarray(value) if value is not None else np.asarray(1)
            # a block-uniform value is computed by every block
            self.result.flops += float(raw.size) * (1 if self._is_batched(raw) else self._batch)

    def _compare(self, op: Operation):
        predicate = op.attributes["predicate"]
        lhs = self.get(op.operands[0])
        rhs = self.get(op.operands[1])
        table = {
            "eq": np.equal,
            "ne": np.not_equal,
            "slt": np.less,
            "sle": np.less_equal,
            "sgt": np.greater,
            "sge": np.greater_equal,
        }
        return table[predicate](lhs, rhs)

    # -- memory ----------------------------------------------------------------------

    def _alloc(self, op: Operation) -> None:
        memref_type = op.result.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError("memref.alloc result must be a memref")
        buffer = np.zeros(
            (self._batch, memref_type.num_elements), dtype=memref_type.element_type.np_dtype
        )
        self.memrefs[id(op.result)] = buffer
        self.memref_types[id(op.result)] = memref_type
        self._batched_buffers.add(id(op.result))
        if memref_type.memory_space == 3:
            # allocation accounting is per block
            self.shared_allocated += int(buffer.nbytes // self._batch)
        self.set(op.result, op.result)

    def _flat_offsets(self, source: Value, index_values: Sequence) -> np.ndarray:
        memref_type = source.type
        assert isinstance(memref_type, MemRefType)
        shape = memref_type.shape
        arrays = [np.asarray(v, dtype=np.int64) for v in index_values]
        arrays = np.broadcast_arrays(*arrays) if len(arrays) > 1 else [np.asarray(arrays[0])]
        flat = arrays[0]
        for extent, coords in zip(shape[1:], arrays[1:]):
            flat = flat * extent + coords
        return np.atleast_1d(flat)

    def _buffer_of(self, source: Value) -> np.ndarray:
        key = id(source)
        if key in self.memrefs:
            return self.memrefs[key]
        # block argument bound through values (e.g. forwarded memref)
        bound = self.values.get(key)
        if bound is not None and id(bound) in self.memrefs:
            return self.memrefs[id(bound)]
        raise KeyError(f"memref {source} is not bound to a buffer")

    def _buffer_is_batched(self, source: Value) -> bool:
        if id(source) in self._batched_buffers:
            return True
        bound = self.values.get(id(source))
        return bound is not None and id(bound) in self._batched_buffers

    def _rows(self, offsets: np.ndarray) -> tuple[np.ndarray, int]:
        """An access as log rows: one per block, or the block-uniform row repeated."""
        if self._is_batched(offsets):
            return offsets, 1
        return offsets.reshape(1, -1), self._batch

    def _record_global(self, offsets: np.ndarray, element_bytes: int, is_store: bool) -> None:
        rows, repeat = self._rows(offsets)
        result = self.result
        result.log_global(rows, element_bytes, result.sector_bytes, self.warp_size, is_store,
                          repeat)
        count = float(rows.size * repeat)
        if is_store:
            result.store_elements += count
            result.store_bytes += count * element_bytes
        else:
            result.load_elements += count
            result.load_bytes += count * element_bytes

    def _record_shared(self, offsets: np.ndarray, element_bytes: int) -> None:
        rows, repeat = self._rows(offsets)
        self.result.smem_bytes += float(self._batch * rows.shape[1]) * element_bytes
        self.result.log_shared(rows, element_bytes, self.warp_size, repeat)

    def _record(self, memref_type: MemRefType, offsets: np.ndarray, element_bytes: int,
                is_store: bool) -> None:
        if memref_type.memory_space == 3:
            self._record_shared(offsets, element_bytes)
        else:
            self._record_global(offsets, element_bytes, is_store)

    def _load(self, op: Operation) -> None:
        source = op.operands[0]
        memref_type = source.type
        assert isinstance(memref_type, MemRefType)
        buffer = self._buffer_of(source)
        offsets = self._flat_offsets(source, [self.get(v) for v in op.operands[1:]])
        self._record(memref_type, offsets, buffer.dtype.itemsize, is_store=False)
        if not self._buffer_is_batched(source):
            values = buffer[offsets]
        elif self._is_batched(offsets):
            values = buffer[np.arange(self._batch)[:, None], offsets]
        else:
            values = buffer[:, offsets]
        self.set(op.result, values)

    def _store(self, op: Operation) -> None:
        value = self.get(op.operands[0])
        dest = op.operands[1]
        memref_type = dest.type
        assert isinstance(memref_type, MemRefType)
        buffer = self._buffer_of(dest)
        offsets = self._flat_offsets(dest, [self.get(v) for v in op.operands[2:]])
        self._record(memref_type, offsets, buffer.dtype.itemsize, is_store=True)
        raw = np.asarray(value, dtype=buffer.dtype)
        if not self._buffer_is_batched(dest):
            # flat argument buffer: C-order fancy assignment is block-major,
            # so duplicate offsets resolve to the highest block id
            buffer[offsets] = np.broadcast_to(raw, offsets.shape)
        elif self._is_batched(offsets):
            buffer[np.arange(self._batch)[:, None], offsets] = np.broadcast_to(raw, offsets.shape)
        else:
            buffer[:, offsets] = np.broadcast_to(raw, (self._batch,) + offsets.shape)

    # -- control flow -----------------------------------------------------------------

    def _for(self, op: Operation) -> None:
        bounds = [np.asarray(self.get(operand)) for operand in op.operands[:3]]
        if any(bound.ndim >= 2 for bound in bounds):
            raise NotImplementedError(
                "block-dependent scf.for bounds: every block of a pass runs the same iterations"
            )
        lower, upper, step = (int(bound.reshape(-1)[0]) for bound in bounds)
        body = op.regions[0].blocks[0]
        induction = body.arguments[0]
        for iv in range(lower, upper, step):
            self.set(induction, iv)
            self.run_block(body)


def run_gpu_kernel(
    module: Module,
    kernel_name: str,
    grid: tuple[int, int, int],
    block: tuple[int, int, int],
    arguments: Sequence[np.ndarray],
    device=None,
) -> GpuLaunchResult:
    """Interpret ``kernel_name`` from ``module`` over every block of a launch grid.

    ``arguments`` are NumPy arrays bound (in order) to the kernel's memref
    arguments; they are mutated in place by ``memref.store``.
    ``device`` (a :class:`~repro.gpusim.DeviceSpec`) supplies the warp width
    and DRAM sector granularity the traffic accounting uses instead of the
    CUDA-default 32/32.  The blocks run in passes of
    :data:`repro.vm.engine.SLAB_ELEMENTS` lanes.
    """
    grid = launch_extents(grid, "grid")
    block = launch_extents(block, "block")
    fn = module.get_function(kernel_name)
    if fn.kind != "gpu.func":
        raise ValueError(f"{kernel_name!r} is not a gpu.func kernel")
    if len(arguments) != len(fn.arguments):
        raise ValueError(
            f"kernel {kernel_name!r} expects {len(fn.arguments)} arguments, got {len(arguments)}"
        )

    flat_buffers: dict[int, np.ndarray] = {}
    for value, array in zip(fn.arguments, arguments):
        if isinstance(value.type, MemRefType):
            expected = value.type.num_elements
            flat = np.ascontiguousarray(array).reshape(-1)
            if flat.size != expected:
                raise ValueError(
                    f"argument for {value} has {flat.size} elements, expected {expected}"
                )
            flat_buffers[id(value)] = flat

    warp_size = device.warp_size if device is not None else _WARP
    threads = block[0] * block[1] * block[2]
    result = GpuLaunchResult(
        blocks=grid[0] * grid[1] * grid[2],
        threads_per_block=threads,
        sector_bytes=device.dram_sector_bytes if device is not None else _SECTOR_BYTES,
    )

    def execute(total, result):
        ids = np.arange(total, dtype=np.int64)
        blocks_per_pass = max(1, engine.SLAB_ELEMENTS // threads)
        smem_per_block = 0
        for start in range(0, total, blocks_per_pass):
            executor = _BlockExecutor(ids[start:start + blocks_per_pass], block, grid,
                                      flat_buffers, result, warp_size=warp_size)
            for value, array in zip(fn.arguments, arguments):
                executor.set(value, value if isinstance(value.type, MemRefType) else array)
            executor.run_block(fn.body)
            smem_per_block = max(smem_per_block, executor.shared_allocated)
        return smem_per_block

    result.smem_per_block = run_launch(result.blocks, execute, result)
    return result
