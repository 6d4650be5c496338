"""Indices that stay ``block + lane`` until the gather, on mini-CUDA and MLIR.

``ctx.blockIdx`` and ``ctx.tx/ty/tz`` (and the MLIR interpreter's
``gpu.block_id`` / ``gpu.thread_id``) are :class:`SplitIndex` values; a global
access whose indices all keep the split takes the closed form (bounds on the
parts' extrema, ``log_global_affine``, one gather at ``base + pattern``).
Every test here runs the same launch twice — once with the split indices,
once with the same indices materialised (``np.asarray``, or in MLIR every
index passed through ``arith.maxsi(v, 0)``), which is the dense path — and
requires the same values, the same counters and the same errors.
"""

import copy
import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.stencil import STENCILS, brick_layout, run_stencil
from repro.gpusim import A100_80GB
from repro.minicuda import GlobalArray, launch
from repro.minicuda.runtime import BlockContext
from repro.minicuda.smem import SplitIndex
from repro.mlir import interp, run_gpu_kernel
from repro.mlir.dialects import arith, build_gpu_module, gpu, memref
from repro.mlir.ir import OpBuilder, Operation, Value
from repro.mlir.types import F32, INDEX, MemRefType

DEVICES = [replace(A100_80GB, warp_size=warp, dram_sector_bytes=sector)
           for warp in (16, 32, 64) for sector in (32, 64)]
DTYPES = (np.int16, np.float32, np.float64)
SHAPES = [(threads, blocks) for threads in (1, 27, 64, 512) for blocks in (1, 3, 1024)]
KINDS = ("block-only", "lane-only", "mixed", "narrowed")


def _counters(trace) -> dict:
    return dataclasses.asdict(trace)


@pytest.fixture
def closed_forms(monkeypatch):
    """Counts the accesses that take the closed form."""
    taken = []
    record = BlockContext.record_global_affine

    def counted(self, *args, **kwargs):
        taken.append(1)
        return record(self, *args, **kwargs)

    monkeypatch.setattr(BlockContext, "record_global_affine", counted)
    return taken


def _kernel(kind, dense, threads):
    """Loads and stores of ``grid`` and ``out`` indexed by block, lane or both; with
    ``dense`` every index is materialised first, so the access takes the dense path."""
    as_given = np.asarray if dense else (lambda index: index)
    # lanes that collide, so the scatter's last writer decides
    collide = np.arange(threads, dtype=np.int64) // 2

    def kernel(ctx, grid, out):
        if kind == "narrowed":
            ctx = ctx.where_blocks(ctx.blockIdx.x % 3 != 1)
            if ctx is None:
                return
        bx, tx = ctx.blockIdx.x, ctx.tx
        # lanes 2k and 2k + 1 (and blocks three columns apart) write one element
        colliding = collide + tx * 0
        if kind == "block-only":
            rows, cols = bx, bx * 2 + 1
            target_cols = cols
        elif kind == "lane-only":
            rows, cols = tx * 0 + 2, tx + 5
            target_cols = colliding + 5
        else:
            rows, cols = bx * 1 + 0, bx * 3 + tx * 2 + 1
            target_cols = bx * 3 + 1 + colliding
        values = grid.load(ctx, as_given(rows), as_given(cols))
        ctx.trace.extras.setdefault("loaded", []).append(np.array(values))
        out.store(ctx, values * 2, as_given(rows), as_given(target_cols))
        out.store(ctx, values, as_given(rows - 0), as_given(cols))

    return kernel


def _launch(kind, dense, threads, blocks, dtype, device):
    rows, cols = blocks + 4, 3 * blocks + 2 * threads + 8
    source = (np.arange(rows * cols) % 251).astype(dtype).reshape(rows, cols)
    grid, out = GlobalArray(source, name="grid"), GlobalArray(np.zeros_like(source), name="out")
    trace = launch(_kernel(kind, dense, threads), grid=blocks, block=threads,
                   args=(grid, out), device=device)
    loaded = trace.extras.pop("loaded")
    return out.to_numpy(), loaded, _counters(trace)


@pytest.mark.parametrize("threads, blocks", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_the_closed_form_equals_the_dense_path(threads, blocks, dtype, closed_forms):
    device = DEVICES[(SHAPES.index((threads, blocks)) + DTYPES.index(dtype)) % len(DEVICES)]
    for kind in KINDS:
        closed_forms.clear()
        split = _launch(kind, False, threads, blocks, dtype, device)
        took = len(closed_forms)
        closed_forms.clear()
        dense = _launch(kind, True, threads, blocks, dtype, device)
        assert not closed_forms
        # only the accesses indexed by block and lane are split: three a pass
        assert took == (3 * len(split[1]) if kind in ("mixed", "narrowed") else 0), kind
        assert np.array_equal(split[0], dense[0]), kind
        assert len(split[1]) == len(dense[1])
        for mine, theirs in zip(split[1], dense[1]):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), kind
        assert split[2] == dense[2], kind


@pytest.mark.parametrize("device", DEVICES,
                         ids=lambda d: f"warp{d.warp_size}-sector{d.dram_sector_bytes}")
def test_every_warp_and_sector_size(device):
    for dtype in DTYPES:
        split = _launch("mixed", False, 64, 1024, dtype, device)
        dense = _launch("mixed", True, 64, 1024, dtype, device)
        assert np.array_equal(split[0], dense[0])
        assert split[2] == dense[2]


def _error(index_of, dense, blocks=3, threads=8):
    array = GlobalArray(np.zeros((4, 8), dtype=np.float32), name="grid")
    as_given = np.asarray if dense else (lambda index: index)

    def kernel(ctx):
        rows, cols = index_of(ctx)
        array.load(ctx, as_given(rows), as_given(cols))

    with pytest.raises((IndexError, TypeError)) as caught:
        launch(kernel, grid=blocks, block=threads)
    return caught.type, str(caught.value)


@pytest.mark.parametrize("index_of", [
    lambda ctx: (ctx.blockIdx.x, ctx.tx - 3),                    # negative lanes
    lambda ctx: (ctx.blockIdx.x - 1, ctx.tx),                    # a negative block
    lambda ctx: (ctx.blockIdx.x * 2, ctx.tx),                    # a block past the end
    lambda ctx: (ctx.blockIdx.x, ctx.tx + 1),                    # a lane past the end
    lambda ctx: (ctx.blockIdx.x + 1, ctx.blockIdx.x * 4 + ctx.tx - 5),  # both parts
    lambda ctx: (ctx.blockIdx.x * 0 + 9, ctx.tx * 0 - 4),        # every axis out
    lambda ctx: (ctx.blockIdx.x, ctx.tx * 1.0),                  # a float index
    lambda ctx: (ctx.blockIdx.x, ctx.tx + ((1 << 63) - 1)),      # wraps past int64
], ids=["negative-lane", "negative-block", "block-too-large", "lane-too-large", "mixed",
        "all-out", "float", "int64-edge"])
def test_errors_read_as_on_the_dense_path(index_of):
    assert _error(index_of, dense=False) == _error(index_of, dense=True)


def test_error_texts_are_todays():
    kind, text = _error(lambda ctx: (ctx.blockIdx.x, ctx.tx - 3), dense=False)
    assert kind is IndexError
    assert text == "grid: axis 1 index out of range [0, 8) (got [-3, 4])"
    kind, text = _error(lambda ctx: (ctx.blockIdx.x * 2, ctx.tx), dense=False)
    assert text == "grid: axis 0 index out of range [0, 4) (got [0, 4])"
    kind, text = _error(lambda ctx: (ctx.blockIdx.x, ctx.tx * 1.0), dense=False)
    assert (kind, text) == (TypeError, "grid: axis 1 index must be an integer, got float64")


def test_parts_far_outside_the_array_that_sum_into_it(closed_forms):
    """A block part at 2^62 and a lane part at -2^62 + t sum to ``t``: the split moves
    the lane minimum into the base, so neither half wraps; both paths agree."""
    array = GlobalArray(np.arange(64, dtype=np.float32).reshape(8, 8), name="grid")
    far = 1 << 62

    def kernel(ctx, dense, seen):
        ctx = ctx.where_blocks(ctx.blockIdx.x == 1)
        lanes = np.full(8, -far, dtype=np.int64)
        rows = ctx.blockIdx.x - 1
        cols = ctx.blockIdx.x * far + (ctx.tx * 0 + lanes) + ctx.tx
        as_given = np.asarray if dense else (lambda index: index)
        seen.append(array.load(ctx, as_given(rows), as_given(cols)))
        array.store(ctx, seen[-1] + 1, as_given(rows), as_given(cols))

    results = []
    for dense in (False, True):
        seen = []
        trace = launch(kernel, grid=2, block=8, args=(dense, seen))
        results.append((seen[0], _counters(trace)))
    assert len(closed_forms) == 2  # the split run's load and store
    assert np.array_equal(results[0][0], [np.arange(8)])  # row 0 of the array
    assert np.array_equal(results[1][0], [np.arange(8) + 1])  # ... after the first store
    assert results[0][1] == results[1][1]


# -- the split itself ----------------------------------------------------------------


def _context(blocks=5, threads=6):
    from repro.minicuda.runtime import CudaTrace, Dim3

    return BlockContext(np.arange(blocks, dtype=np.int64), Dim3(threads), Dim3(blocks),
                        CudaTrace())


def test_indices_keep_the_split_only_under_affine_int_arithmetic():
    ctx = _context()
    bx, tx = ctx.blockIdx.x, ctx.tx
    lanes = np.arange(6, dtype=np.int64)
    kept = [bx + 1, 2 + tx, bx - tx, 7 - bx, bx * 3, 4 * tx, bx + lanes, lanes - tx,
            bx + np.array(5), (bx + tx) * -2 + 1]
    for value in kept:
        assert type(value) is SplitIndex
    materialised = [bx < 2, bx // 2, tx % 3, np.maximum(bx, tx), (bx + tx)[0], tx.copy(),
                    tx * 1.5, bx + lanes[None, :], bx * tx, bx + lanes.astype(np.int32),
                    -tx, bx + 0.5, bx + np.int64(3)]
    for value in materialised:
        assert type(value) is not SplitIndex
    assert np.array_equal(bx - tx, bx.data - tx.data)
    assert np.array_equal((bx + tx) * -2 + 1, (bx.data + tx.data) * -2 + 1)
    assert (bx + tx).shape == (5, 6) and (bx + tx).dtype == np.int64 and tx.size == 6


def test_the_materialised_array_equals_the_op_by_op_array_and_is_read_only():
    ctx = _context()
    bx, tx = ctx.blockIdx.x, ctx.tx
    top = np.iinfo(np.int64).max
    index = (bx + top) * 3 + tx - top
    with np.errstate(over="ignore"):
        expected = (bx.data + top) * 3 + tx.data - top
    assert np.array_equal(index.data, expected) and np.asarray(index).dtype == np.int64
    with pytest.raises(ValueError):
        np.asarray(index)[0, 0] = 1


def test_a_joined_array_is_copied_so_a_later_update_does_not_leak():
    ctx = _context()
    lanes = np.arange(6, dtype=np.int64)
    index = ctx.tx + lanes
    lanes += 100
    assert np.array_equal(index, 2 * np.arange(6))


def test_the_stencil_equals_the_dense_path(monkeypatch):
    """``run_stencil`` over every brick size, array and brick layouts: same grid, same
    counters; a brick layout keeps the dense path."""
    split = GlobalArray._split
    closed = []

    def spied(self, ctx, indices):
        result = split(self, ctx, indices)
        closed.append(result is not None)
        return result

    def run(spec, n, brick, layout, dense):
        grid = np.random.default_rng(n + brick).standard_normal((n, n, n)).astype(np.float32)
        monkeypatch.setattr(GlobalArray, "_split",
                            (lambda self, ctx, indices: None) if dense else spied)
        out, trace = run_stencil(grid, spec, layout=layout, brick=brick)
        return out, _counters(trace)

    by_name = {spec.name: spec for spec in STENCILS}
    for name in ("star-7pt", "cube-125pt"):
        for brick in (2, 4, 8):
            n = 4 * brick
            for layout in (None, brick_layout(n, brick)):
                closed.clear()
                split_run = run(by_name[name], n, brick, layout, dense=False)
                assert any(closed) == (layout is None), (name, brick)
                dense_run = run(by_name[name], n, brick, layout, dense=True)
                assert np.array_equal(split_run[0], dense_run[0]), (name, brick)
                assert split_run[1] == dense_run[1], (name, brick)


# -- the MLIR interpreter: the same split, read by memref.load / memref.store ------------


def _laundered(module):
    """A copy of ``module`` whose every memref index goes through ``arith.maxsi(v, 0)``:
    the same (non-negative) values, never split, so every access is dense."""
    module = copy.deepcopy(module)
    for fn in module.functions:
        zero = Value(name="launder_zero", type=INDEX)
        constant = Operation("arith.constant", results=[zero], attributes={"value": 0})
        zero.defining_op = constant
        _launder(fn.body, zero)
        fn.body.operations.insert(0, constant)
    return module


def _launder(block, zero):
    operations = []
    for op in block.operations:
        for region in op.regions:
            for inner in region.blocks:
                _launder(inner, zero)
        first = {"memref.load": 1, "memref.store": 2}.get(op.name)
        if first is not None:
            for position in range(first, len(op.operands)):
                kept = Value(name=f"launder{len(operations)}", type=INDEX)
                clamp = Operation("arith.maxsi", operands=[op.operands[position], zero],
                                  results=[kept])
                kept.defining_op = clamp
                operations.append(clamp)
                op.operands[position] = kept
        operations.append(op)
    block.operations = operations


@pytest.fixture
def mlir_closed_forms(monkeypatch):
    """Counts the MLIR accesses that take the closed form."""
    taken = []
    record = interp._BlockExecutor._record_split

    def counted(self, *args, **kwargs):
        taken.append(1)
        return record(self, *args, **kwargs)

    monkeypatch.setattr(interp._BlockExecutor, "_record_split", counted)
    return taken


def _run_module(module, name, grid, block, arguments, device):
    arguments = [np.array(argument) for argument in arguments]
    result = run_gpu_kernel(module, name, grid=grid, block=block, arguments=arguments,
                            device=device)
    return arguments, _counters(result)


def _assert_split_equals_dense(module, name, grid, block, arguments, device, closed):
    closed.clear()
    split = _run_module(module, name, grid, block, arguments, device)
    took = len(closed)
    closed.clear()
    dense = _run_module(_laundered(module), name, grid, block, arguments, device)
    assert not closed
    for mine, theirs in zip(split[0], dense[0]):
        assert np.array_equal(mine, theirs)
    assert split[1] == dense[1]
    return took


@pytest.mark.parametrize("variant, skew", [("naive", False), ("naive", True), ("smem", False),
                                           ("smem", True)])
def test_mlir_transpose_equals_the_dense_path(variant, skew, mlir_closed_forms):
    """Values and every ``GpuLaunchResult`` field; both global accesses take the closed
    form, the workgroup tile keeps the block-uniform path."""
    from repro.apps.transpose import TransposeConfig, generate_transpose_module

    cases = [(n, tile) for n in (16, 64, 256) for tile in (4, 8, 16)]
    for position, (n, tile) in enumerate(cases):
        kernel = generate_transpose_module(n, tile, variant, skew=skew)
        config = TransposeConfig(n=n, tile=tile)
        source = np.random.default_rng(n + tile).standard_normal(n * n).astype(np.float32)
        took = _assert_split_equals_dense(
            kernel.module, kernel.kernel_names[0], config.grid(), config.block(),
            [source, np.zeros_like(source)], DEVICES[position % len(DEVICES)],
            mlir_closed_forms)
        assert took == 2, (n, tile)


def _copy_kernel(shape, index_of):
    """``out[store index] = src[load index]`` over two ``shape`` memrefs, the indices
    built from ``index_of(builder, tx, bx, constant) -> (load, store)``."""
    module = build_gpu_module("m")
    fn = gpu.func(module, "k", [MemRefType(shape, F32), MemRefType(shape, F32)])
    builder = OpBuilder(fn.body)
    tx, bx = gpu.thread_id(builder, "x"), gpu.block_id(builder, "x")
    load_index, store_index = index_of(builder, tx, bx, lambda v: arith.constant(builder, v))
    value = memref.load(builder, fn.argument(0), load_index)
    memref.store(builder, value, fn.argument(1), store_index)
    gpu.return_(builder)
    return module


def _reversed_in_block(builder, tx, bx, const):
    """Lane part ``-tx`` dips below 0, the sum ``8·bx + 7 - tx`` stays in range."""
    reverse = arith.addi(builder, arith.muli(builder, bx, const(8)),
                         arith.subi(builder, const(7), tx))
    return [arith.addi(builder, arith.muli(builder, bx, const(8)), tx)], [reverse]


def _colliding(builder, tx, bx, const):
    """Blocks two apart write one element (``2·bx + tx`` over four lanes): the last
    writer, the highest block, must win on either path."""
    spread = arith.addi(builder, arith.muli(builder, bx, const(8)), tx)
    return [spread], [arith.addi(builder, arith.muli(builder, bx, const(2)), tx)]


def _two_axes(builder, tx, bx, const):
    """A ``(rows, cols)`` memref: row from the block, column from block and lane."""
    row = arith.addi(builder, bx, const(1))
    column = arith.subi(builder, arith.addi(builder, arith.muli(builder, bx, const(2)),
                                            const(3)), tx)
    return [row, arith.muli(builder, tx, const(1))], [row, column]


@pytest.mark.parametrize("shape, index_of, grid, block", [
    ((64,), _reversed_in_block, 8, 8),
    ((128,), _colliding, 16, 4),
    ((12, 40), _two_axes, 11, 4),
], ids=["lane-below-zero", "colliding-stores", "two-axes"])
def test_mlir_split_kernels_equal_the_dense_path(shape, index_of, grid, block,
                                                 mlir_closed_forms):
    module = _copy_kernel(shape, index_of)
    source = np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape) + 1
    for device in DEVICES:
        took = _assert_split_equals_dense(module, "k", (grid, 1, 1), (block, 1, 1),
                                          [source, np.zeros_like(source)], device,
                                          mlir_closed_forms)
        assert took == 2

