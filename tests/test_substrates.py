"""Execution substrates: mini-Triton, mini-CUDA and the analytic GPU model."""

import builtins

import numpy as np
import pytest

from repro.gpusim import (
    A100_80GB,
    KernelCost,
    access_conflict_profile,
    bytes_per_element,
    cublas_matmul_time,
    estimate_time,
    occupancy_factor,
    pytorch_elementwise_time,
    roofline_point,
    warp_conflict_degree,
)
from repro.gpusim.sharedmem import (
    ConflictProfile,
    distinct_total,
    ragged_warp_rows,
    row_conflict_degrees,
    warp_rows,
)
from repro.minicuda import CudaTrace, Dim3, GlobalArray, launch
from repro.minitriton import compile_kernel, from_device, launch as tl_launch, to_device
from repro.check import trace_to_cost
from repro.core import GroupBy, antidiagonal


# -- mini-Triton ------------------------------------------------------------------------


SIMPLE_KERNEL = """
@triton.jit
def add_one(x_ptr, y_ptr, N, BN: tl.constexpr):
    pid = tl.program_id(axis=0)
    offs = pid * BN + tl.arange(0, BN)
    x = tl.load(x_ptr + offs)
    tl.store(y_ptr + offs, x + 1.0)
"""


def test_minitriton_compile_and_launch():
    fn = compile_kernel(SIMPLE_KERNEL, "add_one")
    x = np.arange(64, dtype=np.float32)
    xb, yb = to_device(x, "x"), to_device(np.zeros(64, dtype=np.float32), "y")
    trace = tl_launch(fn, grid=4, kernel_args={"x_ptr": xb, "y_ptr": yb, "N": 64, "BN": 16})
    assert np.array_equal(from_device(yb), x + 1)
    assert trace.load_elements == 64
    assert trace.store_elements == 64
    assert trace.load_bytes == 64 * 4


def test_minitriton_missing_kernel_name():
    with pytest.raises(KeyError):
        compile_kernel(SIMPLE_KERNEL, "not_there")


def test_minitriton_out_of_bounds_load_raises():
    fn = compile_kernel(SIMPLE_KERNEL, "add_one")
    xb = to_device(np.zeros(8, dtype=np.float32), "x")
    yb = to_device(np.zeros(8, dtype=np.float32), "y")
    with pytest.raises(IndexError):
        tl_launch(fn, grid=4, kernel_args={"x_ptr": xb, "y_ptr": yb, "N": 8, "BN": 16})


MASKED_KERNEL = """
@triton.jit
def masked_copy(x_ptr, y_ptr, N, BN: tl.constexpr):
    pid = tl.program_id(axis=0)
    offs = pid * BN + tl.arange(0, BN)
    mask = offs < N
    x = tl.load(x_ptr + offs, mask=mask, other=0.0)
    tl.store(y_ptr + offs, x, mask=mask)
"""


def test_minitriton_masked_access_handles_partial_tiles():
    fn = compile_kernel(MASKED_KERNEL, "masked_copy")
    x = np.arange(10, dtype=np.float32)
    xb, yb = to_device(x, "x"), to_device(np.zeros(10, dtype=np.float32), "y")
    tl_launch(fn, grid=2, kernel_args={"x_ptr": xb, "y_ptr": yb, "N": 10, "BN": 8})
    assert np.array_equal(from_device(yb), x)


UNIFORM_MASKED_KERNEL = """
@triton.jit
def masked_copy(x_ptr, y_ptr, N, BN: tl.constexpr):
    offs = tl.arange(0, BN)
    mask = offs < N
    tl.store(y_ptr + offs, tl.load(x_ptr + offs, mask=mask, other=0.0), mask=mask)
"""


@pytest.mark.parametrize("source", [MASKED_KERNEL, UNIFORM_MASKED_KERNEL],
                         ids=["per-program", "program-uniform"])
def test_a_fully_masked_copy_of_an_empty_buffer_touches_nothing(source):
    """No lane is active, so no lane is bounds-checked or gathered."""
    fn = compile_kernel(source, "masked_copy")
    xb, yb = to_device(np.zeros(0, dtype=np.float32), "x"), to_device(np.zeros(0, dtype=np.float32), "y")
    trace = tl_launch(fn, grid=(2,), kernel_args={"x_ptr": xb, "y_ptr": yb, "N": 0, "BN": 8})
    assert (trace.load_elements, trace.load_transactions, trace.store_elements) == (0.0, 0.0, 0.0)


COPY_KERNEL = """
@triton.jit
def shifted_copy(x_ptr, y_ptr, SHIFT, BN: tl.constexpr):
    pid = tl.program_id(axis=0)
    offs = {offsets}
    tl.store(y_ptr + offs, tl.load(x_ptr + offs))
"""
AFFINE = "SHIFT + pid * BN + tl.arange(0, BN)"
# base and pattern each near -2**63 (SHIFT = -2**62): the exact sum leaves int64,
# and the int64 one wraps back to 2 * (pid * BN + lane)
WRAPPING = "(pid * BN + SHIFT) * 2 + (tl.arange(0, BN) + SHIFT) * 2"


def _materialised(offsets: str) -> str:
    """The same offsets through an op that is not affine: the op-by-op array."""
    return f"({offsets}) // 1"


def _copy(offsets: str, x, y_size: int, shift: int):
    fn = compile_kernel(COPY_KERNEL.format(offsets=offsets), "shifted_copy")
    xb, yb = to_device(x, "x"), to_device(np.zeros(y_size, dtype=x.dtype), "y")
    trace = tl_launch(fn, grid=4, kernel_args={"x_ptr": xb, "y_ptr": yb, "SHIFT": shift, "BN": 8})
    return from_device(yb), trace


def _spy_loads(monkeypatch) -> list:
    """Record every ``tl.load``'s ``(pointer, value)``."""
    from repro.minitriton.language import tl

    loaded, load = [], tl.load

    def spy(pointer, *args, **kwargs):
        loaded.append((pointer, load(pointer, *args, **kwargs)))
        return loaded[-1][1]

    monkeypatch.setattr(tl, "load", spy)
    return loaded


def test_pointer_arithmetic_stays_affine_until_the_gather(monkeypatch):
    """The kernel's offsets reach ``tl.load`` as ``base + pattern`` and
    materialise to the op-by-op array; outputs and counters are the same."""
    from repro.minitriton.language import SplitOffsets

    loaded = _spy_loads(monkeypatch)
    x = np.arange(40, dtype=np.float32)
    affine, affine_trace = _copy(AFFINE, x, 40, 3)
    plain, plain_trace = _copy(_materialised(AFFINE), x, 40, 3)
    seen = [pointer.offsets for pointer, _ in loaded]
    assert isinstance(seen[0], SplitOffsets) and not isinstance(seen[1], SplitOffsets)
    np.testing.assert_array_equal(seen[0].data, seen[1].data)
    np.testing.assert_array_equal(affine, plain)
    assert affine_trace == plain_trace


@pytest.mark.parametrize("shift, x_size, y_size, what", [
    (-3, 32, 32, r"x: axis 0 index out of range \[0, 32\) \(got \[-3, 28\]\)"),
    (5, 32, 40, r"x: axis 0 index out of range \[0, 32\) \(got \[5, 36\]\)"),
    (0, 32, 30, r"y: axis 0 index out of range \[0, 30\) \(got \[0, 31\]\)"),
])
def test_out_of_bounds_affine_accesses_raise_the_materialised_message(shift, x_size, y_size, what):
    messages = []
    for offsets in (AFFINE, _materialised(AFFINE)):
        with pytest.raises(IndexError, match="^" + what + "$") as error:
            _copy(offsets, np.arange(x_size, dtype=np.float32), y_size, shift)
        messages.append(str(error.value))
    assert messages[0] == messages[1]


def test_an_affine_sum_that_wraps_int64_takes_the_materialised_path():
    from repro.vm.split import SplitIndex, split_access

    low = np.iinfo(np.int64).min
    assert split_access("x", ((64, 1),), (SplitIndex(np.array([[low]]), np.arange(4) + low),),
                        1) is None
    x = np.arange(64, dtype=np.float32)
    wrapped, wrapped_trace = _copy(WRAPPING, x, 64, -(2 ** 62))
    plain, plain_trace = _copy(_materialised(WRAPPING), x, 64, -(2 ** 62))
    np.testing.assert_array_equal(wrapped, np.where(np.arange(64) % 2 == 0, x, 0))
    np.testing.assert_array_equal(wrapped, plain)
    assert wrapped_trace == plain_trace


TILE_KERNEL = """
@triton.jit
def tile_dot(base_ptr, a_ptr, b_ptr, c_ptr, a_pattern, b_pattern, c_pattern, SIZE: tl.constexpr):
    pid = tl.program_id(axis=0)
    base = tl.load(base_ptr + pid)
    a = tl.load(a_ptr + {a_offsets})
    b = tl.load(b_ptr + {b_offsets})
    tl.store(c_ptr + pid * SIZE + c_pattern, {result})
"""
TILE_PROGRAMS = 12


def _tile_bases(kind: str, rng) -> np.ndarray:
    """Per-program bases (3 elements apart, so neighbouring tiles overlap)."""
    pid = np.arange(TILE_PROGRAMS)
    rows = {
        # the GEMM's GM = 2 grouping of A's tile rows over a 4 x 3 tile grid
        "grouped": ((pid // 6) % 2) * 2 + pid % 2,
        "equal": np.full(TILE_PROGRAMS, 5),
        "distinct": rng.permutation(TILE_PROGRAMS),
        "strictly-increasing": pid,
        "decreasing": (TILE_PROGRAMS - 1 - pid) // 2,
        "shuffled-groups": rng.integers(0, 4, TILE_PROGRAMS),
    }[kind]
    return (rows * 3).astype(np.int64)


def _tile_run(kind: str, dtype, rank: int, materialise: bool, loaded: list):
    rng = np.random.default_rng(rank)
    if rank == 2:  # (3, 4) @ (4, 2), B's rows walked backwards
        a_pattern = np.arange(3)[:, None] * 7 + np.arange(4)[None, :]
        b_pattern = (3 - np.arange(4))[:, None] * 5 + np.arange(2)[None, :] * 2
        c_pattern, result = np.arange(3)[:, None] * 2 + np.arange(2)[None, :], "tl.dot(a, b)"
    else:
        a_pattern, b_pattern, c_pattern, result = np.arange(5) * 2, 4 - np.arange(3), np.arange(5), "a"
    a = (rng.standard_normal(64) * 8).astype(dtype)
    b = (rng.standard_normal(64) * 8).astype(dtype)
    out_dtype = np.float32 if rank == 2 else dtype
    offsets = "(base + {0}) // 1" if materialise else "base + {0}"
    source = TILE_KERNEL.format(a_offsets=offsets.format("a_pattern"),
                                b_offsets=offsets.format("b_pattern"), result=result)
    buffers = [to_device(_tile_bases(kind, np.random.default_rng(7)), "base"),
               to_device(a, "a"), to_device(b, "b"),
               to_device(np.zeros(TILE_PROGRAMS * c_pattern.size, dtype=out_dtype), "c")]
    trace = tl_launch(compile_kernel(source, "tile_dot"), grid=TILE_PROGRAMS, kernel_args={
        "base_ptr": buffers[0], "a_ptr": buffers[1], "b_ptr": buffers[2], "c_ptr": buffers[3],
        "a_pattern": a_pattern, "b_pattern": b_pattern, "c_pattern": c_pattern,
        "SIZE": c_pattern.size})
    for pointer, value in loaded:
        if pointer.buffer is not buffers[0]:
            np.testing.assert_array_equal(value.data, pointer.buffer.data[pointer.offsets.data])
            assert value.data.dtype == pointer.buffer.dtype
    return buffers[3].data.tobytes(), trace


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int32])
@pytest.mark.parametrize("kind", ["grouped", "equal", "distinct", "strictly-increasing",
                                  "decreasing", "shuffled-groups"])
def test_a_shared_tile_load_is_the_materialised_gather_and_dots_bit_for_bit(
        kind, dtype, rank, monkeypatch):
    """A load whose bases repeat gathers each distinct tile once; its ``data``
    is ``buffer[base + pattern]`` and ``tl.dot`` on it is the plain one's, bit
    for bit (outputs and counters against the ``// 1``-materialised twin)."""
    from repro.minitriton.language import SharedTiles

    loaded = _spy_loads(monkeypatch)
    shared, shared_trace = _tile_run(kind, dtype, rank, False, loaded)
    tiles = [value for _, value in loaded[1:]]
    repeats = kind in ("grouped", "equal", "decreasing", "shuffled-groups")
    assert [isinstance(value, SharedTiles) for value in tiles] == [repeats, repeats]
    loaded.clear()
    plain, plain_trace = _tile_run(kind, dtype, rank, True, loaded)
    assert not any(isinstance(value, SharedTiles) for _, value in loaded)
    assert shared == plain
    assert shared_trace == plain_trace


@pytest.mark.parametrize("grid", [1, 4], ids=["one-program", "strictly-increasing"])
def test_bases_that_cannot_repeat_skip_detection(grid, monkeypatch):
    """One program, or a row per program, is one compare pass and the plain gather."""
    from repro.minitriton import language

    def refuse(base):
        raise AssertionError("tile detection ran")

    monkeypatch.setattr(language, "distinct_bases", refuse)
    loaded = _spy_loads(monkeypatch)
    x = np.arange(64, dtype=np.float32)
    xb, yb = to_device(x, "x"), to_device(np.zeros(64, dtype=np.float32), "y")
    tl_launch(compile_kernel(SIMPLE_KERNEL, "add_one"), grid=grid,
              kernel_args={"x_ptr": xb, "y_ptr": yb, "N": 64, "BN": 16})
    assert [type(value) for _, value in loaded] == [language.BatchedTensor]
    np.testing.assert_array_equal(from_device(yb)[:16 * grid], x[:16 * grid] + 1)


SNAPSHOT_KERNEL = """
@triton.jit
def overwrite_then_use(x_ptr, y_ptr, BN: tl.constexpr):
    pid = tl.program_id(axis=0)
    x_ptrs = x_ptr + (pid // 2) * BN + tl.arange(0, BN)
    x = tl.load(x_ptrs)
    tl.store(x_ptrs, tl.full((BN,), -1.0, tl.float32))
    tl.store(y_ptr + pid * BN + tl.arange(0, BN), x)
"""


def test_a_shared_tile_is_a_snapshot_not_a_view_of_the_buffer(monkeypatch):
    """Programs 2q and 2q+1 share a tile, overwrite it, then store what they loaded."""
    from repro.minitriton.language import SharedTiles

    loaded = _spy_loads(monkeypatch)
    x = np.arange(32, dtype=np.float32)
    xb, yb = to_device(x, "x"), to_device(np.zeros(32, dtype=np.float32), "y")
    tl_launch(compile_kernel(SNAPSHOT_KERNEL, "overwrite_then_use"), grid=4,
              kernel_args={"x_ptr": xb, "y_ptr": yb, "BN": 8})
    assert isinstance(loaded[0][1], SharedTiles)
    np.testing.assert_array_equal(from_device(yb), np.tile(x[:16].reshape(2, 1, 8), (1, 2, 1)).ravel())
    np.testing.assert_array_equal(from_device(xb)[:16], -1.0)


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` (a builtin if the module does not define it) so that
    every call appends its arguments to the returned list."""
    calls, original = [], getattr(module, name, None) or getattr(builtins, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def _gemm_inputs(shape_a, shape_b, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape_a).astype(np.float16),
            rng.standard_normal(shape_b).astype(np.float16))


@pytest.mark.parametrize("app", ["matmul", "grouped_gemm"])
def test_tile_classes_are_computed_once_per_base_pattern(app, monkeypatch):
    """The bench-size GEMM launches (one pass of 1 024 programs) reload A's and B's
    tiles at every K step; a step only moves the bases, so the pass computes two
    sets of tile classes, not one per load (matmul 64 loads, grouped GEMM 32)."""
    from repro.minitriton import language

    calls = _count_calls(monkeypatch, language, "distinct_bases")
    loads = _count_calls(monkeypatch, language.tl, "_gather")
    if app == "matmul":
        from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

        a, b = _gemm_inputs((256, 256), (256, 256))
        config = MatmulConfig(256, 256, 256, BM=8, BN=8, BK=8, GM=4)
        out, _ = run_matmul(generate_matmul_kernel("nn"), a, b, config, "nn")
        expected = a.astype(np.float32) @ b.astype(np.float32)
    else:
        from repro.apps.grouped_gemm import (GroupedGemmConfig, generate_grouped_gemm_kernel,
                                             run_grouped_gemm)

        a, b = _gemm_inputs((4, 128, 128), (4, 128, 128))
        config = GroupedGemmConfig(groups=4, M=128, N=128, K=128, BM=8, BN=8, BK=8)
        out, _ = run_grouped_gemm(generate_grouped_gemm_kernel(), a, b, config)
        expected = np.matmul(a.astype(np.float32), b.astype(np.float32))
    assert (len(calls), len(loads)) == (2, 64 if app == "matmul" else 32)
    np.testing.assert_allclose(out.astype(np.float32), expected, rtol=1e-2, atol=5e-2)


def test_repeated_launches_compile_their_source_once(monkeypatch):
    """``run_matmul`` and ``run_softmax`` called three times each ``exec`` two sources."""
    from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul
    from repro.apps.softmax import generate_softmax_kernel, run_softmax
    from repro.minitriton import runtime

    compile_kernel.cache_clear()
    execs = _count_calls(monkeypatch, runtime, "exec")
    a, b = _gemm_inputs((16, 16), (16, 16))
    x = np.random.default_rng(4).standard_normal((8, 16)).astype(np.float32)
    for _ in range(3):
        run_matmul(generate_matmul_kernel("nn"), a, b, MatmulConfig(16, 16, 16, 8, 8, 8, 2), "nn")
        run_softmax(generate_softmax_kernel(), x)
    assert len(execs) == 2
    info = compile_kernel.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def _per_program_product(a, b):
    """``tl.dot``'s per-program product of two shared-tile operands."""
    return np.matmul(a.tiles.astype(np.float32)[a.index], b.tiles.astype(np.float32)[b.index])


@pytest.mark.parametrize("group", [1, 4])
@pytest.mark.parametrize("variant", ["nn", "nt", "tn", "tt"])
def test_the_tile_pair_dot_is_the_per_program_product_bit_for_bit(variant, group, monkeypatch):
    """A 64 x 40 x 24 matmul: 8 x 5 distinct tiles cover its 40 programs exactly,
    so every ``tl.dot`` multiplies tile pairs; outputs and counters equal the run
    that multiplies per program."""
    from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul
    from repro.minitriton import language

    config = MatmulConfig(64, 40, 24, BM=8, BN=8, BK=8, GM=group)
    a, b = _gemm_inputs((64, 24), (24, 40))
    kernel = generate_matmul_kernel(variant)
    pairs = _count_calls(monkeypatch, language, "_tile_pair_product")
    out, trace = run_matmul(kernel, a, b, config, variant)
    assert len(pairs) == 3 and all(x.tiles.shape[0] * y.tiles.shape[0] == 40 for x, y in pairs)
    monkeypatch.setattr(language, "_tile_pair_product", _per_program_product)
    plain, plain_trace = run_matmul(kernel, a, b, config, variant)
    assert out.tobytes() == plain.tobytes()
    assert trace == plain_trace
    np.testing.assert_allclose(out.astype(np.float32), a.astype(np.float32) @ b.astype(np.float32),
                               rtol=1e-2, atol=5e-2)


def test_tile_pairs_that_outnumber_the_programs_multiply_per_program(monkeypatch):
    """Grouped GEMM, 2 groups of 16 x 16 tiles-of-8: A and B each load 4 distinct
    tiles a step, and 4 x 4 pairs exceed the 8 programs."""
    from repro.apps.grouped_gemm import (GroupedGemmConfig, generate_grouped_gemm_kernel,
                                         run_grouped_gemm)
    from repro.minitriton import language

    pairs = _count_calls(monkeypatch, language, "_tile_pair_product")
    dots = _count_calls(monkeypatch, language.tl, "dot")
    a, b = _gemm_inputs((2, 16, 16), (2, 16, 16))
    config = GroupedGemmConfig(groups=2, M=16, N=16, K=16, BM=8, BN=8, BK=8)
    out, _ = run_grouped_gemm(generate_grouped_gemm_kernel(), a, b, config)
    assert pairs == []
    assert [(type(x).__name__, x.tiles.shape[0], type(y).__name__, y.tiles.shape[0])
            for x, y, _ in dots] == [("SharedTiles", 4, "SharedTiles", 4)] * 2
    np.testing.assert_allclose(out.astype(np.float32),
                               np.matmul(a.astype(np.float32), b.astype(np.float32)),
                               rtol=1e-2, atol=5e-2)


FLOP_KERNEL = """
@triton.jit
def clamp_copy(x_ptr, y_ptr, BN: tl.constexpr):
    offs = tl.program_id(axis=0) * BN + tl.arange(0, BN)
    x = tl.load(x_ptr + offs)
    tl.store(y_ptr + offs, {expression})
"""


@pytest.mark.parametrize("expression", ["tl.maximum(x, 0.0)", "tl.maximum(0.0, x)",
                                        "tl.minimum(1.0, x)", "tl.where(True, x, 0.0)"])
def test_elementwise_flops_count_the_broadcast_result_in_any_operand_order(expression):
    """Four programs of sixteen lanes: 64 flops, whichever operand is the block."""
    fn = compile_kernel(FLOP_KERNEL.format(expression=expression), "clamp_copy")
    xb, yb = to_device(np.arange(64, dtype=np.float32) - 32, "x"), to_device(np.zeros(64, np.float32), "y")
    trace = tl_launch(fn, grid=4, kernel_args={"x_ptr": xb, "y_ptr": yb, "BN": 16})
    assert trace.flops == 64


PER_PROGRAM_KERNEL = """
@triton.jit
def per_program(y_ptr):
    pid = tl.program_id(axis=0)
    {body}
    tl.store(y_ptr + pid, v)
"""


@pytest.mark.parametrize("expression,expected", [
    ("min(pid, 2, 5)", [0, 1, 2, 2]), ("min(5, 2, pid)", [0, 1, 2, 2]),
    ("max(pid, 1, 2)", [2, 2, 2, 3]), ("min(3, 7, pid + 1, 2 * pid)", [0, 2, 3, 3]),
])
def test_namespace_min_and_max_fold_any_number_of_arguments_per_program(expression, expected):
    fn = compile_kernel(PER_PROGRAM_KERNEL.format(body=f"v = {expression}"), "per_program")
    yb = to_device(np.zeros(4, dtype=np.int64), "y")
    tl_launch(fn, grid=4, kernel_args={"y_ptr": yb})
    assert from_device(yb).tolist() == expected


@pytest.mark.parametrize("body", ["v = 1 if pid < 2 else 7", "v = pid if pid else 7",
                                  "v = (pid < 2) and 1", "v = 0 < pid < 3",
                                  "v = min(pid, 2, key=abs)"])
def test_a_program_dependent_truth_value_is_a_type_error(body):
    """One body runs every program of the pass: a branch on a batched value
    would take one side for all of them (it took the true side everywhere)."""
    fn = compile_kernel(PER_PROGRAM_KERNEL.format(body=body), "per_program")
    with pytest.raises(TypeError, match="program-dependent value has no single truth value"):
        tl_launch(fn, grid=4, kernel_args={"y_ptr": to_device(np.zeros(4, dtype=np.int64), "y")})


def test_minitriton_dot_records_tensor_core_flops():
    source = """
@triton.jit
def tiny_dot(a_ptr, b_ptr, c_ptr, N: tl.constexpr):
    offs = tl.arange(0, N)
    a = tl.load(a_ptr + offs[:, None] * N + offs[None, :])
    b = tl.load(b_ptr + offs[:, None] * N + offs[None, :])
    c = tl.dot(a.to(tl.float16), b.to(tl.float16))
    tl.store(c_ptr + offs[:, None] * N + offs[None, :], c)
"""
    fn = compile_kernel(source, "tiny_dot")
    a = np.random.randn(8, 8).astype(np.float32)
    b = np.random.randn(8, 8).astype(np.float32)
    ab, bb, cb = to_device(a.reshape(-1)), to_device(b.reshape(-1)), to_device(np.zeros(64, dtype=np.float32))
    trace = tl_launch(fn, grid=1, kernel_args={"a_ptr": ab, "b_ptr": bb, "c_ptr": cb, "N": 8})
    assert trace.tensor_core_flops == 2 * 8 ** 3
    result = from_device(cb, (8, 8))
    assert np.allclose(result, a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32), atol=0.5)


# -- mini-CUDA ---------------------------------------------------------------------------------


def test_dim3_normalisation():
    assert Dim3.of(4, "block") == Dim3(4, 1, 1)
    assert Dim3.of((2, 3), "block") == Dim3(2, 3, 1)
    assert Dim3.of(Dim3(0, 2), "grid") == Dim3(0, 2, 1)  # an empty grid is a launch of nothing
    assert Dim3(2, 3, 4).count == 24


def test_block_context_thread_coordinates():
    seen = {}

    def kernel(ctx):
        seen["tx"] = ctx.tx.copy()
        seen["ty"] = ctx.ty.copy()

    launch(kernel, grid=1, block=(4, 2))
    assert list(seen["tx"][:4]) == [0, 1, 2, 3]
    assert list(seen["ty"][:4]) == [0, 0, 0, 0]
    assert list(seen["ty"][4:]) == [1, 1, 1, 1]


def test_global_array_records_transactions_and_layout_roundtrip():
    data = np.arange(64, dtype=np.float32).reshape(8, 8)
    layout = GroupBy([8, 8]).OrderBy(antidiagonal(8))
    array = GlobalArray(data, layout=layout)
    assert np.array_equal(array.to_numpy(), data)

    def kernel(ctx, buf):
        values = buf.load(ctx, ctx.ty, ctx.tx)
        buf.store(ctx, values + 1, ctx.ty, ctx.tx)

    trace = launch(kernel, grid=1, block=(8, 8), args=(array,))
    assert np.array_equal(array.to_numpy(), data + 1)
    assert trace.load_elements == 64
    assert trace.store_transactions >= 8


def test_the_launchers_copy_their_inputs_once_and_own_the_copy():
    """``run_stencil``, ``run_nw_blocked`` and ``run_lud_internal`` hand an input of the
    kernel's dtype to ``GlobalArray`` as it is, which copies it: the launch never
    writes the caller's array, and a later change of it reaches no result."""
    from repro.apps import lud, nw, stencil

    rng = np.random.default_rng(0)
    runs = [
        (lambda x: stencil.run_stencil(x, stencil.STENCILS[0], brick=4),
         rng.standard_normal((8, 8, 8)).astype(np.float32)),
        (lambda x: stencil.run_stencil(x, stencil.STENCILS[0], brick=4,
                                       layout=stencil.brick_layout(8, 4)),
         rng.standard_normal((8, 8, 8)).astype(np.float32)),
        (lambda x: nw.run_nw_blocked(x, nw.NwConfig(n=8, block=4)),
         rng.integers(-4, 5, size=(8, 8)).astype(np.int32)),
        (lambda x: lud.run_lud_internal(x, lud.LudConfig(n=8, block=4, cuda_block=2)),
         rng.standard_normal((8, 8)).astype(np.float32)),
    ]
    for run, array in runs:
        saved = array.copy()
        out = run(array)[0]
        np.testing.assert_array_equal(array, saved)
        kept = out.copy()
        array[...] = 7
        np.testing.assert_array_equal(out, kept)
        np.testing.assert_array_equal(run(saved)[0], kept)


def test_global_array_out_of_range_raises():
    array = GlobalArray(np.zeros((4, 4), dtype=np.float32))

    def kernel(ctx, buf):
        buf.load(ctx, ctx.tx, ctx.tx + 10)

    with pytest.raises(IndexError):
        launch(kernel, grid=1, block=4, args=(array,))


def test_out_of_range_broadcast_index_names_array_axis_and_extrema():
    """Bounds are checked per index array, before ``(B, 1)`` block terms and
    ``(T,)`` thread terms broadcast — the error is the one the broadcast gave."""
    array = GlobalArray(np.zeros((4, 8), dtype=np.float32), name="grid")

    def global_kernel(ctx, buf):
        buf.load(ctx, ctx.blockIdx.x * 2, ctx.tx + 1)

    def shared_kernel(ctx):
        tile = ctx.shared_array((4, 8), dtype=np.float32, name="tile")
        tile.store(np.zeros(8), ctx.blockIdx.x * 0 + 4, ctx.tx)  # the block term is out

    with pytest.raises(IndexError, match=r"grid: axis 1 index out of range \[0, 8\) "
                                         r"\(got \[1, 8\]\)"):
        launch(global_kernel, grid=2, block=8, args=(array,))
    with pytest.raises(IndexError, match=r"tile: axis 0 index out of range \[0, 4\) "
                                         r"\(got \[4, 4\]\)"):
        launch(shared_kernel, grid=3, block=8)


@pytest.mark.parametrize("shared", [False, True], ids=["global", "shared"])
@pytest.mark.parametrize("shift, got", [(-3, r"\[-3, 4\]"), (5, r"\[5, 12\]")])
def test_a_negative_or_too_large_block_index_names_its_signed_extrema(shared, shift, got):
    """One unsigned reduction per axis catches both ends of a ``(B, T)``
    index; the message gives the signed extrema."""
    array = GlobalArray(np.zeros((4, 8), dtype=np.float32), name="grid")

    def kernel(ctx):
        rows = ctx.blockIdx.x % 4 + ctx.tx * 0
        columns = rows * 0 + ctx.tx + shift
        if shared:
            ctx.shared_array((4, 8), dtype=np.float32, name="grid").load(rows, columns)
        else:
            array.load(ctx, rows, columns)

    with pytest.raises(IndexError, match=r"^grid: axis 1 index out of range \[0, 8\) "
                                         rf"\(got {got}\)$"):
        launch(kernel, grid=3, block=8)


@pytest.mark.parametrize("access", ["shared-uniform", "shared-per-block", "global"])
def test_a_float_index_is_refused_not_truncated(access):
    """CUDA rejects a float subscript; casting it to int64 read elements 1 and 2
    for ``[1.9, 2.5]``."""
    array = GlobalArray(np.zeros((4, 8), dtype=np.float32), name="grid")

    def kernel(ctx):
        if access == "global":
            array.load(ctx, 1, np.array([1.9, 2.5]))
            return
        tile = ctx.shared_array((4, 8), dtype=np.float32, name="grid")
        if access == "shared-uniform":
            tile.load(1, np.array([1.9, 2.5]))
        else:
            tile.load(ctx.blockIdx.x % 4, ctx.blockIdx.x * 0 + np.array([1.9, 2.5]))

    with pytest.raises(TypeError, match=r"^grid: axis 1 index must be an integer, got float64$"):
        launch(kernel, grid=3, block=2)


def test_a_shared_access_at_scalar_indices_is_one_lane_per_block():
    """``buf[0]`` is one value per block, ``(B, 1)``: a ``(B,)`` row would broadcast
    against the lanes, and block ``b`` would write ``[0, 1, 2, 3]`` instead of ``b``."""
    out = GlobalArray(np.zeros((4, 4), dtype=np.int64), name="out")

    def kernel(ctx):
        buf = ctx.shared_array((4,), dtype=np.int64, name="buf")
        buf[ctx.tx] = ctx.blockIdx.x + 0 * ctx.tx
        value = buf[0]
        assert value.shape == (4, 1)
        buf[1] = value + 10  # the matching store: one lane per block
        out.store(ctx, buf[1] + 0 * ctx.tx, ctx.blockIdx.x, ctx.tx)

    launch(kernel, grid=4, block=4)
    assert out.to_numpy().tolist() == [[10 + b] * 4 for b in range(4)]


@pytest.mark.parametrize("grid", [2, 4], ids=["B<T", "B==T"])
@pytest.mark.parametrize("value", ["lanes", "lanes per block"])
def test_a_shared_store_of_lanes_at_scalar_indices_names_the_array(grid, value):
    """``buf[0] = ctx.tx`` stores four lanes at one element: a ``TypeError`` naming
    ``buf``, not NumPy's broadcast ``ValueError`` (with ``B == T`` the shapes nearly line up)."""
    def kernel(ctx):
        buf = ctx.shared_array((4,), dtype=np.int64, name="buf")
        buf[0] = ctx.tx if value == "lanes" else ctx.tx + ctx.blockIdx.x

    with pytest.raises(TypeError, match=r"^buf: cannot store a value of shape \((\d, )?4,?\) at \(1,\) lanes"):
        launch(kernel, grid=grid, block=4)


@pytest.mark.parametrize("layout", [None, "col"], ids=["row-major", "table"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad, got", [(-2, r"\[-2, 1\]"), (None, None)])
def test_the_one_call_decode_raises_the_per_axis_message(layout, axis, bad, got):
    """A block-uniform shared access decodes in one ``ravel_multi_index``; an
    index it refuses is named by the per-axis scan, with its signed extrema."""
    from repro.core import Col

    shape = (4, 8)
    extent = shape[axis]
    if bad is None:  # one past the end
        bad, got = extent, rf"\[1, {extent}\]"
    index = np.array([1, bad]) if bad > 0 else np.array([bad, 1])
    other = np.arange(2)
    table = None if layout is None else GroupBy(list(shape)).OrderBy(Col(*shape))

    def kernel(ctx):
        tile = ctx.shared_array(shape, dtype=np.float32, layout=table, name="tile")
        tile.load(*((index, other) if axis == 0 else (other, index)))

    with pytest.raises(IndexError, match=rf"^tile: axis {axis} index out of range "
                                         rf"\[0, {extent}\) \(got {got}\)$"):
        launch(kernel, grid=2, block=2)


def test_shared_array_bank_conflicts_row_major_vs_antidiagonal():
    def kernel(ctx, layout):
        buf = ctx.shared_array((17, 17), dtype=np.int32, layout=layout)
        lanes = np.arange(16)
        buf.store(np.ones(16), lanes + 1, 15 - lanes + 1)

    # counters are final when the launcher returns, so they are read off its trace
    results = {
        "row": launch(kernel, grid=1, block=16, args=(None,)),
        "anti": launch(kernel, grid=1, block=16,
                       args=(GroupBy([17, 17]).OrderBy(antidiagonal(17)),)),
    }
    assert results["row"].smem_profile.worst_degree > \
        results["anti"].smem_profile.worst_degree == 1


def test_shared_array_logical_view_roundtrip():
    def kernel(ctx, layout):
        buf = ctx.shared_array((4, 4), dtype=np.float32, layout=layout)
        idx = np.arange(4)
        for row in range(4):
            buf.store(np.full(4, row * 10) + idx, np.full(4, row), idx)
        kernel.out = buf.to_numpy()[0]  # one logical copy per block: block 0's

    launch(kernel, grid=1, block=4, args=(GroupBy([4, 4]).OrderBy(antidiagonal(4)),))
    expected = np.arange(4)[None, :] + 10 * np.arange(4)[:, None]
    assert np.array_equal(kernel.out, expected)


def test_trace_to_cost_charges_moved_sectors():
    def kernel(ctx, buf):
        buf.load(ctx, ctx.tx * 16)  # heavily strided: one sector per element

    array = GlobalArray(np.zeros(4096, dtype=np.float32))
    trace = launch(kernel, grid=1, block=32, args=(array,))
    cost = trace_to_cost(trace, name="strided")
    assert cost.dram_bytes == pytest.approx(32 * 32)  # 32 lanes x 32-byte sectors


def test_the_launch_sector_size_is_the_one_recorded_and_charged():
    """A global array has no sector size of its own: every access is counted at the
    launch's (the device's ``dram_sector_bytes``, else 32), the size its trace records."""
    from dataclasses import replace

    with pytest.raises(TypeError):
        GlobalArray(np.zeros(16, dtype=np.float32), sector_bytes=64)

    def kernel(ctx, buf):
        buf.load(ctx, ctx.tx * 16)  # one sector per element at either size

    wide = replace(A100_80GB, dram_sector_bytes=64)
    array = GlobalArray(np.zeros(4096, dtype=np.float32))
    for device, sector in ((None, 32), (wide, 64)):
        trace = launch(kernel, grid=1, block=32, args=(array,), device=device)
        assert trace.sector_bytes == sector and trace.load_transactions == 32
        assert trace_to_cost(trace).dram_bytes == trace.load_transactions * sector


# -- analytic device model -------------------------------------------------------------------------


def test_warp_conflict_degree_broadcast_and_conflict():
    same_word = [7] * 32
    assert warp_conflict_degree(same_word) == 1  # broadcast
    conflicting = [32 * i for i in range(16)]
    assert warp_conflict_degree(conflicting) == 16
    assert warp_conflict_degree([]) == 1


def _row_orders(rng, lanes, spread):
    """One access in each order the sorted-rows test can meet."""
    shuffled = rng.integers(0, spread, size=lanes)
    ascending = np.sort(shuffled)
    return {"ascending": ascending, "descending": ascending[::-1],
            "constant": np.full(lanes, spread // 2), "shuffled": shuffled}


def _per_warp_scores(flat, warp_size, element_bytes):
    """The reference: one warp at a time, ``warp_conflict_degree`` and ``np.unique``."""
    warps = [flat[start:start + warp_size] for start in range(0, flat.size, warp_size)]
    return ([warp_conflict_degree(w, element_bytes) for w in warps],
            [np.unique(w * element_bytes // 32).size for w in warps])


def _row_sectors(matrix):
    """``distinct_total`` one row at a time: each warp chunk's sector count."""
    return [distinct_total(row[None]) for row in matrix]


def _program_sectors(sectors, valid=None):
    """Each row's sector count as mini-Triton logs it: one program, never cut,
    through ``AccessLog.log_global`` (unit-sized elements and sectors)."""
    counts = []
    for index, row in enumerate(sectors):
        trace = CudaTrace(sector_bytes=1)
        trace.log_global(row[None], 1, row.size, False,
                         valid=None if valid is None else valid[index][None])
        trace.flush()
        counts.append(int(trace.load_transactions))
    return counts


@pytest.mark.parametrize("element_bytes", [2, 4, 8])
@pytest.mark.parametrize("warp_size", [16, 32])
def test_grouped_scorers_equal_the_per_warp_loop(element_bytes, warp_size):
    """The scorers every recorder calls agree with one-warp-at-a-time scoring on
    narrow, exact, ragged and multi-warp accesses, with and without duplicate words,
    whether the rows arrive sorted (no sort taken) or not (row sort taken)."""
    rng = np.random.default_rng(element_bytes * warp_size)
    for lanes in (0, 1, 5, warp_size - 1, warp_size, warp_size + 1, 3 * warp_size + 7, 256):
        for spread in (4, 64, 4096):  # a small spread forces broadcasts and duplicates
            for flat in _row_orders(rng, lanes, spread).values():
                expected_degrees, expected_sectors = _per_warp_scores(flat, warp_size, element_bytes)
                degrees = row_conflict_degrees(warp_rows(flat[None, :], warp_size), element_bytes)
                assert degrees.tolist() == expected_degrees
                sectors = warp_rows(flat[None, :] * element_bytes // 32, warp_size)
                assert _row_sectors(sectors) == expected_sectors

                by_loop, at_once, tiled, repeated = (ConflictProfile() for _ in range(4))
                for degree in degrees:
                    by_loop.record(int(degree))
                at_once.record_many(degrees)
                assert at_once == by_loop
                tiled.record_many(np.tile(degrees, 3))
                repeated.record_many(degrees, repeat=3)
                assert repeated == tiled


@pytest.mark.parametrize("warp_size", [16, 32])
def test_dense_rows_with_a_ragged_tail_equal_the_per_row_loop(warp_size):
    """A ``(rows, row_length)`` access is each row cut into warps of its own: the
    tail chunk of one row never borrows lanes from the next."""
    rng = np.random.default_rng(warp_size)
    for row_length in (5, warp_size, 2 * warp_size + 3):
        dense = rng.integers(0, 512, size=(7, row_length))
        dense[::2] = np.sort(dense[::2], axis=1)  # some rows arrive sorted, some do not
        per_row = [_per_warp_scores(row, warp_size, 4) for row in dense]
        assert row_conflict_degrees(warp_rows(dense, warp_size), 4).tolist() == \
            [degree for degrees, _ in per_row for degree in degrees]
        assert _row_sectors(warp_rows(dense * 4 // 32, warp_size)) == \
            [count for _, counts in per_row for count in counts]


@pytest.mark.parametrize("warp_size", [16, 32])
def test_ragged_rows_equal_scoring_each_blocks_compacted_lanes(warp_size):
    """The ``_CompactedThreads`` contract: lanes that survive a per-block mask are
    chunked into warps block by block (an all-masked block contributes nothing)."""
    rng = np.random.default_rng(7 * warp_size)
    mask = rng.random((9, 2 * warp_size + 5)) < 0.6
    mask[3] = False
    mask[5] = True
    values = rng.integers(0, 4096, size=mask.shape)
    chunks = ragged_warp_rows(values[mask], mask.sum(axis=1), warp_size)
    per_block = [_per_warp_scores(row[keep], warp_size, 4) for row, keep in zip(values, mask)]
    assert row_conflict_degrees(chunks, 4).tolist() == \
        [degree for degrees, _ in per_block for degree in degrees]
    assert _row_sectors(chunks * 4 // 32) == \
        [count for _, counts in per_block for count in counts]
    with pytest.raises(ValueError):
        ragged_warp_rows(values[mask], mask.sum(axis=1)[:-1], warp_size)


def test_row_distinct_counts_under_a_mask_equal_np_unique():
    """mini-Triton's per-program dedup: row = program, ``valid`` = its mask."""
    rng = np.random.default_rng(11)
    sectors = rng.integers(0, 40, size=(12, 48))
    sectors[:4] = np.sort(sectors[:4], axis=1)
    valid = rng.random(sectors.shape) < 0.5
    valid[0] = False  # an all-masked program touches nothing
    valid[1] = True
    valid[2, 30:] = False  # a bounds mask: the tail of a sorted row
    expected = [np.unique(row[keep]).size for row, keep in zip(sectors, valid)]
    assert expected[0] == 0
    assert _program_sectors(sectors, valid) == expected
    unmasked = [np.unique(row).size for row in sectors]
    assert _program_sectors(sectors) == _row_sectors(sectors) == unmasked
    assert _program_sectors(np.zeros((3, 0), dtype=np.int64)) == [0, 0, 0]


def test_access_conflict_profile_merge():
    p1 = access_conflict_profile([[0, 32], [0, 1]])
    p2 = access_conflict_profile([[0, 32, 64]])
    merged = p1.merge(p2)
    assert merged.accesses == 3
    assert merged.worst_degree == 3
    assert merged.average_degree == pytest.approx((2 + 1 + 3) / 3)


def test_bytes_per_element():
    assert bytes_per_element("fp16") == 2
    assert bytes_per_element("fp32") == 4
    with pytest.raises(ValueError):
        bytes_per_element("fp128")


def test_device_peak_flops_by_dtype():
    assert A100_80GB.peak_flops("fp16", tensor_core=True) == 312_000.0
    assert A100_80GB.peak_flops("fp32") == 19_500.0
    assert A100_80GB.peak_flops("fp64") == 9_700.0
    assert A100_80GB.smem_bandwidth_gbs > A100_80GB.dram_bandwidth_gbs


def test_estimate_time_identifies_bound():
    compute_heavy = KernelCost(flops=1e12, dram_bytes=1e6, blocks=1000, threads_per_block=256)
    memory_heavy = KernelCost(flops=1e6, dram_bytes=1e10, blocks=1000, threads_per_block=256)
    assert estimate_time(compute_heavy, A100_80GB).bound == "compute"
    assert estimate_time(memory_heavy, A100_80GB).bound == "dram"


def test_estimate_time_bank_conflicts_slow_smem_bound_kernels():
    base = KernelCost(smem_bytes=1e9, blocks=1000, threads_per_block=256)
    conflicted = KernelCost(smem_bytes=1e9, bank_conflict_factor=8.0, blocks=1000, threads_per_block=256)
    assert estimate_time(conflicted, A100_80GB).total > estimate_time(base, A100_80GB).total * 4


def test_occupancy_factor_penalises_tiny_grids():
    small = KernelCost(blocks=4, threads_per_block=256)
    large = KernelCost(blocks=10_000, threads_per_block=256)
    assert occupancy_factor(small, A100_80GB) < occupancy_factor(large, A100_80GB)


def test_roofline_point_memory_bound_kernel():
    cost = KernelCost(flops=1e9, dram_bytes=1e9, blocks=1000, threads_per_block=256)
    point = roofline_point(cost, A100_80GB)
    assert point["arithmetic_intensity"] == pytest.approx(1.0)
    assert point["achieved_gflops"] <= point["memory_roof_gflops"] * 1.05


def test_baselines_are_monotone_in_size():
    t2k = cublas_matmul_time(2048, 2048, 2048, A100_80GB)
    t8k = cublas_matmul_time(8192, 8192, 8192, A100_80GB)
    assert t8k > t2k
    assert pytorch_elementwise_time(1 << 20, A100_80GB) < pytorch_elementwise_time(1 << 24, A100_80GB)
