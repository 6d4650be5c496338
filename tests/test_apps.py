"""The benchmark applications: generated kernels are correct and layouts behave."""

import inspect
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from repro.apps import grouped_gemm, layernorm, lud, matmul, nw, softmax, stencil, transpose
from repro.apps.registry import available_apps, get_app
from repro.gpusim import DEVICE_ZOO, warp_conflict_degree


# -- matmul -------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_matmul_inputs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 64)).astype(np.float16)
    b = rng.standard_normal((64, 64)).astype(np.float16)
    return a, b, (a.astype(np.float32) @ b.astype(np.float32))


@pytest.mark.parametrize("variant", ["nn", "nt", "tn", "tt"])
def test_matmul_variants_only_change_layout_not_logic(variant, small_matmul_inputs):
    a, b, reference = small_matmul_inputs
    kernel = matmul.generate_matmul_kernel(variant)
    config = matmul.MatmulConfig(64, 64, 64, BM=16, BN=16, BK=16, GM=2)
    result, trace = matmul.run_matmul(kernel, a, b, config, variant)
    assert np.allclose(result.astype(np.float32), reference, atol=1.0, rtol=1e-2)
    assert trace.tensor_core_flops > 0


def test_matmul_reference_and_lego_op_counts_match_table4():
    assert matmul.reference_index_ops() == 31
    assert matmul.lego_spec_index_ops() == 9


def test_matmul_performance_ordering():
    small = matmul.MatmulConfig(2048, 2048, 2048)
    large = matmul.MatmulConfig(8192, 8192, 8192)
    # cuBLAS leads at 2k; the gap closes (ratio approaches 1) at 8k
    ratio_small = matmul.matmul_performance(small, "lego") / matmul.matmul_performance(small, "cublas")
    ratio_large = matmul.matmul_performance(large, "lego") / matmul.matmul_performance(large, "cublas")
    assert ratio_small > ratio_large
    assert ratio_large < 1.1


@pytest.mark.parametrize("variant", ["nn", "nt", "tn", "tt"])
@pytest.mark.parametrize("shape", [(32, 32, 16), (32, 16, 32), (16, 32, 32)])
def test_matmul_variants_handle_non_square_shapes(variant, shape):
    """Transposed operands must address correctly when M, N, K differ.

    Regression: the ``Col`` data layouts were built with reversed logical
    shapes, which cancels out for square operands (the only shape the suite
    used to run) but mis-addresses non-square ones — caught by the
    differential verification sweep.
    """
    m, n, k = shape
    rng = np.random.default_rng(2)
    a = rng.standard_normal((m, k)).astype(np.float16)
    b = rng.standard_normal((k, n)).astype(np.float16)
    kernel = matmul.generate_matmul_kernel(variant)
    config = matmul.MatmulConfig(m, n, k, BM=16, BN=16, BK=8, GM=2)
    result, _ = matmul.run_matmul(kernel, a, b, config, variant)
    reference = a.astype(np.float32) @ b.astype(np.float32)
    assert np.allclose(result.astype(np.float32), reference, atol=0.1, rtol=1e-2)


def test_matmul_rejects_unknown_variant():
    with pytest.raises(ValueError):
        matmul.build_matmul_context("xy")
    with pytest.raises(ValueError):
        matmul.matmul_performance(matmul.MatmulConfig(256, 256, 256), "rocblas")


# -- grouped GEMM ---------------------------------------------------------------------------


def test_grouped_gemm_correctness():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 32, 32)).astype(np.float16)
    b = rng.standard_normal((3, 32, 32)).astype(np.float16)
    kernel = grouped_gemm.generate_grouped_gemm_kernel()
    config = grouped_gemm.GroupedGemmConfig(groups=3, M=32, N=32, K=32, BM=16, BN=16, BK=16)
    result, _ = grouped_gemm.run_grouped_gemm(kernel, a, b, config)
    assert np.allclose(result.astype(np.float32), grouped_gemm.grouped_gemm_reference(a, b), atol=1.0, rtol=1e-2)


def test_grouped_gemm_fusion_beats_per_group_launches():
    config = grouped_gemm.GroupedGemmConfig(groups=16, M=512, N=512, K=512)
    fused = grouped_gemm.grouped_gemm_performance(config, "lego")
    eager = grouped_gemm.grouped_gemm_performance(config, "cublas")
    assert fused < eager


# -- softmax ------------------------------------------------------------------------------------


def test_softmax_kernel_matches_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((48, 96)).astype(np.float32)
    kernel = softmax.generate_softmax_kernel()
    result, trace = softmax.run_softmax(kernel, x)
    assert np.allclose(result, softmax.softmax_reference(x), atol=1e-5)
    assert trace.load_elements == x.size
    assert trace.store_elements == x.size


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 32)).astype(np.float32)
    kernel = softmax.generate_softmax_kernel()
    result, _ = softmax.run_softmax(kernel, x)
    assert np.allclose(result.sum(axis=1), 1.0, atol=1e-5)


def test_softmax_fused_beats_pytorch_eager():
    config = softmax.SoftmaxConfig(M=4096, N=4096)
    assert softmax.softmax_performance(config, "lego") < softmax.softmax_performance(config, "pytorch")


# -- layernorm -------------------------------------------------------------------------------------


def test_layernorm_forward_matches_reference():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 64)).astype(np.float32)
    w = rng.standard_normal(64).astype(np.float32)
    b = rng.standard_normal(64).astype(np.float32)
    kernel = layernorm.generate_layernorm_forward()
    result, _ = layernorm.run_layernorm_forward(kernel, x, w, b)
    assert np.allclose(result, layernorm.layernorm_reference(x, w, b), atol=1e-4)


def test_layernorm_backward_matches_reference():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((32, 64)).astype(np.float32)
    dy = rng.standard_normal((32, 64)).astype(np.float32)
    w = rng.standard_normal(64).astype(np.float32)
    kernel = layernorm.generate_layernorm_backward()
    result, _ = layernorm.run_layernorm_backward(kernel, dy, x, w)
    assert np.allclose(result, layernorm.layernorm_backward_reference(dy, x, w), atol=1e-4)


def test_layernorm_lego_ahead_of_reference_triton_forward():
    config = layernorm.LayerNormConfig(M=4096, N=4096)
    lego = layernorm.layernorm_performance(config, "lego", "forward")
    triton = layernorm.layernorm_performance(config, "triton", "forward")
    pytorch = layernorm.layernorm_performance(config, "pytorch", "forward")
    assert lego < triton < pytorch


def test_layernorm_rejects_unknown_direction():
    with pytest.raises(ValueError):
        layernorm.layernorm_performance(layernorm.LayerNormConfig(64, 64), "lego", "sideways")


# -- NW --------------------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nw_case():
    rng = np.random.default_rng(7)
    reference = rng.integers(-4, 5, size=(48, 48)).astype(np.int32)
    config = nw.NwConfig(n=48, block=16, penalty=10)
    gold = nw.nw_reference(reference, 10)
    return reference, config, gold


def _nw_cell_loop(reference, penalty):
    """The cell-by-cell dynamic program: the oracle of the anti-diagonal ``nw_reference``."""
    n = reference.shape[0]
    score = np.zeros((n + 1, n + 1), dtype=np.int32)
    score[0, :] = -penalty * np.arange(n + 1)
    score[:, 0] = -penalty * np.arange(n + 1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            score[i, j] = max(
                score[i - 1, j - 1] + reference[i - 1, j - 1],
                score[i, j - 1] - penalty,
                score[i - 1, j] - penalty,
            )
    return score


@pytest.mark.parametrize("penalty", [0, 10])
@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_nw_reference_equals_the_cell_loop(n, penalty):
    rng = np.random.default_rng(1000 * n + penalty)
    reference = rng.integers(-12, 13, size=(n, n)).astype(np.int32)
    got = nw.nw_reference(reference, penalty)
    assert got.dtype == np.int32
    assert np.array_equal(got, _nw_cell_loop(reference, penalty))


def test_nw_blocked_row_major_matches_reference(nw_case):
    reference, config, gold = nw_case
    score, _ = nw.run_nw_blocked(reference, config, layout=None)
    assert np.array_equal(score, gold)


def test_nw_blocked_antidiagonal_layout_matches_reference(nw_case):
    reference, config, gold = nw_case
    score, _ = nw.run_nw_blocked(reference, config, layout=nw.antidiagonal_buffer_layout(16))
    assert np.array_equal(score, gold)


def test_nw_antidiagonal_layout_removes_bank_conflicts(nw_case):
    reference, config, _ = nw_case
    _, trace_row = nw.run_nw_blocked(reference, config, layout=None)
    _, trace_anti = nw.run_nw_blocked(reference, config, layout=nw.antidiagonal_buffer_layout(16))
    assert trace_row.bank_conflict_factor > 2.0
    assert trace_anti.bank_conflict_factor < 1.2


def test_nw_speedup_in_paper_band():
    result = nw.nw_speedup(4096, block=16)
    assert 1.3 <= result["speedup"] <= 2.2


@pytest.mark.parametrize("device_name", sorted(DEVICE_ZOO))
def test_nw_static_block_trace_equals_the_traced_launch(device_name):
    """The static model is the per-block share of a real traced run, bit for bit."""
    device = DEVICE_ZOO[device_name]
    spec = get_app("nw")
    for config in spec.space:
        block, layout = config["block"], nw.nw_buffer_layout(config["block"], config["layout"])
        traced = nw.NwConfig(n=2 * block, block=block)  # a 1-, a 2- and a 1-block wave
        reference = np.zeros((traced.n, traced.n), dtype=np.int32)
        _, trace = nw.run_nw_blocked(reference, traced, layout=layout, device=device)
        static = nw.nw_block_trace(block, layout, device)

        measured, profile = trace.smem_profile, static.smem_profile
        assert trace.blocks == 4
        assert measured.histogram == {d: 4 * c for d, c in profile.histogram.items()}
        assert measured.accesses == 4 * profile.accesses
        assert measured.worst_degree == profile.worst_degree
        assert measured.average_degree == profile.average_degree
        assert trace.load_bytes == 4 * static.load_bytes
        assert trace.store_bytes == 4 * static.store_bytes

        target = nw.NwConfig(n=4096, block=block)
        assert spec.evaluate(dict(config), device=device) == {
            "time_seconds": nw.nw_performance(trace, traced, target, device=device),
            "conflict_factor": trace.bank_conflict_factor,
        }


@pytest.mark.parametrize("block", [4, 8, 16, 32])
@pytest.mark.parametrize("layout_name, stride_of", [
    ("row", lambda b: b), ("col", lambda b: b), ("antidiagonal", lambda b: 1),
])
def test_nw_static_profile_obeys_the_stride_rule(layout_name, stride_of, block):
    """Lanes ``stride`` words apart hit ``32 / gcd(stride, 32)`` banks, ``k`` lanes
    serialise into ``ceil(k / banks)`` passes: the closed form for the affine layouts."""
    layout = nw.nw_buffer_layout(block, layout_name)
    banks = 32 // math.gcd(stride_of(block), 32)
    expected = Counter()
    for m in range(2 * block - 1):
        lanes = min(m, block - 1) - max(0, m - block + 1) + 1
        expected[-(-lanes // banks)] += 4  # three neighbour loads and the cell store

    def word(i, j):
        return i * (block + 1) + j if layout is None else layout.apply(i, j)

    # the staging stores are not constant-stride under every layout: score them lane by lane
    expected[warp_conflict_degree([word(0, t + 1) for t in range(block)])] += 1
    expected[warp_conflict_degree([word(t + 1, 0) for t in range(block)])] += 1
    expected[1] += 1  # the corner
    assert nw.nw_block_trace(block, layout).smem_profile.histogram == expected


def test_nw_wrapper_contains_device_function():
    wrapper = nw.generate_nw_wrapper(16)
    assert "antidiag" in wrapper and "struct" in wrapper


def test_nw_config_validation():
    with pytest.raises(ValueError):
        nw.NwConfig(n=50, block=16)


# -- LUD -------------------------------------------------------------------------------------------


def split_lu(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the packed LUD output into ``(L, U)`` factors."""
    return np.tril(packed, -1) + np.eye(packed.shape[0]), np.triu(packed)


def test_lud_blocked_factorisation_reconstructs_input():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((64, 64)) + 64 * np.eye(64)
    packed = lud.lud_blocked(a, 16)
    lower, upper = split_lu(packed)
    assert np.allclose(lower @ upper, a, atol=1e-8)


def test_lud_blocked_matches_unblocked_reference():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((32, 32)) + 32 * np.eye(32)
    packed = lud.lud_blocked(a, 8)
    ref_lower, ref_upper = lud.lud_reference(a)
    lower, upper = split_lu(packed)
    assert np.allclose(lower, ref_lower, atol=1e-8)
    assert np.allclose(upper, ref_upper, atol=1e-8)


def test_lud_coarsened_thread_layout_covers_block():
    layout = lud.coarsened_thread_layout(64, 16)
    covered = {
        layout.apply(ri, rj, ti, tj)
        for ri in range(4)
        for rj in range(4)
        for ti in range(16)
        for tj in range(16)
    }
    assert covered == set(range(64 * 64))


def test_lud_kernel_generation_embeds_layout_offset():
    kernel = lud.generate_lud_internal_kernel(lud.LudConfig(1024, 64, 16))
    assert "lud_internal" in kernel.source
    assert "element" in kernel.source
    assert "{{" not in kernel.source


def test_lud_best_configuration_is_block64_coarsen4():
    times = {cfg.block: lud.lud_performance_vectorized(cfg) for cfg in lud.lud_configurations(2048)}
    assert times[64] < times[32] < times[16]


def test_lud_config_validation():
    with pytest.raises(ValueError):
        lud.LudConfig(100, 16)
    with pytest.raises(ValueError):
        lud.LudConfig(128, 24, 16)


# -- stencils ------------------------------------------------------------------------------------------


def test_stencil_offsets_counts():
    counts = {spec.name: spec.points for spec in stencil.STENCILS}
    assert counts["star-7pt"] == 7
    assert counts["star-13pt"] == 13
    assert counts["cube-27pt"] == 27
    assert counts["cube-125pt"] == 125


@pytest.mark.parametrize("spec", stencil.STENCILS[:2] + stencil.STENCILS[4:5], ids=lambda s: s.name)
def test_stencil_kernel_matches_reference_both_layouts(spec):
    rng = np.random.default_rng(10)
    grid = rng.standard_normal((16, 16, 16)).astype(np.float32)
    reference = stencil.stencil_reference(grid, spec)
    out_array, _ = stencil.run_stencil(grid, spec, layout=None, brick=4)
    out_brick, _ = stencil.run_stencil(grid, spec, layout=stencil.brick_layout(16, 4), brick=4)
    assert np.allclose(out_array, reference, atol=1e-4)
    assert np.allclose(out_brick, reference, atol=1e-4)


def test_brick_layout_is_bijective_and_brick_contiguous():
    layout = stencil.brick_layout(8, 4)
    assert layout.verify()
    first_brick = {layout.apply(i, j, k) for i in range(4) for j in range(4) for k in range(4)}
    assert first_brick == set(range(64))


def test_stencil_speedups_in_paper_band():
    for spec in stencil.STENCILS:
        speedup = stencil.stencil_speedup(spec, 512, 8)["speedup"]
        assert 3.2 <= speedup <= 4.0, (spec.name, speedup)


def test_stencil_invalid_layout_name():
    with pytest.raises(ValueError):
        stencil.stencil_performance(stencil.STENCILS[0], 256, "diagonal")


# -- transpose -----------------------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["naive", "smem"])
def test_transpose_kernels_are_correct(variant):
    config = transpose.TransposeConfig(64, 16)
    kernel = transpose.generate_transpose(config, variant)
    matrix = np.random.default_rng(11).standard_normal((64, 64)).astype(np.float32)
    result, launch_result = transpose.run_transpose(kernel, matrix, config)
    assert np.array_equal(result, matrix.T)
    assert launch_result.store_elements == 64 * 64


def test_transpose_naive_write_is_uncoalesced_and_smem_is_not():
    config = transpose.TransposeConfig(64, 16)
    _, naive = transpose.run_transpose(transpose.generate_transpose(config, "naive"),
                                       np.zeros((64, 64), dtype=np.float32), config)
    _, staged = transpose.run_transpose(transpose.generate_transpose(config, "smem"),
                                        np.zeros((64, 64), dtype=np.float32), config)
    assert naive.store_transactions > 3 * staged.store_transactions
    assert staged.bank_conflict_factor < 1.1


def test_transpose_table_shape_matches_paper():
    rows = transpose.transpose_table(sizes=(2048, 4096))
    by_key = {(r["size"], r["variant"]): r for r in rows}
    for size in (2048, 4096):
        naive = by_key[(size, "naive")]
        smem = by_key[(size, "smem")]
        # the staged variant is several times faster and LEGO has a slight edge
        assert smem["lego_mlir_gbs"] > 3 * naive["lego_mlir_gbs"]
        assert smem["lego_mlir_gbs"] > smem["cuda_sdk_gbs"]
        assert naive["lego_mlir_gbs"] > naive["cuda_sdk_gbs"]


# -- every tuning axis reaches the program ------------------------------------------


#: the launch configuration each app's launcher takes
_LAUNCHER_CONFIGS = {
    "matmul": matmul.MatmulConfig,
    "grouped_gemm": grouped_gemm.GroupedGemmConfig,
    "lud": lud.LudConfig,
    "transpose": transpose.TransposeConfig,
    "nw": nw.NwConfig,
}


def _program_inputs(spec) -> set:
    """The names a tuning axis may carry: what the generated kernel text
    reads, a field of the launcher's configuration, or (the stencil, whose
    candidates share no generated text) a parameter of ``run_stencil`` /
    the resolved configuration ``stencil_case`` runs it with."""
    assert spec.generate is None or spec.generate_params is not None, spec.name
    names = set(spec.generate_params or ())
    if spec.name in _LAUNCHER_CONFIGS:
        names |= {f.name for f in fields(_LAUNCHER_CONFIGS[spec.name])}
    if spec.name == "stencil":
        names |= set(inspect.signature(stencil.run_stencil).parameters)
        names |= set(stencil.stencil_case(next(iter(spec.space)), np.random.default_rng(0)).config)
    return names


def _case_fingerprint(spec, config):
    case = spec.case(config, np.random.default_rng(0)) if spec.case is not None else None
    if case is None:
        return None
    inputs = {name: np.asarray(array).tobytes() for name, array in case.inputs.items()}
    return (case.config, inputs, case.scale, case.launches, case.target_config,
            case.dtype, case.tensor_core)


def _axis_moves_the_program(spec, axis) -> bool:
    """Some pair of valid configurations differing only in ``axis`` differs in
    the kernel text's inputs, in the built case, or in the analytic model."""
    space = spec.space
    values = next(c for c in space.choices if c.name == axis).values
    for config in space:
        for value in values:
            other = {**config, axis: value}
            if value == config[axis] or (space.constraint and not space.constraint(other)):
                continue
            if spec.generate is not None and spec.generate_config(config) != spec.generate_config(other):
                return True  # e.g. matmul's variant moves only the kernel text
            if spec.evaluate(config) != spec.evaluate(other):
                return True
            if _case_fingerprint(spec, config) != _case_fingerprint(spec, other):
                return True
    return False


@pytest.mark.parametrize("app", available_apps())
def test_every_tuning_axis_is_realised(app):
    spec = get_app(app)
    inputs = _program_inputs(spec)
    for choice in spec.space.choices:
        assert choice.name in inputs, (
            f"{app}: axis {choice.name!r} is no kernel parameter, launcher field "
            f"or stencil-run parameter ({sorted(inputs)})"
        )
        assert _axis_moves_the_program(spec, choice.name), f"{app}: axis {choice.name!r} is dead"
