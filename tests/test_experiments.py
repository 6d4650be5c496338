"""The reproduced tables and figures have the shapes the paper reports."""

import pytest

from repro.bench import figures
from repro.bench.harness import ExperimentResult, format_series, format_table
from repro.codegen import compare_expansion_strategies
from repro.core import GroupBy, Row, TileBy
from repro.symbolic import SymbolicEnv, Var, operation_count, simplify_fixpoint, symbols


def test_table1_all_layouts_equivalent():
    result = figures.table1()
    assert all(row["lego_matches_cute"] for row in result.rows)
    assert len(result.rows) == 6


def test_table2_all_rules_simplify_and_agree_with_oracle():
    result = figures.table2()
    assert len(result.rows) == 7
    assert all(row["matches_expected"] for row in result.rows)
    assert all(row["oracle_agrees"] for row in result.rows)


def test_table3_generation_latency_is_interactive():
    result = figures.table3()
    times = {row["benchmark"]: row["generation_seconds"] for row in result.rows}
    assert len(times) == 8
    assert all(t < 30.0 for t in times.values())
    assert times["Softmax"] < times["Matmul (each variant)"]


def test_table4_op_reductions():
    result = figures.table4()
    by_name = {row["operator"]: row for row in result.rows}
    assert by_name["Matmul"]["original_ops"] == 31
    assert by_name["Matmul"]["optimized_ops"] == 9
    for row in result.rows:
        assert row["optimized_ops"] < row["original_ops"]


@pytest.fixture(scope="module")
def fig11_rows():
    return figures.fig11().rows


def test_fig11_lego_tracks_triton(fig11_rows):
    for row in fig11_rows:
        if "triton_tflops" in row:
            assert row["lego_tflops"] == pytest.approx(row["triton_tflops"], rel=0.05)
        elif row["benchmark"] != "layernorm_forward":
            assert row["lego_gbs"] == pytest.approx(row["triton_gbs"], rel=0.15)


def test_fig11_cublas_gap_closes_with_size(fig11_rows):
    matmul_rows = {r["size"]: r for r in fig11_rows if r["benchmark"] == "matmul_fp16"}
    gap_2k = matmul_rows[2048]["cublas_tflops"] / matmul_rows[2048]["lego_tflops"]
    gap_8k = matmul_rows[8192]["cublas_tflops"] / matmul_rows[8192]["lego_tflops"]
    assert gap_2k > gap_8k
    assert gap_8k < 1.1


def test_fig11_fused_kernels_beat_pytorch(fig11_rows):
    for row in fig11_rows:
        if row["benchmark"] in ("softmax", "layernorm_forward", "layernorm_backward"):
            assert row["lego_gbs"] > row["pytorch_gbs"]


def test_fig12a_nw_speedups_in_band():
    result = figures.fig12a()
    speedups = [row["speedup"] for row in result.rows]
    assert all(1.3 <= s <= 2.2 for s in speedups)
    assert speedups[-1] >= speedups[0]  # grows with problem size


def test_fig12b_best_is_block64():
    result = figures.fig12b(n=2048)
    times = {row["lud_block"]: row["time_ms"] for row in result.rows}
    assert times[64] == min(times.values())
    coarsening = {row["lud_block"]: row["coarsening"] for row in result.rows}
    assert coarsening[64] == 4 and coarsening[16] == 1


def test_fig12c_brick_speedups_in_band():
    result = figures.fig12c()
    assert len(result.rows) == 6
    for row in result.rows:
        assert 3.2 <= row["speedup"] <= 4.0


def test_fig13_rooflines_move_toward_the_roof():
    rows = {row["kernel"]: row for row in figures.fig13().rows}
    assert all(row["achieved_gflops"] > 0 for row in rows.values())
    assert rows["LUD block 64 (coarsen 4)"]["achieved_gflops"] > rows["LUD block 16 (coarsen 1)"]["achieved_gflops"]
    arrays = [name for name in rows if name.endswith("(array)")]
    assert len(arrays) == 6
    for name in arrays:
        array_row, brick_row = rows[name], rows[name.replace("(array)", "(brick)")]
        assert brick_row["achieved_gflops"] > array_row["achieved_gflops"]
        assert brick_row["achieved_gflops"] <= brick_row["memory_roof_gflops"] * 1.05


def test_table5_transpose_shape():
    result = figures.table5()
    for row in result.rows:
        assert row["lego_mlir_gbs"] > row["cuda_sdk_gbs"] * 0.98
    naive = [r for r in result.rows if r["variant"] == "naive"]
    smem = [r for r in result.rows if r["variant"] == "smem"]
    assert min(s["lego_mlir_gbs"] for s in smem) > 3 * max(n["lego_mlir_gbs"] for n in naive)


# -- ablations -----------------------------------------------------------------------


def _tiled_matmul_pointer(with_facts: bool = True):
    """The tiled matmul A-tile pointer offset, with or without its range facts."""
    M, K, BM, BK = symbols("M K BM BK")
    pid_m, k = Var("pid_m"), Var("k")
    env = SymbolicEnv()
    if with_facts:
        env.declare_size(M, K, BM, BK)
        env.declare_index(pid_m, M // BM)
        env.declare_index(k, K // BK)
        env.declare_divisible(M, BM)
        env.declare_divisible(K, BK)
    tile = TileBy([M // BM, K // BK], [BM, BK]).OrderBy(Row(M, K))[pid_m, k, :, :]
    if with_facts:
        tile.contribute_env(env)
    return tile.offset, env


def test_ablation_expansion_helps_the_tiled_pointer_not_the_rowwise_offset():
    # Section IV-A: pre-expansion exposes divisibility folds in tiled
    # pointers and only adds terms to an already-simple row offset
    tiled = compare_expansion_strategies(*_tiled_matmul_pointer())
    assert tiled["expanded"] <= tiled["unexpanded"]
    M, N = symbols("M N")
    row = Var("row")
    env = SymbolicEnv()
    env.declare_size(M, N)
    env.declare_index(row, M)
    rowwise = GroupBy([M, N]).OrderBy(Row(M, N))[row, :]
    rowwise.contribute_env(env)
    counts = compare_expansion_strategies(rowwise.offset, env)
    assert counts["unexpanded"] <= counts["expanded"]


def test_ablation_range_facts_more_than_halve_the_op_count():
    # how much of Table IV's reduction the range-proved Table II rules buy
    # over plain algebraic clean-up of the same lowered expression
    with_facts = operation_count(simplify_fixpoint(*_tiled_matmul_pointer()))
    without = operation_count(simplify_fixpoint(*_tiled_matmul_pointer(with_facts=False)))
    assert with_facts < without / 2


def test_experiment_result_helpers():
    result = ExperimentResult("X", "demo", rows=[{"a": 1, "b": 2.0}, {"a": 3, "b": 4.5}])
    assert result.column("a") == [1, 3]
    text = result.to_text()
    assert "X: demo" in text and "4.5" in text
    assert format_table([]) == "(no rows)"
    assert "s1: 1" in format_series("s1", [1], [1])
