"""One entry point per table/figure of the paper's evaluation section.

Every function returns an :class:`~repro.bench.harness.ExperimentResult`
whose rows reproduce the corresponding table/figure series.  Absolute times
come from the analytic device model (DESIGN.md documents the substitution);
the assertions in ``tests/test_experiments.py`` focus on the *shape* the
paper reports — who wins, by what factor, and where the crossovers fall.
"""

from __future__ import annotations

import time

from ..apps import grouped_gemm, layernorm, lud, matmul, nw, softmax, stencil, transpose
from ..core import Col, GenP, GroupBy, RegP, Row, TileBy, antidiagonal, equivalent, StrideLayout
from ..symbolic import SymbolicEnv, Var, brute_force_check, simplify_fixpoint, symbols
from ..symbolic.expr import FloorDiv, Mod
from .harness import ExperimentResult

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig11",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig13",
]


# ---------------------------------------------------------------------------
# Table I — LEGO vs CuTe/Graphene layout specifications
# ---------------------------------------------------------------------------


def table1() -> ExperimentResult:
    """Machine-check that each LEGO layout matches its CuTe/Graphene strides."""
    rows = []

    # Figure 1 data layout: (M/BM, K/BK, BM, BK) tiles of a row-major matrix
    m, k, bm, bk = 8, 6, 4, 3
    lego_fig1 = TileBy([m // bm, k // bk], [bm, bk]).OrderBy(Row(m, k))
    cute_fig1 = StrideLayout((m // bm, k // bk, bm, bk), (k * bm, bk, k, 1))
    rows.append({"figure": "1", "lego_matches_cute": equivalent(lego_fig1, cute_fig1)})

    # Figure 6 (middle): 6x6 tiled as a 2x2 grid of 3x3 blocks.  The strides
    # describe the *reordered* (tile-contiguous) buffer LEGO produces: 18
    # between block rows, 9 between block columns, 3 between rows in a block.
    lego_fig6 = GroupBy([6, 6]).OrderBy(RegP([2, 3, 2, 3], [1, 3, 2, 4]))
    cute_fig6 = StrideLayout(((2, 2), (3, 3)), ((18, 9), (3, 1)))
    rows.append(
        {
            "figure": "6mid",
            "lego_matches_cute": equivalent(
                lego_fig6, cute_fig6, coordinate_map=lambda c: (c[0] // 3, c[1] // 3, c[0] % 3, c[1] % 3)
            ),
        }
    )

    # Figure 8: the 5-D bit layout that is non-contiguous in two dimensions
    lego_fig8 = GroupBy([2, 2, 2, 2, 2]).OrderBy(RegP([2, 2, 2, 2, 2], [5, 2, 4, 3, 1]))
    cute_fig8 = StrideLayout((2, 2, 2, 2, 2), (1, 8, 2, 4, 16))
    rows.append({"figure": "8", "lego_matches_cute": equivalent(lego_fig8, cute_fig8)})

    # Figure 12b: the coarsened LUD thread layout
    r, t = 2, 4
    lego_12b = GroupBy([r, r], [t, t]).OrderBy(Row(r * t, r * t))
    cute_12b = StrideLayout((r, r, t, t), (r * t * t, t * t, t, 1))
    rows.append({"figure": "12b", "lego_matches_cute": equivalent(lego_12b, cute_12b)})

    # Figure 12c: the 3-D brick layout, checked from the grid's logical view
    n, b = 8, 4
    lego_12c = stencil.brick_layout(n, b)
    nb = n // b
    cute_12c = StrideLayout(
        (nb, nb, nb, b, b, b),
        (nb * nb * b ** 3, nb * b ** 3, b ** 3, b * b, b, 1),
    )
    rows.append(
        {
            "figure": "12c",
            "lego_matches_cute": equivalent(
                lego_12c,
                cute_12c,
                coordinate_map=lambda c: (c[0] // b, c[1] // b, c[2] // b, c[0] % b, c[1] % b, c[2] % b),
            ),
        }
    )

    # The anti-diagonal layout admits *no* stride-based description.
    from ..core import strides_from_layout

    antidiag = GroupBy([6, 6]).OrderBy(antidiagonal(6))
    rows.append({"figure": "6 antidiag", "lego_matches_cute": strides_from_layout(antidiag) is None})

    return ExperimentResult(
        experiment="Table I",
        description="LEGO vs CuTe/Graphene layout equivalence (and the non-strided anti-diagonal)",
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table II — division/modulo simplification rules
# ---------------------------------------------------------------------------


def table2() -> ExperimentResult:
    """Apply each Table II rewrite and validate it against the brute-force oracle."""
    d, q, r, x, a, n, y = symbols("d q r x a n y")
    env = SymbolicEnv()
    env.declare_size(d, a)
    env.declare_index(q, 64)
    env.declare_index(r, d)
    env.declare_index(x, a)
    env.declare_nonneg(n, y)

    cases = [
        ("(d*q + r) % d", Mod(d * q + r, d), r),
        ("(d*q + r) / d", FloorDiv(d * q + r, d), q),
        ("(x % d) / d", FloorDiv(Mod(x, d), d), 0),
        ("x / a", FloorDiv(x, a), 0),
        ("x % a", Mod(x, a), x),
        ("(n + y) / 1", FloorDiv(n + y, 1), n + y),
        ("a*(x/a) + x%a", a * FloorDiv(x, a) + Mod(x, a), x),
    ]
    domains = {"d": range(1, 5), "q": range(0, 4), "r": range(0, 4), "x": range(0, 4),
               "a": range(1, 5), "n": range(0, 4), "y": range(0, 4)}
    rows = []
    for pattern, expr, expected in cases:
        simplified = simplify_fixpoint(expr, env)
        expected_expr = simplify_fixpoint(expected, env)
        # the oracle only evaluates assignments consistent with the ranges
        restricted = {k: v for k, v in domains.items() if k in (expr.free_vars() | expected_expr.free_vars())}
        restricted_valid = _restrict_table2_domain(pattern, restricted)
        oracle = brute_force_check(expr, restricted_valid, equivalent_to=expected_expr)
        rows.append(
            {
                "pattern": pattern,
                "simplified": str(simplified),
                "matches_expected": simplified == expected_expr,
                "oracle_agrees": oracle,
            }
        )
    return ExperimentResult(
        experiment="Table II",
        description="Integer division and modulo simplification rules (range-proved)",
        rows=rows,
    )


def _restrict_table2_domain(pattern: str, domains: dict) -> dict:
    """Restrict brute-force domains to assignments satisfying the side conditions."""
    restricted = dict(domains)
    if pattern in ("(d*q + r) % d", "(d*q + r) / d"):
        # r ranges over [0, d); enumerating r < d only is handled by evaluating
        # with the smallest d = max(r)+1 guaranteed -- keep d >= 4 so r in [0,4) is valid
        restricted["d"] = range(4, 6)
    if pattern in ("x / a", "x % a"):
        restricted["a"] = range(4, 6)
    return restricted


# ---------------------------------------------------------------------------
# Table III — per-application code generation latency
# ---------------------------------------------------------------------------


def table3() -> ExperimentResult:
    """Wall-clock generation + simplification time for every application."""
    rows = []

    def timed(name, fn):
        started = time.perf_counter()
        fn()
        rows.append({"benchmark": name, "generation_seconds": time.perf_counter() - started})

    timed("Layernorm FWD + BWD", lambda: (layernorm.generate_layernorm_forward(),
                                           layernorm.generate_layernorm_backward()))
    timed("Grouped GEMM", grouped_gemm.generate_grouped_gemm_kernel)
    timed("Softmax", softmax.generate_softmax_kernel)
    timed("Matmul (each variant)", lambda: matmul.generate_matmul_kernel("nn"))
    timed("LUD", lambda: lud.generate_lud_internal_kernel(lud.LudConfig(1024, 64, 16)))
    timed("NW", lambda: nw.generate_nw_wrapper(16))
    timed("Bricks (Cube/Star)", lambda: stencil.brick_layout(512, 8))
    timed("Transpose (Naive/SMEM)", lambda: (transpose.generate_transpose(transpose.TransposeConfig(2048, 32), "naive"),
                                             transpose.generate_transpose(transpose.TransposeConfig(2048, 32), "smem")))
    return ExperimentResult(
        experiment="Table III",
        description="Per-application code generation and simplification latency",
        rows=rows,
        notes="Paper reports 0.05 s - 18 s on an Apple M2 Max; the ordering (softmax fastest, "
        "matmul/LUD ~1 s) is the comparable quantity here.",
    )


# ---------------------------------------------------------------------------
# Table IV — arithmetic operations before/after optimisation
# ---------------------------------------------------------------------------


def table4() -> ExperimentResult:
    """User-written index arithmetic: reference kernels vs LEGO specifications."""
    rows = [
        {"operator": "LayerNorm (FWD)", "original_ops": 6, "optimized_ops": 1},
        {"operator": "LayerNorm (BWD)", "original_ops": 4, "optimized_ops": 0},
        {"operator": "Softmax", "original_ops": 4, "optimized_ops": 0},
        {"operator": "Grouped GEMM", "original_ops": 20, "optimized_ops": 6},
        {
            "operator": "Matmul",
            "original_ops": matmul.reference_index_ops(),
            "optimized_ops": matmul.lego_spec_index_ops(),
        },
    ]
    return ExperimentResult(
        experiment="Table IV",
        description="Arithmetic ops the user must write, before and after LEGO",
        rows=rows,
        notes="Matmul row is measured from the kernel sources in this repository; the "
        "remaining rows restate the paper's counts for the corresponding Triton tutorials, "
        "whose LEGO specifications in repro.apps carry the same (near-zero) index arithmetic.",
    )


# ---------------------------------------------------------------------------
# Figure 11 — Triton benchmark suite
# ---------------------------------------------------------------------------


def fig11(sizes=(2048, 4096, 8192)) -> ExperimentResult:
    """LEGO vs Triton vs PyTorch/cuBLAS across the five Triton benchmarks."""
    rows = []
    for n in sizes:
        cfg = matmul.MatmulConfig(n, n, n)
        flops = 2.0 * n ** 3
        rows.append(
            {
                "size": n,
                "benchmark": "matmul_fp16",
                "lego_tflops": flops / matmul.matmul_performance(cfg, "lego") / 1e12,
                "triton_tflops": flops / matmul.matmul_performance(cfg, "triton") / 1e12,
                "cublas_tflops": flops / matmul.matmul_performance(cfg, "cublas") / 1e12,
            }
        )
        gcfg = grouped_gemm.GroupedGemmConfig(groups=8, M=n // 4, N=n // 4, K=n // 4)
        gflops = 8 * 2.0 * (n // 4) ** 3
        rows.append(
            {
                "size": n,
                "benchmark": "grouped_gemm",
                "lego_tflops": gflops / grouped_gemm.grouped_gemm_performance(gcfg, "lego") / 1e12,
                "triton_tflops": gflops / grouped_gemm.grouped_gemm_performance(gcfg, "triton") / 1e12,
                "cublas_tflops": gflops / grouped_gemm.grouped_gemm_performance(gcfg, "cublas") / 1e12,
            }
        )
        scfg = softmax.SoftmaxConfig(M=n, N=n)
        sbytes = 2.0 * 4.0 * n * n
        rows.append(
            {
                "size": n,
                "benchmark": "softmax",
                "lego_gbs": sbytes / softmax.softmax_performance(scfg, "lego") / 1e9,
                "triton_gbs": sbytes / softmax.softmax_performance(scfg, "triton") / 1e9,
                "pytorch_gbs": sbytes / softmax.softmax_performance(scfg, "pytorch") / 1e9,
            }
        )
        lcfg = layernorm.LayerNormConfig(M=n, N=n)
        for direction in ("forward", "backward"):
            passes = 3.0 if direction == "forward" else 4.0
            lbytes = passes * 4.0 * n * n
            rows.append(
                {
                    "size": n,
                    "benchmark": f"layernorm_{direction}",
                    "lego_gbs": lbytes / layernorm.layernorm_performance(lcfg, "lego", direction) / 1e9,
                    "triton_gbs": lbytes / layernorm.layernorm_performance(lcfg, "triton", direction) / 1e9,
                    "pytorch_gbs": lbytes / layernorm.layernorm_performance(lcfg, "pytorch", direction) / 1e9,
                }
            )
    return ExperimentResult(
        experiment="Figure 11",
        description="Triton benchmark suite: LEGO vs Triton vs PyTorch/cuBLAS",
        rows=rows,
        notes="LEGO tracks Triton everywhere; cuBLAS leads matmul at 2k and the gap closes by 8k; "
        "the fused kernels beat eager PyTorch on the normalisation benchmarks.",
    )


# ---------------------------------------------------------------------------
# Figure 12 — CUDA benchmarks
# ---------------------------------------------------------------------------


def fig12a(sizes=(2048, 4096, 8192, 16384)) -> ExperimentResult:
    """NW: row-major vs anti-diagonal shared-memory layout."""
    rows = [nw.nw_speedup(n, block=16) for n in sizes]
    return ExperimentResult(
        experiment="Figure 12a",
        description="Needleman-Wunsch speedup from the anti-diagonal shared-memory layout",
        rows=rows,
        notes="Paper reports 1.4x-2.1x, growing with problem size.",
    )


def fig12b(n: int = 2048) -> ExperimentResult:
    """LUD: block size / thread-coarsening sweep, driven by the autotuner.

    The figure's hand-rolled configuration loop is now one instance of the
    reusable search: the registered LUD app's space narrowed to the exact
    grid the paper sweeps (LUD blocks 16/32/64, CUDA block fixed at 16x16).
    """
    from ..apps.registry import get_app
    from ..tune import Choice, autotune

    spec = get_app("lud")
    space = spec.space.subspace(block=(16, 32, 64), cuda_block=(16,)).extended(Choice("n", (n,)))
    result = autotune(spec, space=space)
    rows = [
        {
            "lud_block": c.config["block"],
            "cuda_block": c.config["cuda_block"],
            "coarsening": c.config["block"] // c.config["cuda_block"],
            "time_ms": c.milliseconds,
        }
        for c in result.evaluations
    ]
    return ExperimentResult(
        experiment="Figure 12b",
        description="LUD thread-coarsening-as-layout sweep (autotuned)",
        rows=rows,
        notes="Best configuration: LUD block 64, CUDA block 16x16, coarsening factor 4.",
    )


def fig12c(n: int = 512, brick: int = 8) -> ExperimentResult:
    """Stencils: array vs brick data layout, driven by the autotuner.

    One two-candidate layout sweep per stencil shape; the brick layout wins
    every one of them, which is the figure's result.
    """
    from ..apps.registry import get_app
    from ..tune import Choice, autotune

    app = get_app("stencil")
    rows = []
    for spec in stencil.STENCILS:
        space = app.space.subspace(
            layout=("array", "brick"), brick=(brick,), stencil=(spec.name,),
        ).extended(Choice("n", (n,)))
        result = autotune(app, space=space)
        times = {c.config["layout"]: c.time_seconds for c in result.evaluations}
        rows.append(
            {
                "stencil": spec.name,
                "points": spec.points,
                "n": n,
                "time_array": times["array"],
                "time_brick": times["brick"],
                "speedup": times["array"] / times["brick"],
            }
        )
    return ExperimentResult(
        experiment="Figure 12c",
        description="3-D stencils: brick layout speedup over the row-major array (autotuned)",
        rows=rows,
        notes="Paper reports 3.4x-3.9x across stencil types.",
    )


# ---------------------------------------------------------------------------
# Figure 13 — rooflines
# ---------------------------------------------------------------------------


def fig13(n_lud: int = 2048, n_stencil: int = 512) -> ExperimentResult:
    """Roofline points for the LUD and stencil configurations."""
    from .roofline import lud_roofline, stencil_roofline

    rows = lud_roofline(n_lud) + stencil_roofline(n_stencil)
    return ExperimentResult(
        experiment="Figure 13",
        description="Roofline placement of LUD and stencil variants",
        rows=rows,
        notes="Optimised layouts move each kernel up and toward its bound: higher achieved "
        "GFLOP/s at the same or higher arithmetic intensity.",
    )


# ---------------------------------------------------------------------------
# Table V — MLIR transpose
# ---------------------------------------------------------------------------


def table5(sizes=(2048, 4096, 8192)) -> ExperimentResult:
    """2-D transpose throughput: CUDA SDK vs LEGO-MLIR, naive vs staged."""
    rows = transpose.transpose_table(sizes)
    return ExperimentResult(
        experiment="Table V",
        description="MLIR transpose throughput (GB/s), naive vs shared-memory staged",
        rows=rows,
        notes="The staged variant is several times faster than the naive one and LEGO-MLIR "
        "holds a slight edge over the CUDA SDK baseline, as in the paper.",
    )
