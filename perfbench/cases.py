"""The eight full launches of ``execute_launch`` and their NumPy references.

The case builders are the ``benchmarks/bench_vm.py`` sizes (large enough
that interpreter overhead, not NumPy kernel time, dominates a launch), with
inputs drawn from the workload seed — except nw (n=64, not 512) and lud
(n=320, not 640): at the full sizes they launch for 0.7 s and 0.1 s, a run
sees them a dozen times, and on a host that is slow in stretches a dozen
samples often hold no undisturbed one.  At ~50 ms and below every launch is
sampled sixty times a run.  Each reference below is written from
the app's mathematical definition and calls nothing in ``repro``: a kernel
is judged against arithmetic the compiler never touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: fp16 operands, fp32 accumulation, fp16 result
FP16 = {"rtol": 1e-2, "atol": 2e-2}
FP32 = {"rtol": 1e-4, "atol": 1e-4}
EXACT = {"rtol": 0.0, "atol": 0.0}


@dataclass
class Case:
    """One app's launch: ``run() -> (output, trace)``, its reference and the
    generated kernel it executes (``None`` for the hand-written mini-CUDA apps)."""

    name: str
    run: Callable
    reference: Callable
    tolerance: dict
    kernel: object = None


def trace_counters(trace) -> dict:
    """Every comparable counter of a substrate trace, JSON-ready."""
    out = {}
    for key in ("load_elements", "store_elements", "load_bytes", "store_bytes",
                "load_transactions", "store_transactions", "flops",
                "tensor_core_flops", "smem_load_bytes", "smem_store_bytes",
                "smem_bytes", "smem_per_block", "blocks", "threads_per_block",
                "programs"):
        if hasattr(trace, key):
            out[key] = float(getattr(trace, key))
    profile = getattr(trace, "smem_profile", None)
    if profile is not None:
        out["smem_accesses"] = float(profile.accesses)
        out["smem_total_passes"] = float(profile.total_passes)
        out["smem_worst_degree"] = float(profile.worst_degree)
        out["smem_histogram"] = {str(k): int(v) for k, v in sorted(profile.histogram.items())}
    return out


def _matmul(rng) -> Case:
    from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

    config = MatmulConfig(256, 256, 256, BM=8, BN=8, BK=8, GM=4)
    kernel = generate_matmul_kernel("nn")
    a = rng.standard_normal((config.M, config.K)).astype(np.float16)
    b = rng.standard_normal((config.K, config.N)).astype(np.float16)
    return Case("matmul", lambda: run_matmul(kernel, a, b, config, "nn"),
                lambda: a.astype(np.float32) @ b.astype(np.float32), FP16, kernel)


def _grouped_gemm(rng) -> Case:
    from repro.apps.grouped_gemm import (GroupedGemmConfig, generate_grouped_gemm_kernel,
                                         run_grouped_gemm)

    config = GroupedGemmConfig(groups=4, M=128, N=128, K=128, BM=8, BN=8, BK=8)
    kernel = generate_grouped_gemm_kernel()
    a = rng.standard_normal((4, 128, 128)).astype(np.float16)
    b = rng.standard_normal((4, 128, 128)).astype(np.float16)
    return Case("grouped_gemm", lambda: run_grouped_gemm(kernel, a, b, config),
                lambda: np.matmul(a.astype(np.float32), b.astype(np.float32)), FP16, kernel)


def _softmax(rng) -> Case:
    from repro.apps.softmax import generate_softmax_kernel, run_softmax

    kernel = generate_softmax_kernel()
    x = rng.standard_normal((4096, 64)).astype(np.float32)

    def reference():
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return Case("softmax", lambda: run_softmax(kernel, x), reference, FP32, kernel)


def _layernorm(rng) -> Case:
    from repro.apps.layernorm import generate_layernorm_forward, run_layernorm_forward

    kernel = generate_layernorm_forward()
    x = rng.standard_normal((4096, 64)).astype(np.float32)
    w = rng.standard_normal(64).astype(np.float32)
    b = rng.standard_normal(64).astype(np.float32)

    def reference():
        mean = x.mean(axis=1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5) * w + b

    return Case("layernorm", lambda: run_layernorm_forward(kernel, x, w, b),
                reference, FP32, kernel)


def _nw(rng) -> Case:
    from repro.apps.nw import NwConfig, nw_buffer_layout, run_nw_blocked

    config = NwConfig(n=64, block=16)
    similarity = rng.integers(-4, 5, size=(config.n, config.n)).astype(np.int32)
    layout = nw_buffer_layout(config.block, "antidiagonal")

    def reference():
        # Needleman-Wunsch, one anti-diagonal at a time: cell (i, j) takes the
        # best of a match from (i-1, j-1) and a gap from the left or from above
        n, gap = config.n, config.penalty
        score = np.zeros((n + 1, n + 1), dtype=np.int64)
        score[0, :] = -gap * np.arange(n + 1)
        score[:, 0] = -gap * np.arange(n + 1)
        for d in range(2, 2 * n + 1):
            i = np.arange(max(1, d - n), min(n, d - 1) + 1)
            j = d - i
            score[i, j] = np.maximum(
                score[i - 1, j - 1] + similarity[i - 1, j - 1],
                np.maximum(score[i, j - 1], score[i - 1, j]) - gap,
            )
        return score

    return Case("nw", lambda: run_nw_blocked(similarity, config, layout=layout),
                reference, EXACT)


def _lud(rng) -> Case:
    from repro.apps.lud import LudConfig, run_lud_internal

    config = LudConfig(n=320, block=64, cuda_block=16)
    matrix = rng.standard_normal((config.n, config.n)).astype(np.float32)

    def reference():
        # step 0 of blocked LU: every trailing block loses the product of its
        # column panel and row panel
        b = config.block
        out = matrix.astype(np.float64)
        out[b:, b:] -= out[b:, :b] @ out[:b, b:]
        return out

    return Case("lud", lambda: run_lud_internal(matrix.copy(), config, step=0),
                reference, FP32)


def _stencil(rng) -> Case:
    from repro.apps.stencil import STENCILS, run_stencil

    spec = {s.name: s for s in STENCILS}["star-7pt"]
    grid = rng.standard_normal((64, 64, 64)).astype(np.float32)

    def reference():
        # 7-point star: the mean of a cell and its six face neighbours;
        # the one-cell boundary shell is left untouched
        out = grid.astype(np.float64)
        centre = grid[1:-1, 1:-1, 1:-1].astype(np.float64)
        total = (centre
                 + grid[:-2, 1:-1, 1:-1] + grid[2:, 1:-1, 1:-1]
                 + grid[1:-1, :-2, 1:-1] + grid[1:-1, 2:, 1:-1]
                 + grid[1:-1, 1:-1, :-2] + grid[1:-1, 1:-1, 2:])
        out[1:-1, 1:-1, 1:-1] = total / 7.0
        return out

    return Case("stencil", lambda: run_stencil(grid, spec, brick=4), reference, FP32)


def _transpose(rng) -> Case:
    from repro.apps.transpose import TransposeConfig, generate_transpose_module, run_transpose

    config = TransposeConfig(n=512, tile=16)
    kernel = generate_transpose_module(config.n, config.tile, "smem", skew=True)
    matrix = rng.standard_normal((config.n, config.n)).astype(np.float32)
    return Case("transpose", lambda: run_transpose(kernel, matrix, config),
                lambda: matrix.T, EXACT, kernel)


BUILDERS = [
    ("matmul", _matmul),
    ("grouped_gemm", _grouped_gemm),
    ("softmax", _softmax),
    ("layernorm", _layernorm),
    ("nw", _nw),
    ("lud", _lud),
    ("stencil", _stencil),
    ("transpose", _transpose),
]

#: the cheap half, for ``--smoke``
SMOKE_CASES = ("grouped_gemm", "softmax", "layernorm", "transpose")


def build_cases(seed: int, smoke: bool) -> list[Case]:
    """Generate the kernels and draw every case's inputs from ``seed``."""
    cases = []
    for index, (name, build) in enumerate(BUILDERS):
        if smoke and name not in SMOKE_CASES:
            continue
        cases.append(build(np.random.default_rng([seed, index])))
    return cases
