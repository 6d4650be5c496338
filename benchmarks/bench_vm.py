"""Vectorized-engine speedup benchmark: tree-walk vs batched execution.

Times every registered application's kernel on its substrate twice — once
under the per-program/per-block tree-walk interpreters, once under the
vectorized engine (``repro.vm``) — and asserts that the two engines agree
bit-for-bit on the outputs *and* on every trace counter (DRAM
elements/bytes/transactions, shared-memory traffic, the full bank-conflict
profile, flops).  The problem sizes are chosen large enough
that interpreter overhead, not NumPy kernel time, dominates the tree walk:
that is the regime the engine was built for, and where the paper-scale
sweeps previously had to sample.

Run standalone to write the artifact the ``vm-smoke`` CI job uploads::

    PYTHONPATH=src python benchmarks/bench_vm.py   # writes BENCH_vm.json

or under pytest for the assertions only.  The gate is a >= 10x geometric
-mean speedup across the eight apps and >= 10x on matmul specifically.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

MIN_GEOMEAN_SPEEDUP = 10.0
MIN_MATMUL_SPEEDUP = 10.0


def trace_counters(trace) -> dict:
    """Every comparable counter of a substrate trace, as plain floats."""
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
        out["smem_histogram"] = {int(k): int(v) for k, v in profile.histogram.items()}
    return out


def _case_matmul():
    from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

    config = MatmulConfig(256, 256, 256, BM=8, BN=8, BK=8, GM=4)
    kernel = generate_matmul_kernel("nn")
    rng = np.random.default_rng(0)
    a = rng.standard_normal((config.M, config.K)).astype(np.float16)
    b = rng.standard_normal((config.K, config.N)).astype(np.float16)
    return lambda: run_matmul(kernel, a, b, config, "nn")


def _case_grouped_gemm():
    from repro.apps.grouped_gemm import (GroupedGemmConfig,
                                         generate_grouped_gemm_kernel,
                                         run_grouped_gemm)

    config = GroupedGemmConfig(groups=4, M=128, N=128, K=128, BM=8, BN=8, BK=8)
    kernel = generate_grouped_gemm_kernel()
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 128, 128)).astype(np.float16)
    b = rng.standard_normal((4, 128, 128)).astype(np.float16)
    return lambda: run_grouped_gemm(kernel, a, b, config)


def _case_softmax():
    from repro.apps.softmax import generate_softmax_kernel, run_softmax

    kernel = generate_softmax_kernel()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4096, 64)).astype(np.float32)
    return lambda: run_softmax(kernel, x)


def _case_layernorm():
    from repro.apps.layernorm import generate_layernorm_forward, run_layernorm_forward

    kernel = generate_layernorm_forward()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4096, 64)).astype(np.float32)
    w = rng.standard_normal(64).astype(np.float32)
    b = rng.standard_normal(64).astype(np.float32)
    return lambda: run_layernorm_forward(kernel, x, w, b)


def _case_nw():
    from repro.apps.nw import NwConfig, nw_buffer_layout, run_nw_blocked

    config = NwConfig(n=512, block=16)
    rng = np.random.default_rng(4)
    reference = rng.integers(-4, 5, size=(config.n, config.n)).astype(np.int32)
    layout = nw_buffer_layout(config.block, "antidiagonal")
    return lambda: run_nw_blocked(reference, config, layout=layout)


def _case_lud():
    from repro.apps.lud import LudConfig, run_lud_internal

    config = LudConfig(n=640, block=64, cuda_block=16)
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((config.n, config.n)).astype(np.float32)
    return lambda: run_lud_internal(matrix.copy(), config, step=0)


def _case_stencil():
    from repro.apps.stencil import STENCILS, run_stencil

    spec = {s.name: s for s in STENCILS}["star-7pt"]
    rng = np.random.default_rng(6)
    grid = rng.standard_normal((64, 64, 64)).astype(np.float32)
    return lambda: run_stencil(grid, spec, brick=4)


def _case_transpose():
    from repro.apps.transpose import (TransposeConfig, generate_transpose_module,
                                      run_transpose)

    config = TransposeConfig(n=512, tile=16)
    kernel = generate_transpose_module(config.n, config.tile, "smem", skew=True)
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((config.n, config.n)).astype(np.float32)
    return lambda: run_transpose(kernel, matrix, config)


CASES = [
    ("matmul", _case_matmul),
    ("grouped_gemm", _case_grouped_gemm),
    ("softmax", _case_softmax),
    ("layernorm", _case_layernorm),
    ("nw", _case_nw),
    ("lud", _case_lud),
    ("stencil", _case_stencil),
    ("transpose", _case_transpose),
]


def _timed(run, engine: str):
    from repro.vm import use_engine

    with use_engine(engine):
        start = time.perf_counter()
        output, trace = run()
        elapsed = time.perf_counter() - start
    return np.asarray(output), trace_counters(trace), elapsed


def run_vm_bench() -> dict:
    report = {"apps": {}, "engines": ["treewalk", "vectorized"]}
    speedups = []
    for name, build in CASES:
        run = build()
        tree_out, tree_trace, tree_s = _timed(run, "treewalk")
        vec_out, vec_trace, vec_s = _timed(run, "vectorized")
        assert tree_out.shape == vec_out.shape and np.array_equal(tree_out, vec_out), (
            f"{name}: vectorized output differs from tree walk"
        )
        assert tree_trace == vec_trace, (
            f"{name}: vectorized trace counters differ from tree walk:\n"
            f"  treewalk:   {tree_trace}\n  vectorized: {vec_trace}"
        )
        speedup = tree_s / vec_s
        speedups.append(speedup)
        report["apps"][name] = {
            "treewalk_s": tree_s,
            "vectorized_s": vec_s,
            "speedup": speedup,
            "trace": tree_trace,
        }
    report["geomean_speedup"] = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    report["min_geomean_speedup"] = MIN_GEOMEAN_SPEEDUP
    report["min_matmul_speedup"] = MIN_MATMUL_SPEEDUP
    report["ok"] = (
        report["geomean_speedup"] >= MIN_GEOMEAN_SPEEDUP
        and report["apps"]["matmul"]["speedup"] >= MIN_MATMUL_SPEEDUP
    )
    return report


def check_report(report: dict) -> None:
    assert set(report["apps"]) == {name for name, _ in CASES}
    matmul = report["apps"]["matmul"]["speedup"]
    assert matmul >= MIN_MATMUL_SPEEDUP, (
        f"matmul vectorized speedup {matmul:.1f}x below the {MIN_MATMUL_SPEEDUP:.0f}x gate"
    )
    geomean = report["geomean_speedup"]
    assert geomean >= MIN_GEOMEAN_SPEEDUP, (
        f"geomean vectorized speedup {geomean:.1f}x below the {MIN_GEOMEAN_SPEEDUP:.0f}x gate"
    )
    assert report["ok"]


def test_vm_speedup():
    check_report(run_vm_bench())


if __name__ == "__main__":
    artifact = Path(__file__).resolve().parent.parent / "BENCH_vm.json"
    report = run_vm_bench()
    for name, row in report["apps"].items():
        print(f"{name:>14}: treewalk {row['treewalk_s']*1e3:8.1f}ms  "
              f"vectorized {row['vectorized_s']*1e3:7.1f}ms  "
              f"speedup {row['speedup']:7.1f}x")
    print(f"{'geomean':>14}: {report['geomean_speedup']:.1f}x "
          f"(gate {MIN_GEOMEAN_SPEEDUP:.0f}x, matmul gate {MIN_MATMUL_SPEEDUP:.0f}x)")
    check_report(report)
    slim = {k: v for k, v in report.items() if k != "apps"}
    slim["apps"] = {
        name: {k: v for k, v in row.items() if k != "trace"}
        for name, row in report["apps"].items()
    }
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(slim, indent=2, sort_keys=True))
    print(f"\nwrote {artifact}")
