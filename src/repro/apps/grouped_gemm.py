"""Grouped GEMM: a batch of equally-sized GEMMs through one LEGO kernel.

The Triton tutorial's grouped GEMM launches a single grid whose programs walk
the tiles of every group.  In LEGO terms the *computation layout* is simply a
three-level hierarchy — group, tile row, tile column — expressed with
``TileBy([G, nt_m, nt_n])``; the per-group data layouts are the same
``TileBy . OrderBy(Row)`` blocks as the single matmul, offset by the group's
base address.  Nothing else changes relative to :mod:`repro.apps.matmul`,
which is the point: the grouping is a layout, not new kernel logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen import CodegenContext, TritonKernel, get_backend
from ..core import Row, TileBy
from ..gpusim import A100_80GB, DeviceSpec
from ..symbolic import Var
from ..minitriton import compile_kernel, from_device, launch, to_device
from .matmul import MatmulConfig, matmul_performance

__all__ = [
    "GROUPED_GEMM_TEMPLATE",
    "GroupedGemmConfig",
    "build_grouped_gemm_context",
    "generate_grouped_gemm_kernel",
    "run_grouped_gemm",
    "grouped_gemm_reference",
    "grouped_gemm_check_reference",
    "grouped_gemm_case",
    "grouped_gemm_performance",
    "app_spec",
]


def grouped_gemm_check_reference(config, inputs) -> np.ndarray:
    """Ground truth in the kernel's dtype contract: FP16 in/out, FP32 accumulate."""
    return grouped_gemm_reference(
        np.asarray(inputs["a"]).astype(np.float16),
        np.asarray(inputs["b"]).astype(np.float16),
    ).astype(np.float16)


def grouped_gemm_case(config, rng, device=None):
    """A small full-launch grouped GEMM: 2 groups of 16^3 in 8x8 tiles.

    All candidates share one kernel text (``generate_params=()``), so the
    case tiling is free to shrink to whatever the interpreter runs fastest.
    FP16 operands through ``tl.dot``: tensor cores.
    """
    from .registry import Case

    cfg = GroupedGemmConfig(groups=2, M=16, N=16, K=16, BM=8, BN=8, BK=8)
    a = rng.standard_normal((cfg.groups, cfg.M, cfg.K)).astype(np.float16)
    b = rng.standard_normal((cfg.groups, cfg.K, cfg.N)).astype(np.float16)

    def execute(kernel, device=None):
        return run_grouped_gemm(kernel, a, b, cfg, device=device)

    return Case(
        config={"groups": cfg.groups, "M": cfg.M, "N": cfg.N, "K": cfg.K,
                "BM": cfg.BM, "BN": cfg.BN, "BK": cfg.BK},
        inputs={"a": a, "b": b},
        execute=execute,
        dtype="fp16",
        tensor_core=True,
    )


def app_spec():
    """The grouped-GEMM :class:`~repro.apps.registry.AppSpec` for the autotuner.

    The axes are the ``GroupedGemmConfig`` tiling — the paper's tile-size
    triple plus the program-id grouping ``GM`` — 625 configurations.  All
    of them share one kernel text (``generate_params=()``).
    """
    from ..gpusim import estimate_time
    from ..tune.space import Choice, SearchSpace
    from .matmul import matmul_cost
    from .registry import AppSpec, register_app

    groups, n = 8, 1024

    space = SearchSpace(
        Choice("BM", (64, 32, 128, 16, 256)),
        Choice("BN", (64, 32, 128, 16, 256)),
        Choice("BK", (32, 64, 16, 128, 8)),
        Choice("GM", (8, 4, 16, 1, 2)),
    )

    def evaluate(config, device=A100_80GB):
        # sizes and device may be overridden (figure harnesses, measured profiler)
        cfg = GroupedGemmConfig(groups=config.get("groups", groups),
                                M=config.get("M", n), N=config.get("N", n),
                                K=config.get("K", n),
                                BM=config["BM"], BN=config["BN"], BK=config["BK"],
                                GM=config.get("GM", 8))
        # one fused launch: extensive counters scale by the group count
        cost = matmul_cost(cfg.per_group(), "lego").scaled(cfg.groups)
        return estimate_time(cost, device).total

    return register_app(AppSpec(
        name="grouped_gemm",
        backend="triton",
        space=space,
        evaluate=evaluate,
        generate=lambda config: generate_grouped_gemm_kernel(),
        generate_params=(),
        reference=grouped_gemm_check_reference,
        case=grouped_gemm_case,
        paper_config={"BM": 64, "BN": 64, "BK": 32},
        description="Grouped GEMM tiling sweep (Figure 11)",
    ))


GROUPED_GEMM_TEMPLATE = '''\
@triton.jit
def grouped_gemm_kernel(a_ptr, b_ptr, c_ptr, G, M, N, K,
                        BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr):
    pid = tl.program_id(axis=0)
    nt_m = tl.cdiv(M, BM)
    nt_n = tl.cdiv(N, BN)
    group = {{ group_id }}
    pid_m = {{ lpid_m }}
    pid_n = {{ lpid_n }}
    accumulator = tl.zeros((BM, BN), dtype=tl.float32)
    for k in range(0, tl.cdiv(K, BK)):
        a_ptrs = a_ptr + group * M * K + {{ la_optr }}
        b_ptrs = b_ptr + group * K * N + {{ lb_optr }}
        a = tl.load(a_ptrs)
        b = tl.load(b_ptrs)
        accumulator = tl.dot(a, b, accumulator)
    c = accumulator.to(tl.float16)
    c_ptrs = c_ptr + group * M * N + {{ lc_optr }}
    tl.store(c_ptrs, c)
'''


@dataclass(frozen=True)
class GroupedGemmConfig:
    """A batch of ``groups`` GEMMs, all of shape ``M x N x K``."""

    groups: int
    M: int
    N: int
    K: int
    BM: int = 64
    BN: int = 64
    BK: int = 32
    GM: int = 8

    def grid(self) -> int:
        return self.groups * (self.M // self.BM) * (self.N // self.BN)

    def per_group(self) -> MatmulConfig:
        return MatmulConfig(self.M, self.N, self.K, self.BM, self.BN, self.BK, GM=self.GM)


def build_grouped_gemm_context() -> CodegenContext:
    """Computation layout ``TileBy([G, nt_m, nt_n])`` plus per-group data layouts."""
    G, M, N, K, BM, BN, BK = (Var(n) for n in ["G", "M", "N", "K", "BM", "BN", "BK"])
    pid, nt_m, nt_n, k = Var("pid"), Var("nt_m"), Var("nt_n"), Var("k")
    pid_m, pid_n, group = Var("pid_m"), Var("pid_n"), Var("group")

    ctx = CodegenContext(name="grouped_gemm")
    ctx.size(G, M, N, K, BM, BN, BK, nt_m, nt_n)
    ctx.index(pid, G * nt_m * nt_n)
    ctx.index(k, K // BK)
    ctx.index(pid_m, M // BM)
    ctx.index(pid_n, N // BN)
    ctx.index(group, G)
    ctx.divisible(M, BM)
    ctx.divisible(N, BN)
    ctx.divisible(K, BK)

    # three-level computation layout: group, then the 2-D tile grid row-major
    compute_layout = TileBy([G, nt_m, nt_n])
    ctx.bind_inverse(["group_id", "lpid_m", "lpid_n"], compute_layout, pid)

    data_a = TileBy([M // BM, K // BK], [BM, BK]).OrderBy(Row(M, K))
    data_b = TileBy([K // BK, N // BN], [BK, BN]).OrderBy(Row(K, N))
    data_c = TileBy([M // BM, N // BN], [BM, BN]).OrderBy(Row(M, N))
    ctx.bind("la_optr", data_a[pid_m, k, :, :])
    ctx.bind("lb_optr", data_b[k, pid_n, :, :])
    ctx.bind("lc_optr", data_c[pid_m, pid_n, :, :])
    return ctx


def generate_grouped_gemm_kernel() -> TritonKernel:
    return get_backend("triton").generate(
        "grouped_gemm", GROUPED_GEMM_TEMPLATE, build_grouped_gemm_context()
    )


def grouped_gemm_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference result: ``a`` and ``b`` are stacked ``(G, M, K)`` / ``(G, K, N)``."""
    return np.matmul(a.astype(np.float32), b.astype(np.float32))


def run_grouped_gemm(
    kernel: TritonKernel,
    a: np.ndarray,
    b: np.ndarray,
    config: GroupedGemmConfig,
    device: DeviceSpec | None = None,
):
    """Execute the grouped GEMM kernel; ``a`` is ``(G, M, K)``, ``b`` is ``(G, K, N)``."""
    g, m, k = a.shape
    n = b.shape[2]
    a_buf = to_device(a.astype(np.float16).reshape(-1), "a")
    b_buf = to_device(b.astype(np.float16).reshape(-1), "b")
    c_buf = to_device(np.zeros(g * m * n, dtype=np.float16), "c")
    fn = compile_kernel(kernel.source, "grouped_gemm_kernel")
    trace = launch(
        fn,
        grid=config.grid(),
        kernel_args={
            "a_ptr": a_buf, "b_ptr": b_buf, "c_ptr": c_buf,
            "G": g, "M": m, "N": n, "K": k,
            "BM": config.BM, "BN": config.BN, "BK": config.BK,
        },
        sector_bytes=device.dram_sector_bytes if device is not None else 32,
    )
    return from_device(c_buf, (g, m, n)), trace


def grouped_gemm_performance(
    config: GroupedGemmConfig,
    implementation: str = "lego",
    device: DeviceSpec = A100_80GB,
) -> float:
    """Estimated grouped GEMM time.

    The fused grouped kernel amortises launch overhead over all groups; the
    cuBLAS path (as dispatched by PyTorch in the paper's comparison) launches
    one GEMM per group.
    """
    per_group = matmul_performance(config.per_group(), "cublas" if implementation == "cublas" else "lego", device)
    if implementation == "cublas":
        return per_group * config.groups
    overhead = device.launch_overhead_us * 1e-6
    return (per_group - overhead) * config.groups + overhead
