"""Matrix multiplication through LEGO-instantiated Triton templates.

This is the paper's running example (Figures 1 and 10): the kernel template
contains ``{{ }}`` placeholders for every index expression, the thread-block
computation layout and the data layouts of ``A``/``B``/``C`` are given as
LEGO specifications, and the code generator derives the index arithmetic.

Four variants are produced by changing only the data layouts (Section V-A):
``nn`` (``A B``), ``nt`` (``A B^T``), ``tn`` (``A^T B``) and ``tt``
(``A^T B^T``); a transposed operand simply uses a ``Col`` ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen import CodegenContext, TritonKernel, get_backend
from ..core import Col, Row, TileBy
from ..gpusim import A100_80GB, DeviceSpec, KernelCost, estimate_time
from ..gpusim.baselines import cublas_matmul_time, triton_matmul_efficiency
from ..minitriton import compile_kernel, from_device, launch, to_device
from ..symbolic import Max, Min, Var

__all__ = [
    "MATMUL_TEMPLATE",
    "REFERENCE_MATMUL_SOURCE",
    "MatmulConfig",
    "build_matmul_context",
    "generate_matmul_kernel",
    "run_matmul",
    "matmul_reference",
    "matmul_case",
    "matmul_cost",
    "matmul_performance",
    "reference_index_ops",
    "lego_spec_index_ops",
    "app_spec",
]


#: The LEGO-side template of Figure 1 (right): layout placeholders only.
MATMUL_TEMPLATE = '''\
@triton.jit
def matmul_kernel(a_ptr, b_ptr, c_ptr, M, N, K,
                  BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr, GM: tl.constexpr):
    pid = tl.program_id(axis=0)
    nt_m = tl.cdiv(M, BM)
    nt_n = tl.cdiv(N, BN)
    pid_m = {{ lpid_m }}
    pid_n = {{ lpid_n }}
    accumulator = tl.zeros((BM, BN), dtype=tl.float32)
    for k in range(0, tl.cdiv(K, BK)):
        a_ptrs = a_ptr + {{ la_optr }}
        b_ptrs = b_ptr + {{ lb_optr }}
        a = tl.load(a_ptrs)
        b = tl.load(b_ptrs)
        accumulator = tl.dot(a, b, accumulator)
    c = accumulator.to(tl.float16)
    c_ptrs = c_ptr + {{ lc_optr }}
    tl.store(c_ptrs, c)
'''


#: The reference Triton kernel of Figure 1 (left): hand-written index code.
REFERENCE_MATMUL_SOURCE = '''\
@triton.jit
def triton_matmul_kernel(a_ptr, b_ptr, c_ptr, M, N, K,
                         stride_am, stride_ak, stride_bk, stride_bn, stride_cm, stride_cn,
                         BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr, GM: tl.constexpr):
    pid = tl.program_id(axis=0)
    nt_m = tl.cdiv(M, BM)
    nt_n = tl.cdiv(N, BN)
    num_pid_in_group = GM * nt_n
    group_id = pid // num_pid_in_group
    first_pid_m = group_id * GM
    group_size_m = min(nt_m - first_pid_m, GM)
    pid_m = first_pid_m + ((pid % num_pid_in_group) % group_size_m)
    pid_n = (pid % num_pid_in_group) // group_size_m
    offs_am = pid_m * BM + tl.arange(0, BM)
    offs_bn = pid_n * BN + tl.arange(0, BN)
    offs_k = tl.arange(0, BK)
    a_ptrs = a_ptr + (offs_am[:, None] * stride_am + offs_k[None, :] * stride_ak)
    b_ptrs = b_ptr + (offs_k[:, None] * stride_bk + offs_bn[None, :] * stride_bn)
    accumulator = tl.zeros((BM, BN), dtype=tl.float32)
    for k in range(0, tl.cdiv(K, BK)):
        a = tl.load(a_ptrs)
        b = tl.load(b_ptrs)
        accumulator = tl.dot(a, b, accumulator)
        a_ptrs += BK * stride_ak
        b_ptrs += BK * stride_bk
    c = accumulator.to(tl.float16)
    offs_cm = pid_m * BM + tl.arange(0, BM)
    offs_cn = pid_n * BN + tl.arange(0, BN)
    c_ptrs = c_ptr + stride_cm * offs_cm[:, None] + stride_cn * offs_cn[None, :]
    tl.store(c_ptrs, c)
'''


_VARIANTS = {
    "nn": ("row", "row"),
    "nt": ("row", "col"),
    "tn": ("col", "row"),
    "tt": ("col", "col"),
}


@dataclass(frozen=True)
class MatmulConfig:
    """Tiling configuration of one matmul kernel instance."""

    M: int
    N: int
    K: int
    BM: int = 128
    BN: int = 128
    BK: int = 64
    GM: int = 8

    def grid(self) -> int:
        return (self.M // self.BM) * (self.N // self.BN)


def build_matmul_context(variant: str = "nn") -> CodegenContext:
    """The CodegenContext of Figure 1 (right) for the chosen operand layouts.

    The thread-block computation layout groups program ids ``GM`` at a time in
    column-major order (the green box of Figure 1); the data layouts tile the
    operands by ``(BM, BK)`` / ``(BK, BN)`` / ``(BM, BN)`` composed with a
    row-major (``Row``) or column-major (``Col``) global order.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown matmul variant {variant!r}; expected one of {sorted(_VARIANTS)}")
    layout_a, layout_b = _VARIANTS[variant]

    M, N, K, BM, BN, BK, GM = (Var(n) for n in ["M", "N", "K", "BM", "BN", "BK", "GM"])
    pid, nt_m, nt_n, k = Var("pid"), Var("nt_m"), Var("nt_n"), Var("k")
    pid_m, pid_n = Var("pid_m"), Var("pid_n")

    ctx = CodegenContext(name=f"matmul_{variant}")
    ctx.size(M, N, K, BM, BN, BK, GM, nt_m, nt_n)
    ctx.index(pid, nt_m * nt_n)
    ctx.index(k, K // BK)
    ctx.index(pid_m, M // BM)
    ctx.index(pid_n, N // BN)
    ctx.divisible(M, BM)
    ctx.divisible(N, BN)
    ctx.divisible(K, BK)

    # (1) thread-block computation layout (grouped, column-major at both levels)
    compute_layout = TileBy([nt_m, nt_n]).OrderBy(
        Col(Max(nt_m // GM, 1), 1), Col(Min(nt_m, GM), nt_n)
    )
    ctx.bind_inverse(["lpid_m", "lpid_n"], compute_layout, pid)

    # (2) data layouts composed with the computation layout.  Col keeps the
    # operand's logical (rows, cols) shape and reverses only the traversal
    # order (see repro.core.sugar); handing it a reversed shape happens to
    # cancel out for square operands but mis-addresses non-square ones.
    order_a = Row(M, K) if layout_a == "row" else Col(M, K)
    order_b = Row(K, N) if layout_b == "row" else Col(K, N)
    data_a = TileBy([M // BM, K // BK], [BM, BK]).OrderBy(order_a)
    data_b = TileBy([K // BK, N // BN], [BK, BN]).OrderBy(order_b)
    data_c = TileBy([M // BM, N // BN], [BM, BN]).OrderBy(Row(M, N))
    ctx.bind("la_optr", data_a[pid_m, k, :, :])
    ctx.bind("lb_optr", data_b[k, pid_n, :, :])
    ctx.bind("lc_optr", data_c[pid_m, pid_n, :, :])
    return ctx


def generate_matmul_kernel(variant: str = "nn") -> TritonKernel:
    """Instantiate the matmul template for one operand-layout variant."""
    context = build_matmul_context(variant)
    return get_backend("triton").generate(f"matmul_{variant}", MATMUL_TEMPLATE, context)


def run_matmul(
    kernel: TritonKernel,
    a: np.ndarray,
    b: np.ndarray,
    config: MatmulConfig,
    variant: str = "nn",
    device: DeviceSpec | None = None,
):
    """Execute a generated matmul kernel on the mini-Triton interpreter.

    ``a``/``b`` are given in their logical (M, K) / (K, N) shapes; transposed
    variants store the operand in column-major order, which is what the
    corresponding ``Col`` data layout expects.  ``device`` sets the DRAM
    sector granularity the trace records at.  Returns ``(C, trace)``.
    """
    layout_a, layout_b = _VARIANTS[variant]
    a_mem = a if layout_a == "row" else np.asfortranarray(a)
    b_mem = b if layout_b == "row" else np.asfortranarray(b)
    a_flat = a_mem.T.reshape(-1) if layout_a == "col" else a_mem.reshape(-1)
    b_flat = b_mem.T.reshape(-1) if layout_b == "col" else b_mem.reshape(-1)

    a_buf = to_device(a_flat.astype(np.float16), "a")
    b_buf = to_device(b_flat.astype(np.float16), "b")
    c_buf = to_device(np.zeros(config.M * config.N, dtype=np.float16), "c")

    fn = compile_kernel(kernel.source, "matmul_kernel")
    trace = launch(
        fn,
        grid=config.grid(),
        kernel_args={
            "a_ptr": a_buf,
            "b_ptr": b_buf,
            "c_ptr": c_buf,
            "M": config.M,
            "N": config.N,
            "K": config.K,
            "BM": config.BM,
            "BN": config.BN,
            "BK": config.BK,
            "GM": config.GM,
        },
        sector_bytes=device.dram_sector_bytes if device is not None else 32,
    )
    c = from_device(c_buf, (config.M, config.N))
    return c, trace


def matmul_reference(config, inputs) -> np.ndarray:
    """NumPy ground truth mirroring the kernel's arithmetic contract.

    Inputs are FP16, the accumulator is FP32 and the result is cast back to
    FP16 — the same dtype path the generated kernel takes, so the
    differential check compares like against like.
    """
    a = np.asarray(inputs["a"]).astype(np.float32)
    b = np.asarray(inputs["b"]).astype(np.float32)
    return (a @ b).astype(np.float16)


def matmul_case(config, rng, device=None):
    """A small full-launch matmul problem, measured as executed.

    The kernel text depends only on the operand-layout variant, so the case
    shrinks the problem and tiling to a 2x2 grid of 16x16 tiles the
    mini-Triton interpreter executes in milliseconds while keeping the
    sampled variant.  FP16 operands through ``tl.dot``: tensor cores.
    """
    from .registry import Case

    variant = config.get("variant", "nn")
    cfg = MatmulConfig(M=32, N=32, K=16, BM=16, BN=16, BK=8, GM=2)
    a = rng.standard_normal((cfg.M, cfg.K)).astype(np.float16)
    b = rng.standard_normal((cfg.K, cfg.N)).astype(np.float16)

    def execute(kernel, device=None):
        return run_matmul(kernel, a, b, cfg, variant, device=device)

    return Case(
        config={"variant": variant, "M": cfg.M, "N": cfg.N, "K": cfg.K,
                "BM": cfg.BM, "BN": cfg.BN, "BK": cfg.BK, "GM": cfg.GM},
        inputs={"a": a, "b": b},
        execute=execute,
        dtype="fp16",
        tensor_core=True,
    )


def matmul_cost(config: MatmulConfig, implementation: str = "lego") -> KernelCost:
    """The analytic :class:`~repro.gpusim.KernelCost` of one GEMM launch.

    A 256-thread program per output tile, single-stage (no software
    pipelining): the shape of the generated kernel.
    """
    if implementation not in ("lego", "triton"):
        raise ValueError(f"unknown implementation {implementation!r}")
    m, n, k = config.M, config.N, config.K
    element = 2  # fp16
    tiles_m, tiles_n = m // config.BM, n // config.BN
    # Each operand tile is read once per tile of the other dimension inside a
    # GM-wide group; L2 captures the reuse within the group, so DRAM traffic
    # is roughly (tiles_n / GM) passes over A plus (tiles_m / GM) passes over
    # B plus one store of C.  The kernel is compute-bound at the evaluated
    # sizes, so this term only matters for the smallest configuration.
    passes_a = max(1.0, tiles_n / config.GM)
    passes_b = max(1.0, tiles_m / config.GM)
    dram_bytes = float(element) * (passes_a * m * k + passes_b * k * n + m * n)
    threads_per_block = 256
    return KernelCost(
        name=f"matmul_{implementation}",
        flops=2.0 * m * n * k,
        dtype="fp16",
        tensor_core=True,
        dram_bytes=max(dram_bytes, float(element) * (m * k + k * n + m * n)),
        compute_efficiency=triton_matmul_efficiency(m, n, k),
        dram_efficiency=0.85,
        blocks=float(tiles_m * tiles_n),
        threads_per_block=float(threads_per_block),
        threads=float(tiles_m * tiles_n * threads_per_block),
        smem_per_block=float((config.BM + config.BN) * config.BK * element),
    )


def matmul_performance(
    config: MatmulConfig,
    implementation: str = "lego",
    device: DeviceSpec = A100_80GB,
) -> float:
    """Estimated FP16 GEMM time in seconds for one implementation.

    ``lego`` and ``triton`` map to the same tiling (the generated kernel *is*
    a Triton kernel), so they share the efficiency curve; ``cublas`` uses the
    vendor-library curve (the PyTorch dispatch path in Figure 11).
    """
    if implementation == "cublas":
        return cublas_matmul_time(config.M, config.N, config.K, device)
    return estimate_time(matmul_cost(config, implementation), device).total


def app_spec():
    """The matmul :class:`~repro.apps.registry.AppSpec` for the autotuner.

    The sweep covers the operand-layout variants (the kernel text) and the
    ``MatmulConfig`` tiling (its launch) at the Figure 11 mid-size problem
    (4096^3) — 2 000 configurations; the paper's runs use the Triton
    tutorial tiling ``BM = BN = 128, BK = 64, GM = 8`` (listed first on each
    axis so performance-model ties resolve toward it).
    """
    from ..tune.space import Choice, SearchSpace
    from .registry import AppSpec, register_app

    n = 4096

    space = SearchSpace(
        Choice("variant", ("nn", "nt", "tn", "tt")),
        Choice("BM", (128, 64, 256, 32, 16)),
        Choice("BN", (128, 64, 256, 32, 16)),
        Choice("BK", (64, 32, 16, 128)),
        Choice("GM", (8, 4, 16, 1, 2)),
    )

    def evaluate(config, device=A100_80GB):
        # the figure harnesses and the measured profiler may override the
        # problem sizes (and device); the axes default to the Figure 11 mid-size
        cfg = MatmulConfig(config.get("M", n), config.get("N", n), config.get("K", n),
                           BM=config["BM"], BN=config["BN"],
                           BK=config["BK"], GM=config["GM"])
        return matmul_performance(cfg, "lego", device)

    return register_app(AppSpec(
        name="matmul",
        backend="triton",
        space=space,
        evaluate=evaluate,
        generate=lambda config: generate_matmul_kernel(config["variant"]),
        generate_params=("variant",),
        reference=matmul_reference,
        case=matmul_case,
        paper_config={"BM": 128, "BN": 128, "BK": 64, "GM": 8},
        description="FP16 matmul: operand-layout variants x Triton tutorial tiling",
    ))


def _count_source_ops(source: str, markers: tuple[str, ...]) -> int:
    """Count arithmetic operators on the index-computation lines of a kernel."""
    total = 0
    for line in source.splitlines():
        stripped = line.strip()
        if not any(marker in stripped for marker in markers):
            continue
        for token in ("+", "-", "*", "//", "%"):
            if token == "//":
                total += stripped.count("//")
            elif token == "*":
                total += stripped.count("*") - 2 * stripped.count("**")
            elif token == "-":
                total += stripped.count(" - ")
            elif token == "+":
                total += stripped.count("+") - stripped.count("+=")
                total += stripped.count("+=")
            else:
                total += stripped.count(token)
    return total


def reference_index_ops() -> int:
    """Arithmetic ops the user writes for indexing in the reference kernel (Table IV)."""
    markers = ("pid_", "offs_", "_ptrs", "group", "first_pid", "num_pid")
    source = REFERENCE_MATMUL_SOURCE.replace("//", "/")
    return _count_source_ops(source, markers)


def lego_spec_index_ops(variant: str = "nn") -> int:
    """Arithmetic ops the user writes in the LEGO specification (Table IV)."""
    layout_a, layout_b = _VARIANTS[variant]
    spec = (
        "CL = TileBy([nt_m, nt_n]).OrderBy(Col(max(nt_m//GM,1), 1), Col(min(nt_m,GM), nt_n))\n"
        "DL_a = TileBy([M//BM, K//BK], [BM, BK]).OrderBy({a}(M, K))\n"
        "DL_b = TileBy([K//BK, N//BN], [BK, BN]).OrderBy({b}(K, N))\n"
        "DL_c = TileBy([M//BM, N//BN], [BM, BN]).OrderBy(Row(M, N))\n"
    ).format(a="Row" if layout_a == "row" else "Col", b="Row" if layout_b == "row" else "Col")
    total = 0
    for line in spec.splitlines():
        total += line.count("//") + line.count("max(") + line.count("min(")
    return total
