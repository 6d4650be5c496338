"""Row-wise fused softmax through a LEGO-instantiated Triton template.

One program handles one row of the ``(M, N)`` input: it loads the row,
subtracts the running maximum, exponentiates, normalises and stores — a
single fused pass, which is what makes the Triton/LEGO kernel beat an eager
framework that launches one kernel per primitive.  The only index arithmetic
in the kernel is the row offset, which LEGO derives from a ``Row`` data
layout; the LEGO specification therefore contains *zero* user-written
arithmetic operations (Table IV's ``4 -> 0`` row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen import CodegenContext, KernelFamily, TritonKernel, get_backend
from ..core import GroupBy, Row
from ..gpusim import A100_80GB, DeviceSpec, KernelCost, estimate_time
from ..gpusim.baselines import pytorch_elementwise_time
from ..minitriton import compile_kernel, from_device, launch, to_device
from ..symbolic import Var

__all__ = [
    "SOFTMAX_TEMPLATE",
    "REFERENCE_SOFTMAX_SOURCE",
    "SoftmaxConfig",
    "build_softmax_context",
    "generate_softmax_kernel",
    "run_softmax",
    "softmax_reference",
    "softmax_case",
    "softmax_performance",
    "app_spec",
]


def softmax_case(config, rng, device=None):
    """A small full-launch softmax for the differential runner.

    Only the fused LEGO kernel is executable on the substrate; the eager
    baselines are evaluation-only rows, so their configurations are skipped.
    """
    from .registry import Case

    if config.get("implementation", "lego") != "lego":
        return None
    m, n = 8, 16
    x = rng.standard_normal((m, n)).astype(np.float32)

    def execute(kernel, device=None):
        return run_softmax(kernel, x, device=device)

    return Case(
        config={"implementation": "lego", "M": m, "N": n},
        inputs={"x": x},
        execute=execute,
    )


def app_spec():
    """The softmax :class:`~repro.apps.registry.AppSpec` for the autotuner.

    Softmax has no tiling to tune — the interesting axis is the execution
    strategy (the fused LEGO/Triton kernel vs the eager multi-kernel
    framework path), which is what Figure 11 compares.
    """
    from ..tune.space import Choice, SearchSpace
    from .registry import AppSpec, register_app

    n = 4096
    space = SearchSpace(Choice("implementation", ("lego", "triton", "pytorch")))

    return register_app(AppSpec(
        name="softmax",
        backend="triton",
        space=space,
        # sizes and device may be overridden (figure harnesses, measured profiler)
        evaluate=lambda config, device=A100_80GB: softmax_performance(
            SoftmaxConfig(M=config.get("M", n), N=config.get("N", n)),
            config["implementation"],
            device=device,
        ),
        generate=lambda config: generate_softmax_kernel() if config["implementation"] == "lego" else None,
        generate_params=("implementation",),
        reference=lambda config, inputs: softmax_reference(inputs["x"]),
        case=softmax_case,
        paper_config={"implementation": "lego"},
        description="Fused softmax vs eager framework (Figure 11)",
    ))


SOFTMAX_TEMPLATE = '''\
@triton.jit
def softmax_kernel(x_ptr, y_ptr, M, N, BN: tl.constexpr):
    row = tl.program_id(axis=0)
    x_ptrs = x_ptr + {{ row_offsets }}
    x = tl.load(x_ptrs)
    x = x - tl.max(x, axis=0)
    numerator = tl.exp(x)
    denominator = tl.sum(numerator, axis=0)
    y = numerator / denominator
    y_ptrs = y_ptr + {{ row_offsets }}
    tl.store(y_ptrs, y)
'''


#: The reference Triton tutorial kernel writes the row/column arithmetic by hand.
REFERENCE_SOFTMAX_SOURCE = '''\
@triton.jit
def softmax_kernel(x_ptr, y_ptr, M, N, stride_m, BN: tl.constexpr):
    row = tl.program_id(axis=0)
    col_offsets = tl.arange(0, BN)
    x_ptrs = x_ptr + row * stride_m + col_offsets
    x = tl.load(x_ptrs)
    x = x - tl.max(x, axis=0)
    numerator = tl.exp(x)
    denominator = tl.sum(numerator, axis=0)
    y = numerator / denominator
    y_ptrs = y_ptr + row * stride_m + col_offsets
    tl.store(y_ptrs, y)
'''


@dataclass(frozen=True)
class SoftmaxConfig:
    """Problem shape of one softmax launch (one program per row)."""

    M: int
    N: int

    def grid(self) -> int:
        return self.M


def build_softmax_context(config: SoftmaxConfig | None = None) -> CodegenContext:
    """Bind the row-offset expression derived from a ``Row(M, N)`` layout."""
    M, N = Var("M"), Var("N")
    row = Var("row")
    ctx = CodegenContext(name="softmax")
    ctx.size(M, N)
    ctx.index(row, M)
    data = GroupBy([M, N]).OrderBy(Row(M, N))
    ctx.bind("row_offsets", data[row, :])
    return ctx


def generate_softmax_kernel() -> TritonKernel:
    return get_backend("triton").generate("softmax", SOFTMAX_TEMPLATE, KernelFamily.of(build_softmax_context))


def softmax_reference(x: np.ndarray) -> np.ndarray:
    """NumPy row-wise softmax (float32 accumulation)."""
    x = x.astype(np.float32)
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def run_softmax(kernel: TritonKernel, x: np.ndarray, device: DeviceSpec | None = None):
    """Execute the generated kernel on the mini-Triton interpreter."""
    m, n = x.shape
    x_buf = to_device(x.astype(np.float32).reshape(-1), "x")
    y_buf = to_device(np.zeros(m * n, dtype=np.float32), "y")
    fn = compile_kernel(kernel.source, "softmax_kernel")
    trace = launch(
        fn,
        grid=m,
        kernel_args={"x_ptr": x_buf, "y_ptr": y_buf, "M": m, "N": n, "BN": n},
        sector_bytes=device.dram_sector_bytes if device is not None else 32,
    )
    return from_device(y_buf, (m, n)), trace


def softmax_performance(
    config: SoftmaxConfig,
    implementation: str = "lego",
    device: DeviceSpec = A100_80GB,
) -> float:
    """Estimated softmax time: fused single pass vs. eager multi-kernel."""
    elements = config.M * config.N
    if implementation == "pytorch":
        # eager softmax: max + subtract/exp + sum + divide (partially fused)
        return pytorch_elementwise_time(elements, device, reads=2, writes=1, kernel_launches=2)
    if implementation not in ("lego", "triton"):
        raise ValueError(f"unknown implementation {implementation!r}")
    cost = KernelCost(
        name=f"softmax_{implementation}",
        flops=5.0 * elements,
        dtype="fp32",
        dram_bytes=2.0 * 4.0 * elements,
        dram_efficiency=0.88,
        blocks=float(config.M),
        threads_per_block=min(1024, config.N),
        threads=float(config.M * min(1024, config.N)),
    )
    return estimate_time(cost, device).total
