"""LayerNorm forward and backward through LEGO-instantiated Triton templates.

Forward: one program per row computes the mean and variance of its row of
``x``, normalises, scales by ``w`` and shifts by ``b``.  Backward: one
program per row recomputes the normalised activations and produces ``dx``
for its row plus its row's contribution to the weight/bias gradients (the
reference Triton tutorial accumulates those in a second reduction kernel; we
reproduce only the row-parallel pass the paper benchmarks).

All index arithmetic — the row offsets into ``x`` / ``dy`` / ``dx`` and the
column offsets into ``w`` / ``b`` — comes from LEGO ``Row`` layouts, so the
user-written specification contains no explicit strides (Table IV's
LayerNorm rows: 6 -> 1 forward, 4 -> 0 backward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen import CodegenContext, TritonKernel, get_backend
from ..core import GroupBy, Row
from ..gpusim import A100_80GB, DeviceSpec, KernelCost, estimate_time
from ..gpusim.baselines import pytorch_elementwise_time
from ..minitriton import compile_kernel, from_device, launch, to_device
from ..symbolic import Var

__all__ = [
    "LAYERNORM_FWD_TEMPLATE",
    "LAYERNORM_BWD_TEMPLATE",
    "LayerNormConfig",
    "build_layernorm_context",
    "generate_layernorm_forward",
    "generate_layernorm_backward",
    "layernorm_reference",
    "layernorm_backward_reference",
    "layernorm_check_reference",
    "layernorm_case",
    "run_layernorm_forward",
    "run_layernorm_backward",
    "layernorm_performance",
    "app_spec",
]


LAYERNORM_FWD_TEMPLATE = '''\
@triton.jit
def layernorm_fwd_kernel(x_ptr, w_ptr, b_ptr, y_ptr, M, N, eps, BN: tl.constexpr):
    row = tl.program_id(axis=0)
    x_ptrs = x_ptr + {{ row_offsets }}
    x = tl.load(x_ptrs)
    mean = tl.sum(x, axis=0) / N
    centered = x - mean
    var = tl.sum(centered * centered, axis=0) / N
    rstd = tl.rsqrt(var + eps)
    w = tl.load(w_ptr + {{ col_offsets }})
    b = tl.load(b_ptr + {{ col_offsets }})
    y = centered * rstd * w + b
    tl.store(y_ptr + {{ row_offsets }}, y)
'''


LAYERNORM_BWD_TEMPLATE = '''\
@triton.jit
def layernorm_bwd_kernel(dy_ptr, x_ptr, w_ptr, dx_ptr, M, N, eps, BN: tl.constexpr):
    row = tl.program_id(axis=0)
    x = tl.load(x_ptr + {{ row_offsets }})
    dy = tl.load(dy_ptr + {{ row_offsets }})
    w = tl.load(w_ptr + {{ col_offsets }})
    mean = tl.sum(x, axis=0) / N
    centered = x - mean
    var = tl.sum(centered * centered, axis=0) / N
    rstd = tl.rsqrt(var + eps)
    xhat = centered * rstd
    wdy = w * dy
    c1 = tl.sum(xhat * wdy, axis=0) / N
    c2 = tl.sum(wdy, axis=0) / N
    dx = (wdy - (xhat * c1 + c2)) * rstd
    tl.store(dx_ptr + {{ row_offsets }}, dx)
'''


@dataclass(frozen=True)
class LayerNormConfig:
    """Problem shape of one LayerNorm launch (one program per row)."""

    M: int
    N: int
    eps: float = 1e-5

    def grid(self) -> int:
        return self.M


def build_layernorm_context(name: str = "layernorm") -> CodegenContext:
    """Row offsets from ``Row(M, N)`` and column offsets from ``Row(N)``."""
    M, N = Var("M"), Var("N")
    row = Var("row")
    ctx = CodegenContext(name=name)
    ctx.size(M, N)
    ctx.index(row, M)
    rows = GroupBy([M, N]).OrderBy(Row(M, N))
    cols = GroupBy([N]).OrderBy(Row(N))
    ctx.bind("row_offsets", rows[row, :])
    ctx.bind("col_offsets", cols[:])
    return ctx


def generate_layernorm_forward() -> TritonKernel:
    return get_backend("triton").generate(
        "layernorm_fwd", LAYERNORM_FWD_TEMPLATE, build_layernorm_context("layernorm_fwd")
    )


def generate_layernorm_backward() -> TritonKernel:
    return get_backend("triton").generate(
        "layernorm_bwd", LAYERNORM_BWD_TEMPLATE, build_layernorm_context("layernorm_bwd")
    )


def layernorm_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    x = x.astype(np.float32)
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * w + b


def layernorm_backward_reference(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    x = x.astype(np.float32)
    dy = dy.astype(np.float32)
    n = x.shape[1]
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * rstd
    wdy = w * dy
    c1 = (xhat * wdy).sum(axis=1, keepdims=True) / n
    c2 = wdy.sum(axis=1, keepdims=True) / n
    return (wdy - (xhat * c1 + c2)) * rstd


def run_layernorm_forward(kernel: TritonKernel, x, w, b, eps: float = 1e-5,
                          device: DeviceSpec | None = None):
    m, n = x.shape
    x_buf = to_device(x.astype(np.float32).reshape(-1), "x")
    w_buf = to_device(w.astype(np.float32), "w")
    b_buf = to_device(b.astype(np.float32), "b")
    y_buf = to_device(np.zeros(m * n, dtype=np.float32), "y")
    fn = compile_kernel(kernel.source, "layernorm_fwd_kernel")
    trace = launch(
        fn,
        grid=m,
        kernel_args={
            "x_ptr": x_buf, "w_ptr": w_buf, "b_ptr": b_buf, "y_ptr": y_buf,
            "M": m, "N": n, "eps": eps, "BN": n,
        },
        sector_bytes=device.dram_sector_bytes if device is not None else 32,
    )
    return from_device(y_buf, (m, n)), trace


def run_layernorm_backward(kernel: TritonKernel, dy, x, w, eps: float = 1e-5,
                           device: DeviceSpec | None = None):
    m, n = x.shape
    dy_buf = to_device(dy.astype(np.float32).reshape(-1), "dy")
    x_buf = to_device(x.astype(np.float32).reshape(-1), "x")
    w_buf = to_device(w.astype(np.float32), "w")
    dx_buf = to_device(np.zeros(m * n, dtype=np.float32), "dx")
    fn = compile_kernel(kernel.source, "layernorm_bwd_kernel")
    trace = launch(
        fn,
        grid=m,
        kernel_args={
            "dy_ptr": dy_buf, "x_ptr": x_buf, "w_ptr": w_buf, "dx_ptr": dx_buf,
            "M": m, "N": n, "eps": eps, "BN": n,
        },
        sector_bytes=device.dram_sector_bytes if device is not None else 32,
    )
    return from_device(dx_buf, (m, n)), trace


def layernorm_check_reference(config, inputs) -> np.ndarray:
    """NumPy ground truth for either direction of the check case."""
    eps = config.get("eps", 1e-5)
    if config.get("direction", "forward") == "forward":
        return layernorm_reference(inputs["x"], inputs["w"], inputs["b"], eps)
    return layernorm_backward_reference(inputs["dy"], inputs["x"], inputs["w"], eps)


def layernorm_case(config, rng, device=None):
    """A small full-launch LayerNorm (forward or backward) per the config."""
    from .registry import Case

    if config.get("implementation", "lego") != "lego":
        return None  # eager baselines are evaluation-only
    direction = config.get("direction", "forward")
    m, n = 8, 16
    x = rng.standard_normal((m, n)).astype(np.float32)
    w = rng.standard_normal(n).astype(np.float32)
    resolved = {"implementation": "lego", "direction": direction, "M": m, "N": n}
    if direction == "forward":
        b = rng.standard_normal(n).astype(np.float32)
        inputs = {"x": x, "w": w, "b": b}

        def execute(kernel, device=None):
            return run_layernorm_forward(kernel, x, w, b, device=device)
    else:
        dy = rng.standard_normal((m, n)).astype(np.float32)
        inputs = {"dy": dy, "x": x, "w": w}

        def execute(kernel, device=None):
            return run_layernorm_backward(kernel, dy, x, w, device=device)

    return Case(config=resolved, inputs=inputs, execute=execute)


def layernorm_performance(
    config: LayerNormConfig,
    implementation: str = "lego",
    direction: str = "forward",
    device: DeviceSpec = A100_80GB,
) -> float:
    """Estimated LayerNorm time.

    The fused LEGO/Triton kernel reads its inputs once and writes once; the
    eager baseline performs separate mean/var reduction and normalisation
    kernels (forward) or several reduction passes (backward); LEGO is
    modelled marginally ahead of reference Triton in the forward direction
    because the reference tutorial's explicit-step loop generates less
    efficient code (the effect reported in Section V-A).
    """
    elements = config.M * config.N
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    passes_in = 2 if direction == "forward" else 3
    if implementation == "pytorch":
        launches = 2 if direction == "forward" else 3
        return pytorch_elementwise_time(
            elements, device, reads=passes_in + 1, writes=1, kernel_launches=launches
        )
    if implementation not in ("lego", "triton"):
        raise ValueError(f"unknown implementation {implementation!r}")
    efficiency = 0.88
    if direction == "forward" and implementation == "triton":
        efficiency = 0.80  # the tutorial's explicit-step loop (Section V-A)
    cost = KernelCost(
        name=f"layernorm_{direction}_{implementation}",
        flops=8.0 * elements,
        dtype="fp32",
        dram_bytes=float(passes_in + 1) * 4.0 * elements,
        dram_efficiency=efficiency,
        blocks=float(config.M),
        threads_per_block=min(1024, config.N),
        threads=float(config.M * min(1024, config.N)),
    )
    return estimate_time(cost, device).total


def app_spec():
    """The LayerNorm :class:`~repro.apps.registry.AppSpec` for the autotuner.

    As for softmax the axis is the execution strategy per direction: the
    fused row-parallel kernel vs the eager framework path (Figure 11).
    """
    from ..tune.space import Choice, SearchSpace
    from .registry import AppSpec, register_app

    n = 4096
    space = SearchSpace(
        Choice("implementation", ("lego", "triton", "pytorch")),
        Choice("direction", ("forward", "backward")),
    )

    def evaluate(config, device=A100_80GB):
        # sizes and device may be overridden (figure harnesses, measured profiler)
        cfg = LayerNormConfig(M=config.get("M", n), N=config.get("N", n))
        return layernorm_performance(cfg, config["implementation"], config["direction"],
                                     device=device)

    def generate(config):
        if config["implementation"] != "lego":
            return None
        if config["direction"] == "forward":
            return generate_layernorm_forward()
        return generate_layernorm_backward()

    return register_app(AppSpec(
        name="layernorm",
        backend="triton",
        space=space,
        evaluate=evaluate,
        generate=generate,
        generate_params=("implementation", "direction"),
        reference=layernorm_check_reference,
        case=layernorm_case,
        paper_config={"implementation": "lego"},
        description="Fused LayerNorm vs eager framework (Figure 11)",
    ))
