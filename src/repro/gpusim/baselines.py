"""Analytic baselines: cuBLAS-class matmul and PyTorch eager element-wise ops.

Figure 11 of the paper compares LEGO-generated Triton kernels against the
reference Triton kernels and against PyTorch, whose CUDA backend dispatches
matrix multiplication to cuBLAS.  We do not have cuBLAS; the comparison only
needs the baseline's characteristic *shape*:

* cuBLAS achieves a large fraction of tensor-core peak, with its advantage
  largest at small/medium sizes (hand-tuned tiling amortises launch and
  prologue overheads better than Triton autotuning) and shrinking at large
  sizes where every implementation saturates the tensor cores;
* PyTorch eager element-wise/normalisation kernels are memory-bound and pay
  one kernel launch per primitive, so a fused Triton/LEGO kernel beats them
  when fusion removes intermediate traffic.

The efficiency curves below encode exactly that and nothing more.
"""

from __future__ import annotations

from .columns import minimum, tier
from .device import DeviceSpec, bytes_per_element
from .kernelmodel import KernelCost, estimate_time

__all__ = [
    "cublas_matmul_time",
    "cublas_efficiency",
    "pytorch_elementwise_time",
    "triton_matmul_efficiency",
]


#: (smallest GEMM dimension reached, fraction of tensor-core peak), largest first
_CUBLAS_EFFICIENCY = ((8192, 0.90), (4096, 0.88), (2048, 0.84), (1024, 0.72), (512, 0.55))
_TRITON_EFFICIENCY = ((8192, 0.89), (4096, 0.85), (2048, 0.76), (1024, 0.60), (512, 0.42))


def cublas_efficiency(m: int, n: int, k: int) -> float:
    """Fraction of tensor-core peak cuBLAS-class libraries achieve on M=N=K-ish GEMMs."""
    return tier(minimum(minimum(m, n), k), _CUBLAS_EFFICIENCY, 0.35)


def triton_matmul_efficiency(m: int, n: int, k: int) -> float:
    """Fraction of tensor-core peak a well-tiled Triton GEMM achieves.

    Triton (and hence LEGO's generated kernels, which lower to the same tiling)
    trails cuBLAS slightly at small sizes and matches it at large sizes —
    the relationship visible in the paper's Figure 11.  The sizes may be
    NumPy columns (:mod:`repro.gpusim.columns`).
    """
    return tier(minimum(minimum(m, n), k), _TRITON_EFFICIENCY, 0.25)


def cublas_matmul_time(
    m: int,
    n: int,
    k: int,
    device: DeviceSpec,
    dtype: str = "fp16",
) -> float:
    """Estimated cuBLAS GEMM time in seconds."""
    element = bytes_per_element(dtype)
    cost = KernelCost(
        name="cublas_gemm",
        flops=2.0 * m * n * k,
        dtype=dtype,
        tensor_core=dtype in ("fp16", "bf16"),
        dram_bytes=float(element) * (m * k + k * n + m * n),
        compute_efficiency=cublas_efficiency(m, n, k),
        dram_efficiency=0.9,
        blocks=max(1, (m // 128) * (n // 128)),
        threads_per_block=256,
        threads=max(1, (m // 128) * (n // 128)) * 256,
    )
    return estimate_time(cost, device).total


def pytorch_elementwise_time(
    total_elements: int,
    device: DeviceSpec,
    dtype: str = "fp32",
    reads: int = 1,
    writes: int = 1,
    kernel_launches: int = 1,
) -> float:
    """Estimated PyTorch eager time for a memory-bound element-wise/reduction op.

    ``reads``/``writes`` count array passes over the data; unfused eager
    execution typically performs several (e.g. LayerNorm backward launches
    separate reduction and normalisation kernels).
    """
    element = bytes_per_element(dtype)
    cost = KernelCost(
        name="pytorch_eager",
        flops=float(total_elements) * (reads + writes),
        dtype=dtype,
        dram_bytes=float(total_elements) * element * (reads + writes),
        dram_efficiency=0.8,
        launches=kernel_launches,
        blocks=max(1, total_elements // 1024),
        threads_per_block=256,
        threads=float(total_elements),
    )
    return estimate_time(cost, device).total
