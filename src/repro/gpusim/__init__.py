"""Analytic GPU performance-model substrate (A100-class).

Replaces the paper's physical A100 for performance-shape reproduction:

* :class:`DeviceSpec` / :data:`A100_80GB` — device capability description,
* :class:`KernelCost`, :func:`estimate_time`, :func:`roofline_point` — the
  roofline-with-overheads kernel model,
* :func:`warp_transactions`, :func:`coalescing_efficiency`,
  :class:`AccessPattern`, :func:`strided_traffic` — global-memory coalescing,
* :func:`warp_conflict_degree`, :func:`access_conflict_profile` —
  shared-memory bank conflicts,
* cuBLAS / PyTorch baselines for Figure 11.
"""

from .device import (
    A100_80GB,
    DEVICE_ZOO,
    H100_80GB,
    ORIN_AGX,
    RTX4090,
    DeviceSpec,
    bytes_per_element,
    get_device,
)
from .memory import AccessPattern, coalescing_efficiency, strided_traffic, warp_transactions
from .sharedmem import ConflictProfile, access_conflict_profile, warp_conflict_degree
from .kernelmodel import (
    KernelCost,
    TimeBreakdown,
    estimate_time,
    occupancy_factor,
    roofline_point,
)
from .baselines import (
    cublas_efficiency,
    cublas_matmul_time,
    pytorch_elementwise_time,
    triton_matmul_efficiency,
)

__all__ = [
    "A100_80GB",
    "H100_80GB",
    "RTX4090",
    "ORIN_AGX",
    "DEVICE_ZOO",
    "get_device",
    "DeviceSpec",
    "bytes_per_element",
    "AccessPattern",
    "coalescing_efficiency",
    "strided_traffic",
    "warp_transactions",
    "ConflictProfile",
    "access_conflict_profile",
    "warp_conflict_degree",
    "KernelCost",
    "TimeBreakdown",
    "estimate_time",
    "occupancy_factor",
    "roofline_point",
    "cublas_efficiency",
    "cublas_matmul_time",
    "pytorch_elementwise_time",
    "triton_matmul_efficiency",
]
