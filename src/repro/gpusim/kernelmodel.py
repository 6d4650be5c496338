"""Analytic kernel performance model (roofline with overheads).

A kernel execution is summarised by a :class:`KernelCost`: how many flops it
performs, how many bytes it moves through DRAM / L2 / shared memory, how much
the shared-memory traffic is serialised by bank conflicts, and how much
parallelism it exposes.  :func:`estimate_time` turns this into a wall-clock
estimate for a :class:`~repro.gpusim.device.DeviceSpec`:

``time = launch_overhead
       + max(compute_time, dram_time, l2_time, smem_time) / occupancy_factor``

where each component is ``work / (peak * efficiency)``.  The model is a
deliberately simple bottleneck ("roofline") model — it is not a cycle
simulator — but it captures exactly the effects the paper's CUDA and Triton
experiments exercise: data-movement volume (layouts change DRAM bytes), bank
conflicts (NW), work-per-thread / parallelism (LUD coarsening) and
tensor-core utilisation versus problem size (matmul).  The same functions
cost a whole pool of configurations when the fields are NumPy columns
(:mod:`repro.gpusim.columns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .columns import largest, maximum, minimum, ratio, where
from .device import DeviceSpec

__all__ = [
    "KernelCost",
    "TimeBreakdown",
    "estimate_time",
    "occupancy_factor",
    "roofline_point",
]


@dataclass
class KernelCost:
    """Resource summary of one kernel launch.

    The numeric fields may instead be equal-length NumPy columns, one row per
    configuration of a pool: :func:`estimate_time` costs them all at once.
    """

    name: str = "kernel"
    #: floating-point (or integer) operations performed
    flops: float = 0.0
    #: arithmetic precision of the flops
    dtype: str = "fp32"
    #: whether the flops run on tensor cores
    tensor_core: bool = False
    #: bytes moved between DRAM and L2
    dram_bytes: float = 0.0
    #: bytes moved between L2 and the SMs (defaults to dram_bytes when zero)
    l2_bytes: float = 0.0
    #: bytes moved through shared memory
    smem_bytes: float = 0.0
    #: average shared-memory serialisation factor from bank conflicts (>= 1)
    bank_conflict_factor: float = 1.0
    #: total threads launched
    threads: float = 0.0
    #: thread blocks launched
    blocks: float = 0.0
    #: threads per block
    threads_per_block: float = 0.0
    #: shared memory per block in bytes (occupancy limiter)
    smem_per_block: float = 0.0
    #: efficiency factor applied to the compute roof (0..1]
    compute_efficiency: float = 0.85
    #: efficiency factor applied to DRAM bandwidth (0..1]
    dram_efficiency: float = 0.85
    #: number of kernel launches represented by this cost
    launches: int = 1
    extra: dict = field(default_factory=dict)

    def scaled(self, factor: float) -> "KernelCost":
        """Scale all extensive quantities (used to extrapolate from a sampled block)."""
        # every field is an init field: this is dataclasses.replace without
        # its per-field introspection
        return KernelCost(**{
            **vars(self),
            "flops": self.flops * factor,
            "dram_bytes": self.dram_bytes * factor,
            "l2_bytes": self.l2_bytes * factor,
            "smem_bytes": self.smem_bytes * factor,
            "threads": self.threads * factor,
            "blocks": self.blocks * factor,
        })

    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte (the roofline x-axis)."""
        if self.dram_bytes <= 0:
            return float("inf")
        return self.flops / self.dram_bytes


@dataclass(frozen=True)
class TimeBreakdown:
    """The estimate plus its per-resource components (all in seconds)."""

    total: float
    compute: float
    dram: float
    l2: float
    smem: float
    overhead: float
    occupancy: float
    bound: str

    @property
    def milliseconds(self) -> float:
        return self.total * 1e3

    @property
    def microseconds(self) -> float:
        return self.total * 1e6

    def as_dict(self) -> dict[str, float | str]:
        """JSON-friendly form."""
        return {
            "total": self.total,
            "compute": self.compute,
            "dram": self.dram,
            "l2": self.l2,
            "smem": self.smem,
            "overhead": self.overhead,
            "occupancy": self.occupancy,
            "bound": self.bound,
        }


def occupancy_factor(cost: KernelCost, device: DeviceSpec) -> float:
    """How well the launch fills the machine (0..1].

    Three effects: (1) too few thread blocks to occupy every SM (tail
    effect / low block-level parallelism, the LUD lever), (2) shared-memory
    usage limiting resident blocks per SM, and (3) too few resident *warps*
    to hide latency — an SM with plenty of resident blocks still stalls
    when those blocks are narrow (a 64-thread block contributes only two
    warps), which is what separates coarsening factors that share every
    other resource.  All intentionally coarse.  The cost's fields may be
    NumPy columns (:mod:`repro.gpusim.columns`): then so is the factor.
    """
    blocks, width, smem = cost.blocks, cost.threads_per_block, cost.smem_per_block
    # blocks needed to give every SM at least one resident block
    wave = minimum(1.0, blocks / device.num_sms)
    # resident-thread limit, capped by the hardware's max resident blocks per
    # SM: without the cap a tiny block (32 threads on A100) would report
    # 2048/32 = 64 resident blocks when the scheduler stops at 32
    resident_blocks = minimum(maximum(1, device.max_threads_per_sm // maximum(width, 1)),
                              device.max_blocks_per_sm)
    smem_blocks = maximum(1, device.smem_per_sm_bytes // maximum(smem, 1))
    resident_blocks = where(smem > 0, minimum(resident_blocks, smem_blocks), resident_blocks)
    # fewer than 4 resident blocks — or fewer than 16 resident warps —
    # per SM limits latency hiding
    resident_warps = resident_blocks * width / device.warp_size
    latency_hiding = where(width > 0, minimum(minimum(1.0, resident_blocks / 4.0),
                                              resident_warps / 16.0), 1.0)
    # combine; never return 0
    return where(blocks > 0, maximum(0.05, wave * (0.5 + 0.5 * latency_hiding)), 1.0)


#: the roofline's resources, in the order a tie goes to
_BOUNDS = ("compute", "dram", "l2", "smem")


def estimate_time(cost: KernelCost, device: DeviceSpec) -> TimeBreakdown:
    """Estimate the wall-clock time of the kernel described by ``cost``.

    One body for one configuration and for a pool: when the cost's fields
    are NumPy columns, so is every field of the breakdown (``bound`` is a
    column of resource names), each row bit-identical to the scalar call.
    """
    peak_gflops = device.peak_flops(cost.dtype, cost.tensor_core) * cost.compute_efficiency
    compute_time = ratio(cost.flops, peak_gflops * 1e9)
    dram_time = ratio(cost.dram_bytes, device.dram_bandwidth_gbs * 1e9 * cost.dram_efficiency)
    l2_time = ratio(where(cost.l2_bytes, cost.l2_bytes, cost.dram_bytes),
                    device.l2_bandwidth_gbs * 1e9)
    smem_time = ratio(cost.smem_bytes * cost.bank_conflict_factor, device.smem_bandwidth_gbs * 1e9)

    occupancy = occupancy_factor(cost, device)
    busy, bound = largest(_BOUNDS, (compute_time, dram_time, l2_time, smem_time))
    overhead = device.launch_overhead_us * 1e-6 * cost.launches
    return TimeBreakdown(
        total=busy / occupancy + overhead,
        compute=compute_time,
        dram=dram_time,
        l2=l2_time,
        smem=smem_time,
        overhead=overhead,
        occupancy=occupancy,
        bound=bound,
    )


def roofline_point(cost: KernelCost, device: DeviceSpec) -> dict[str, float]:
    """The (arithmetic intensity, achieved GFLOP/s) point for a roofline plot."""
    breakdown = estimate_time(cost, device)
    achieved = cost.flops / breakdown.total / 1e9 if breakdown.total > 0 else 0.0
    return {
        "arithmetic_intensity": cost.arithmetic_intensity(),
        "achieved_gflops": achieved,
        "peak_gflops": device.peak_flops(cost.dtype, cost.tensor_core),
        "memory_roof_gflops": cost.arithmetic_intensity() * device.dram_bandwidth_gbs,
        "bound": breakdown.bound,
    }
