"""Roofline series for Figure 13 (LUD and stencil variants)."""

from __future__ import annotations

from ..apps import lud, stencil
from ..gpusim import A100_80GB, DeviceSpec, KernelCost, roofline_point

__all__ = ["lud_roofline", "stencil_roofline"]


def lud_roofline(n: int = 2048, device: DeviceSpec = A100_80GB) -> list[dict]:
    """Roofline points for the LUD configurations of Figure 12b."""
    rows = []
    for cfg in lud.lud_configurations(n):
        seconds = lud.lud_performance_vectorized(cfg, device)
        flops = 2.0 / 3.0 * n ** 3
        # DRAM traffic falls with the block size: each internal-kernel block
        # re-reads two panels per step, i.e. ~3 * n^2 * (n / B) elements total.
        dram_bytes = 4.0 * 3.0 * n * n * (n / cfg.block)
        point = roofline_point(
            KernelCost(
                name=f"lud_b{cfg.block}",
                flops=flops,
                dram_bytes=dram_bytes,
                blocks=float((n // cfg.block) ** 2),
                threads_per_block=float(cfg.cuda_block ** 2),
                threads=float((n // cfg.block) ** 2 * cfg.cuda_block ** 2),
            ),
            device,
        )
        rows.append(
            {
                "kernel": f"LUD block {cfg.block} (coarsen {cfg.coarsening})",
                "arithmetic_intensity": point["arithmetic_intensity"],
                "achieved_gflops": flops / seconds / 1e9,
                "memory_roof_gflops": point["memory_roof_gflops"],
                "bound": point["bound"],
            }
        )
    return rows


def stencil_roofline(n: int = 512, brick: int = 8, device: DeviceSpec = A100_80GB) -> list[dict]:
    """Roofline points for every stencil in both layouts."""
    rows = []
    for spec in stencil.STENCILS:
        for layout in ("array", "brick"):
            seconds = stencil.stencil_performance(spec, n, layout, brick, device)
            cells = float(n) ** 3
            flops = cells * min(spec.points, 32)
            read_passes = 1.0 if layout == "brick" else 1.0 + 0.012 * (spec.points - 1)
            dram_bytes = cells * 4.0 * (read_passes + 1.0)
            rows.append(
                {
                    "kernel": f"{spec.name} ({layout})",
                    "arithmetic_intensity": flops / dram_bytes,
                    "achieved_gflops": flops / seconds / 1e9,
                    "memory_roof_gflops": flops / dram_bytes * device.dram_bandwidth_gbs,
                    "bound": "dram",
                }
            )
    return rows
