"""The one trace -> :class:`~repro.gpusim.KernelCost` mapping.

All three execution substrates record traces (mini-Triton
:class:`~repro.minitriton.KernelTrace`, mini-CUDA
:class:`~repro.minicuda.CudaTrace`, MLIR interpreter
:class:`~repro.mlir.GpuLaunchResult`) and :func:`trace_to_cost` turns any of
them into a measured cost:

* the Triton trace takes the program-model mapping, the two block-model
  traces share one mapping (the MLIR interpreter mirrors the mini-CUDA
  execution model), and anything else is a ``TypeError`` naming the type;
* DRAM bytes are charged from the *transaction* counters — sectors actually
  moved at the granularity the trace was recorded at (``trace.sector_bytes``,
  which the launcher set from the device) — never a literal 32, so poorly
  coalesced kernels pay for the full sectors they touch while the recording
  and the costing can never disagree about the sector size;
* :func:`trace_summary` is the one JSON-friendly view of a trace a
  :class:`~repro.check.CheckReport` carries: the counters it recorded and
  the measured memory behaviour (coalescing efficiency, bank-conflict
  factor, useful vs moved bytes).
"""

from __future__ import annotations

from ..gpusim import A100_80GB, DeviceSpec, KernelCost
from ..minicuda import CudaTrace
from ..minitriton.language import KernelTrace
from ..mlir.interp import GpuLaunchResult

__all__ = ["trace_to_cost", "trace_summary"]


def trace_to_cost(trace, device: DeviceSpec = A100_80GB, **overrides) -> KernelCost:
    """Convert a substrate trace into a :class:`~repro.gpusim.KernelCost`.

    ``overrides`` are the keyword arguments of the mapping the trace's type
    selects: ``name``, ``dtype``, ``tensor_core``, ``compute_efficiency``,
    ``dram_efficiency`` and ``launches`` for every trace, plus the
    ``threads_per_block`` / ``smem_per_block`` hints for a Triton trace.
    """
    if isinstance(trace, KernelTrace):
        return _triton_cost(trace, device, **overrides)
    if isinstance(trace, (CudaTrace, GpuLaunchResult)):
        return _block_model_cost(trace, device, **overrides)
    raise TypeError(
        f"no trace->cost mapping for {type(trace).__name__}; "
        "expected a KernelTrace, CudaTrace or GpuLaunchResult"
    )


def _dram_traffic(trace, device: DeviceSpec) -> tuple[float, float]:
    """``(useful_bytes, moved_bytes)`` of the trace's global-memory traffic.

    Transactions are charged at the sector size the trace stamped; a
    hand-built trace stamped 0 takes ``device.dram_sector_bytes``.
    """
    useful = float(trace.load_bytes + trace.store_bytes)
    transactions = float(trace.load_transactions + trace.store_transactions)
    return useful, transactions * float(trace.sector_bytes or device.dram_sector_bytes)


#: extensive counters copied into the summary when the trace records them
#: (``programs`` on a Triton trace, ``blocks`` on the block-model ones)
_COUNTERS = ("programs", "blocks", "load_elements", "store_elements",
             "load_bytes", "store_bytes", "flops")


def trace_summary(trace, device: DeviceSpec = A100_80GB) -> dict:
    """The counters and measured memory behaviour of one trace (JSON-friendly).

    ``coalescing_efficiency`` is useful bytes over sector bytes actually
    moved (1.0 = every transferred byte was requested; broadcast reuse of a
    sector can push it above 1); ``bank_conflict_factor`` is the average
    shared-memory serialisation degree (1.0 for the Triton trace, which
    records no shared traffic).
    """
    useful, moved = _dram_traffic(trace, device)
    summary = {name: float(getattr(trace, name)) for name in _COUNTERS if hasattr(trace, name)}
    summary.update(
        useful_dram_bytes=useful,
        moved_dram_bytes=moved,
        coalescing_efficiency=(useful / moved) if moved else 1.0,
        bank_conflict_factor=float(getattr(trace, "bank_conflict_factor", 1.0)),
    )
    return summary


def _triton_cost(
    trace: KernelTrace,
    device: DeviceSpec,
    *,
    name: str = "kernel",
    dtype: str | None = None,
    tensor_core: bool | None = None,
    compute_efficiency: float = 0.85,
    dram_efficiency: float = 0.85,
    launches: int = 1,
    threads_per_block: float = 0.0,
    smem_per_block: float = 0.0,
) -> KernelCost:
    """Summarise a mini-Triton :class:`~repro.minitriton.KernelTrace`.

    One Triton program maps to one thread block; the language layer does
    not observe the block's thread shape, so ``threads_per_block`` is a
    caller-supplied hint (0 leaves the occupancy model neutral).  The
    arithmetic contract defaults to what the trace observed: kernels whose
    flops ran predominantly through ``tl.dot`` on FP16 operands are costed
    on the tensor cores.
    """
    if tensor_core is None:
        tensor_core = trace.flops > 0 and trace.tensor_core_flops >= 0.5 * trace.flops
    if dtype is None:
        dtype = "fp16" if tensor_core else "fp32"
    useful, moved = _dram_traffic(trace, device)
    blocks = float(trace.programs)
    return KernelCost(
        name=name,
        flops=float(trace.flops),
        dtype=dtype,
        tensor_core=tensor_core,
        dram_bytes=max(moved, useful),
        threads=blocks * threads_per_block,
        blocks=blocks,
        threads_per_block=float(threads_per_block),
        smem_per_block=float(smem_per_block),
        compute_efficiency=compute_efficiency,
        dram_efficiency=dram_efficiency,
        launches=launches,
    )


def _block_model_cost(
    trace: CudaTrace | GpuLaunchResult,
    device: DeviceSpec,
    *,
    name: str = "kernel",
    dtype: str = "fp32",
    tensor_core: bool = False,
    compute_efficiency: float = 0.85,
    dram_efficiency: float = 0.85,
    launches: int | None = None,
) -> KernelCost:
    """Shared cost mapping for the two block-execution-model traces.

    ``CudaTrace`` and ``GpuLaunchResult`` expose the same counters
    (the MLIR interpreter mirrors the mini-CUDA execution model):
    transaction-charged DRAM bytes, shared traffic carrying the measured
    average bank-conflict serialisation factor, and full launch geometry
    (blocks, threads per block, shared memory per block) for the
    occupancy model.  Merged multi-launch traces (NW's wavefront loop)
    record their launch count in ``trace.extras['launches']``, the default
    for ``launches``.
    """
    if launches is None:
        launches = int(getattr(trace, "extras", {}).get("launches", 1))
    useful, moved = _dram_traffic(trace, device)
    return KernelCost(
        name=name,
        flops=float(trace.flops),
        dtype=dtype,
        tensor_core=tensor_core,
        dram_bytes=max(moved, useful),
        smem_bytes=float(trace.smem_bytes),
        bank_conflict_factor=float(trace.bank_conflict_factor),
        threads=float(trace.blocks * trace.threads_per_block),
        blocks=float(trace.blocks),
        threads_per_block=float(trace.threads_per_block),
        smem_per_block=float(trace.smem_per_block),
        compute_efficiency=compute_efficiency,
        dram_efficiency=dram_efficiency,
        launches=launches,
    )
