"""Needleman-Wunsch (Rodinia) with an anti-diagonal shared-memory layout.

The Rodinia NW kernels keep a ``(b+1) x (b+1)`` score buffer in shared
memory and update the cells of each anti-diagonal in parallel.  With the
original row-major buffer the threads of a wave access words that are
``b`` elements apart, which serialises into multi-way bank conflicts; the
paper's optimisation re-lays the buffer in anti-diagonal order (Figure 7 /
Equation 2) so that a wave's cells are contiguous, and reports 1.4x-2.1x
end-to-end speedups (Figure 12a).

This module reproduces both sides:

* :func:`nw_reference` — the sequential dynamic program (ground truth);
* :func:`run_nw_blocked` — the blocked kernel on the mini-CUDA substrate,
  parameterised by the shared-buffer layout (``None`` = row-major, or the
  LEGO anti-diagonal layout from :func:`antidiagonal_buffer_layout`);
* :func:`generate_nw_wrapper` — the CUDA accessor struct the paper injects
  into the original kernel (two-line change);
* :func:`nw_block_trace` — one block's bank-conflict profile and DRAM
  traffic derived from the layout alone, without launching anything;
* :func:`nw_performance` — analytic time estimate from a block's bank
  conflicts and traffic (static or measured).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..codegen import GuardProofError, generate_accessor_wrapper, prove_guard_redundant
from ..core import GroupBy, RegP, GenP, antidiagonal
from ..gpusim import A100_80GB, ConflictProfile, DeviceSpec
from ..minicuda import CudaTrace, GlobalArray, launch
from ..symbolic import BoolAnd, SymbolicEnv, as_expr

__all__ = [
    "NwConfig",
    "antidiagonal_buffer_layout",
    "skewed_buffer_layout",
    "nw_buffer_layout",
    "NW_BUFFER_LAYOUTS",
    "nw_reference",
    "nw_check_reference",
    "nw_case",
    "nw_wave_span",
    "run_nw_blocked",
    "generate_nw_wrapper",
    "nw_block_trace",
    "nw_performance",
    "nw_speedup",
    "app_spec",
]


@dataclass(frozen=True)
class NwConfig:
    """One NW problem: an ``n x n`` score matrix processed in ``block`` tiles."""

    n: int
    block: int = 16
    penalty: int = 10

    def __post_init__(self):
        if self.n % self.block != 0:
            raise ValueError(f"sequence length {self.n} must be a multiple of the block {self.block}")

    @property
    def num_blocks(self) -> int:
        return self.n // self.block


def antidiagonal_buffer_layout(block: int) -> GroupBy:
    """The paper's Equation 2 layout for the ``(b+1) x (b+1)`` shared buffer."""
    return GroupBy([block + 1, block + 1]).OrderBy(antidiagonal(block + 1))


def skewed_buffer_layout(block: int, skew: int) -> GroupBy:
    """A row-cyclic skew of the ``(b+1) x (b+1)`` buffer: ``(i, j) -> (i, (i*skew + j) % w)``.

    A skew of 1 also removes the wavefront's bank conflicts (the cells of an
    anti-diagonal land a full row width apart, which is odd and therefore
    conflict-free across 32 banks); larger skews are progressively worse.
    These populate the autotuner's layout axis alongside the paper's
    anti-diagonal layout.
    """
    width = block + 1

    def skewed(i, j):
        return i * width + (i * skew + j) % width

    def skewed_inv(flat):
        i = flat // width
        j = (flat % width - i * skew) % width
        return (i, j)

    perm = GenP([width, width], skewed, skewed_inv, name=f"skew{skew}_{width}")
    return GroupBy([width, width]).OrderBy(perm)


#: the shared-buffer layout axis the autotuner sweeps (paper's choice first)
NW_BUFFER_LAYOUTS = ("antidiagonal", "skew1", "skew2", "row", "col")


@functools.lru_cache(maxsize=None)
def nw_buffer_layout(block: int, name: str) -> GroupBy | None:
    """Resolve one value of the layout axis to a buffer layout (``None`` = row-major).

    Cached (layouts are immutable) so the layout's memoised permutation
    vector is built once per ``(block, name)``, not once per evaluation.
    """
    width = block + 1
    if name == "row":
        return None
    if name == "col":
        return GroupBy([width, width]).OrderBy(
            RegP([width, width], [2, 1])
        )
    if name == "antidiagonal":
        return antidiagonal_buffer_layout(block)
    if name.startswith("skew"):
        return skewed_buffer_layout(block, int(name[len("skew"):]))
    raise ValueError(f"unknown NW buffer layout {name!r}; expected one of {NW_BUFFER_LAYOUTS}")


def nw_reference(reference: np.ndarray, penalty: int) -> np.ndarray:
    """Sequential Needleman-Wunsch dynamic program.

    ``reference[i, j]`` is the substitution score of aligning item ``i`` of
    the first sequence with item ``j`` of the second; gaps cost ``penalty``.
    Returns the full ``(n+1) x (n+1)`` score matrix (row/column 0 hold the
    gap-only prefix scores, as in Rodinia).
    """
    n = reference.shape[0]
    score = np.zeros((n + 1, n + 1), dtype=np.int32)
    score[0, :] = -penalty * np.arange(n + 1)
    score[:, 0] = -penalty * np.arange(n + 1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            score[i, j] = max(
                score[i - 1, j - 1] + reference[i - 1, j - 1],
                score[i, j - 1] - penalty,
                score[i - 1, j] - penalty,
            )
    return score


def nw_check_reference(config, inputs) -> np.ndarray:
    """Ground truth for the differential check: the sequential dynamic program."""
    return nw_reference(inputs["reference"], config.get("penalty", 10))


def nw_case(config, rng, device=None):
    """A small full-wavefront NW problem under the configured buffer layout.

    The score matrix is integer (hence ``int32``), so the comparison is
    exact: any layout that is not a bijection of the shared buffer — or any
    staging bug — corrupts cells of the dynamic program outright rather
    than perturbing them.  Executes through :func:`run_nw_blocked` for every
    layout value, including the ones whose configuration generates no
    accessor wrapper (row/col/affine layouts patch the original kernel).

    The bank-conflict profile of the shared score buffer — the quantity the
    layout axis changes — is a per-block property, so the small problem
    measures it exactly.  Extensive traffic scales by the block count; the
    full-size run launches one kernel per anti-diagonal wave, which is
    where NW's launch overhead (and the benefit of fewer, larger blocks)
    comes from.
    """
    from .registry import Case

    block = config.get("block", 16)
    layout_name = config.get("layout", "antidiagonal")
    cfg = NwConfig(n=2 * block, block=block)
    reference = rng.integers(-4, 5, size=(cfg.n, cfg.n)).astype(np.int32)
    layout = nw_buffer_layout(block, layout_name)

    def execute(kernel, device=None):
        return run_nw_blocked(reference, cfg, layout=layout, device=device)

    target_n = config.get("n", 4096)
    return Case(
        config={"layout": layout_name, "block": block, "n": cfg.n, "penalty": cfg.penalty},
        inputs={"reference": reference},
        execute=execute,
        scale=(target_n // block) ** 2 / (cfg.n // block) ** 2,
        launches=2 * (target_n // block) - 1,
        target_config={"layout": layout_name, "block": block, "n": target_n},
        dtype="int32",
    )


def nw_wave_span(wave: int, block_count: int) -> tuple[int, int]:
    """Inclusive ``blockIdx.x`` range of the live blocks on anti-diagonal ``wave``.

    Wave ``w`` holds the blocks with ``bx + by == w``, so ``bx`` runs over
    ``[max(0, w - bc + 1), min(w, bc - 1)]`` — exactly ``blocks_on_wave``
    values.  This is the span the guard-eliminated launch enumerates
    directly instead of masking a full ``bc``-wide grid.
    """
    return max(0, wave - block_count + 1), min(wave, block_count - 1)


@functools.lru_cache(maxsize=None)
def _prove_wave_guard(wave: int, block_count: int) -> bool:
    """Prove the wavefront guard redundant for the offset compact launch.

    Builds the launch symbolically — ``bx = bxw + lo`` for a grid index
    ``bxw`` over the wave's span — and asks the stride-aware prover to
    discharge the kernel's guard predicate
    ``0 <= by < bc and 0 <= bx < bc`` (with ``by = wave - bx``) for every
    grid point.  :func:`run_nw_blocked` launches the (unguarded) kernel only
    on a ``True`` verdict.
    """
    lo, hi = nw_wave_span(wave, block_count)
    count = hi - lo + 1
    if count < 1:
        return False
    env = SymbolicEnv()
    bxw = env.declare_index("bxw", count)
    bx = bxw + lo
    by = as_expr(wave) - bx
    predicate = BoolAnd(by.ge(0), by.lt(block_count), bx.ge(0), bx.lt(block_count))
    return prove_guard_redundant(predicate, env, kernel="nw_wave")


class _NwStep(NamedTuple):
    """One anti-diagonal step of a block: its cells and the neighbours they read.

    Every array is read-only.  Row ``0``/``1``/``2`` of ``neighbour_rows`` /
    ``neighbour_columns`` is the up-left / left / up neighbour of each cell.
    """

    i: np.ndarray
    j: np.ndarray
    i_up: np.ndarray  # i - 1
    j_left: np.ndarray  # j - 1
    neighbour_rows: np.ndarray  # (3, cells)
    neighbour_columns: np.ndarray  # (3, cells)


@functools.lru_cache(maxsize=None)
def _nw_steps(block: int) -> tuple[_NwStep, ...]:
    """The ``2 * block - 1`` wavefront steps of a block, built once per block size.

    Step ``m`` holds the buffer cells ``(i, j)`` on anti-diagonal ``m``.  The
    kernel and the static model (:func:`nw_block_trace`) both iterate this
    table, so the two cannot disagree about which lanes a step touches.
    """
    steps = []
    for m in range(2 * block - 1):
        lanes = np.arange(max(0, m - block + 1), min(m, block - 1) + 1)
        i, j = lanes + 1, m - lanes + 1
        i_up, j_left = i - 1, j - 1
        step = _NwStep(i, j, i_up, j_left, np.stack((i_up, i, i_up)),
                       np.stack((j_left, j_left, j)))
        for array in step:
            array.flags.writeable = False
        steps.append(step)
    return tuple(steps)


def _nw_block_kernel(ctx, score: GlobalArray, reference: GlobalArray, config: NwConfig,
                     wave: int, layout, bx_offset: int):
    """Process one block on the current wavefront (one thread per column).

    The grid is the wave's live span (:func:`nw_wave_span`) offset by
    ``bx_offset``, so every launched block is on the wavefront and in the
    matrix — :func:`_prove_wave_guard` proves it — and nothing is masked.
    Each step of the forward sweep comes from the block size's step table
    (:func:`_nw_steps`) and reads its three neighbours in one
    :meth:`~repro.minicuda.SharedArray.load_rows`, recorded as the three
    loads it stands for; the block offsets stay ``block + lane`` up to the
    global gathers.
    """
    b = config.block
    # blocks on wave w: block_x + block_y == w
    bx = ctx.blockIdx.x + bx_offset
    by = wave - bx
    base_i = by * b
    base_j = bx * b

    buff = ctx.shared_array((b + 1, b + 1), dtype=np.int32, layout=layout, name="buff")
    tx = ctx.tx  # one thread per column of the block

    # stage the block's boundary scores: buff[0, j] mirrors score[base_i, base_j + j]
    # and buff[i, 0] mirrors score[base_i + i, base_j]
    buff.store(score.load(ctx, base_i, base_j + tx + 1), 0, tx + 1)
    buff.store(score.load(ctx, base_i + tx + 1, base_j), tx + 1, 0)
    buff.store(score.load(ctx, base_i, base_j), 0, 0)
    ctx.syncthreads()

    # forward sweep over the 2b-1 anti-diagonals
    for step in _nw_steps(b):
        up_left, left, up = buff.load_rows(step.neighbour_rows,
                                           step.neighbour_columns).swapaxes(0, 1)
        ref_vals = reference.load(ctx, base_i + step.i_up, base_j + step.j_left)
        value = np.maximum(up_left + ref_vals, np.maximum(left - config.penalty, up - config.penalty))
        buff.store(value, step.i, step.j)
        ctx.count_flops(3 * step.i.size)
        ctx.syncthreads()

    # Write the block's interior back to the score matrix.  The write-back is
    # a streaming store that is not on the wavefront's dependency chain, so it
    # is read out of the logical view directly; only its global-memory store
    # traffic is charged (keeping the shared-memory conflict profile focused
    # on the latency-bound diagonal phase the layout optimisation targets).
    interior = buff.to_numpy()[..., 1:, 1:]
    flat_interior = interior.reshape(interior.shape[:-2] + (-1,))
    rows_grid, cols_grid = np.meshgrid(np.arange(1, b + 1), np.arange(1, b + 1), indexing="ij")
    score.store(ctx, flat_interior, base_i + rows_grid.reshape(-1), base_j + cols_grid.reshape(-1))


def run_nw_blocked(
    reference: np.ndarray,
    config: NwConfig,
    layout: GroupBy | None = None,
    device: DeviceSpec | None = None,
) -> tuple[np.ndarray, CudaTrace]:
    """Run the blocked NW kernel over all wavefronts on the mini-CUDA substrate.

    Returns the ``(n+1) x (n+1)`` score matrix and the merged launch trace
    (which carries the shared-memory conflict profile that distinguishes the
    two layouts).  ``device`` sets the warp width / sector granularity the
    trace records at.

    Each wave launches only its live span of blocks — grid
    ``(blocks_on_wave, 1)`` offset to the wave's first ``blockIdx.x`` — with
    no wavefront mask in the kernel, which is sound because the range prover
    discharges the guard predicate for that launch shape
    (:func:`_prove_wave_guard`); a shape it cannot prove raises
    :class:`~repro.codegen.GuardProofError` rather than launch unproven.
    """
    n, b = config.n, config.block
    score = np.zeros((n + 1, n + 1), dtype=np.int32)
    score[0, :] = -config.penalty * np.arange(n + 1)
    score[:, 0] = -config.penalty * np.arange(n + 1)
    score_buf = GlobalArray(score, name="score")
    ref_buf = GlobalArray(reference.astype(np.int32), name="reference")

    merged = CudaTrace()
    launches = 0
    block_count = config.num_blocks
    for wave in range(2 * block_count - 1):
        lo, hi = nw_wave_span(wave, block_count)
        blocks_on_wave = hi - lo + 1
        if not _prove_wave_guard(wave, block_count):
            raise GuardProofError(
                f"nw wave {wave} of a {block_count}-block matrix: the wavefront "
                f"guard is not proven redundant over blockIdx.x in [{lo}, {hi}]"
            )
        trace = launch(
            _nw_block_kernel,
            grid=(blocks_on_wave, 1),
            block=(b, 1),
            args=(score_buf, ref_buf, config, wave, layout, lo),
            device=device,
        )
        merged.sector_bytes = trace.sector_bytes
        launches += 1
        merged.load_bytes += trace.load_bytes
        merged.store_bytes += trace.store_bytes
        merged.load_transactions += trace.load_transactions
        merged.store_transactions += trace.store_transactions
        merged.smem_load_bytes += trace.smem_load_bytes
        merged.smem_store_bytes += trace.smem_store_bytes
        merged.smem_profile = merged.smem_profile.merge(trace.smem_profile)
        merged.flops += trace.flops
        merged.blocks += blocks_on_wave
        merged.threads_per_block = trace.threads_per_block
        merged.smem_per_block = max(merged.smem_per_block, trace.smem_per_block)
    merged.extras = {"launches": launches}
    return score_buf.to_numpy(), merged


def generate_nw_wrapper(block: int = 16) -> str:
    """The CUDA accessor struct redirecting ``buff`` through the layout.

    This is the paper's integration style for NW: the original Rodinia kernel
    keeps its logical 2-D accesses; only the buffer declaration and this
    wrapper are added (a two-line change).
    """
    return generate_accessor_wrapper("buff", antidiagonal_buffer_layout(block), scalar_type="int")


def nw_block_trace(block: int, layout: GroupBy | None = None,
                   device: DeviceSpec = A100_80GB) -> CudaTrace:
    """The trace of one NW block, derived from the layout without launching.

    A layout is algebra, so the bank-conflict profile of the shared buffer
    is a property of it, not of a run (:func:`_nw_block_profile`).  A block
    loads its ``(b+1)^2`` boundary and substitution scores and stores its
    ``b^2`` interior, 4 bytes each.  The result equals the per-block share
    of a :func:`run_nw_blocked` trace of any size; every call returns a trace
    of its own, so a caller may mutate it.
    """
    width = block + 1
    profile = _nw_block_profile(block, layout, device.warp_size)
    return CudaTrace(blocks=1, threads_per_block=block, load_bytes=4.0 * width * width,
                     store_bytes=4.0 * block * block,
                     smem_profile=ConflictProfile().merge(profile))


@functools.lru_cache(maxsize=256)
def _nw_block_profile(block: int, layout: GroupBy | None, warp_size: int) -> ConflictProfile:
    """One block's shared-buffer conflict profile; callers copy it, never mutate it.

    The kernel's access schedule — three staging stores, then three loads and
    one store per anti-diagonal step — is mapped through the layout's
    permutation vector and logged on a trace, which cuts each access into
    warps of its own and scores them all in one flush.  Memoised because the
    tuner evaluates every ``(block, layout)`` once per device and sweep;
    :func:`nw_buffer_layout` hands out one layout object per name, which
    makes the object a stable key.
    """
    b, width = block, block + 1
    tx = np.arange(b)
    corner = np.zeros(1, dtype=np.int64)
    accesses = [(0 * tx, tx + 1), (tx + 1, 0 * tx), (corner, corner)]
    for step in _nw_steps(b):
        accesses += [(step.i_up, step.j_left), (step.i, step.j_left), (step.i_up, step.j),
                     (step.i, step.j)]
    table = None if layout is None else layout.permutation_vector()
    trace = CudaTrace()
    for i, j in accesses:
        cells = i * width + j
        trace.log_shared((cells if table is None else table[cells])[None, :], 4, warp_size)
    trace.flush()
    return trace.smem_profile


#: latency constants of the per-cell dependency chain (cycles) and the
#: back-to-back kernel launch overhead of the Rodinia host loop; see
#: :func:`nw_performance` for the model they parameterise.
_NW_DEPENDENCY_CYCLES = 100.0
_NW_SMEM_PASS_CYCLES = 8.0
_NW_SMEM_ACCESSES_PER_STEP = 5.0
_NW_LAUNCH_OVERHEAD_US = 2.0


def nw_performance(
    trace: CudaTrace,
    traced_config: NwConfig,
    target_config: NwConfig | None = None,
    device: DeviceSpec = A100_80GB,
) -> float:
    """Estimated end-to-end NW time from a trace of ``traced_config``.

    The trace is :func:`nw_block_trace`'s static one (one block) or a measured
    :func:`run_nw_blocked` one; only per-block quantities are read.

    The NW inner loop is *latency bound*: the cells of consecutive
    anti-diagonals depend on each other, so every one of the ``2b - 1`` steps
    pays the dependency latency plus one shared-memory pass per conflict
    replay.  The wavefront over blocks is sequential (one kernel launch per
    wave, as in the Rodinia host loop), while the blocks inside a wave run
    concurrently, so

    ``time = waves * (launch overhead + block critical path + wave DRAM time)``

    The trace's bank-conflict profile sets the number of shared-memory
    replays; its DRAM traffic (scaled to the target size) sets the
    per-wave memory time.  This is the mechanism behind Figure 12a: the
    anti-diagonal layout shortens the critical path, everything else is
    unchanged.
    """
    target = target_config or traced_config
    b = target.block
    waves = 2 * target.num_blocks - 1
    degree = trace.bank_conflict_factor

    steps = 2 * b - 1
    step_cycles = _NW_DEPENDENCY_CYCLES + _NW_SMEM_ACCESSES_PER_STEP * degree * _NW_SMEM_PASS_CYCLES
    block_critical_path = steps * step_cycles / (device.clock_ghz * 1e9)

    traced_blocks = traced_config.num_blocks * traced_config.num_blocks
    dram_bytes_per_block = trace.dram_bytes / max(1, traced_blocks)
    blocks_per_wave = max(1.0, target.num_blocks / 2.0)
    wave_dram_time = blocks_per_wave * dram_bytes_per_block / (device.dram_bandwidth_gbs * 1e9 * 0.7)

    # Once a wave holds more blocks than there are SMs, the blocks execute in
    # batches and the (conflict-dependent) critical path is paid per batch —
    # this is why the layout's benefit grows with the matrix size.
    batches = max(1.0, np.ceil(blocks_per_wave / device.num_sms))
    launch_overhead = _NW_LAUNCH_OVERHEAD_US * 1e-6
    return waves * (launch_overhead + batches * block_critical_path + wave_dram_time)


def nw_speedup(n: int, block: int = 16, penalty: int = 10) -> dict[str, float]:
    """Row-major vs anti-diagonal NW: times, conflict factors and speedup.

    The conflict profile and traffic are per-block quantities independent of
    the matrix size, so they come from :func:`nw_block_trace`; the time model
    is evaluated for the requested ``n``.
    """
    one_block = NwConfig(n=block, block=block, penalty=penalty)
    target_config = NwConfig(n=n, block=block, penalty=penalty)
    trace_row = nw_block_trace(block)
    trace_anti = nw_block_trace(block, nw_buffer_layout(block, "antidiagonal"))
    time_row = nw_performance(trace_row, one_block, target_config)
    time_anti = nw_performance(trace_anti, one_block, target_config)
    return {
        "n": n,
        "time_row_major": time_row,
        "time_antidiagonal": time_anti,
        "speedup": time_row / time_anti,
        "conflict_factor_row_major": trace_row.bank_conflict_factor,
        "conflict_factor_antidiagonal": trace_anti.bank_conflict_factor,
    }


def app_spec():
    """The NW :class:`~repro.apps.registry.AppSpec` for the autotuner.

    The space crosses the shared-buffer layout (anti-diagonal, row-cyclic
    skews, row- and column-major) with the block size.  Evaluation launches
    nothing: it derives one block's conflict profile and traffic from the
    layout (:func:`nw_block_trace`) and evaluates the latency model at the
    target size, exactly like :func:`nw_speedup`; the conflict factor rides
    along as a metric.  The paper's anti-diagonal layout is listed first so that
    other conflict-free candidates (skew 1) cannot win on an exact tie.
    """
    from ..tune.space import Choice, SearchSpace
    from .registry import AppSpec, register_app

    n = 4096
    space = SearchSpace(
        Choice("layout", NW_BUFFER_LAYOUTS),
        Choice("block", (16, 32, 8, 4)),
    )

    def evaluate(config, device=A100_80GB):
        block = config["block"]
        target = NwConfig(n=config.get("n", n), block=block)
        trace = nw_block_trace(block, nw_buffer_layout(block, config["layout"]), device)
        return {
            "time_seconds": nw_performance(trace, NwConfig(n=block, block=block), target,
                                           device=device),
            "conflict_factor": trace.bank_conflict_factor,
        }

    def generate(config):
        layout = nw_buffer_layout(config["block"], config["layout"])
        if layout is None or not any(
            isinstance(p, GenP) for ob in layout.order_bys for p in ob.perms
        ):
            return None  # affine layouts patch the original kernel without a wrapper
        from ..codegen import GeneratedKernel

        source = generate_accessor_wrapper("buff", layout, scalar_type="int")
        return GeneratedKernel(name=f"nw_buff_{config['layout']}", source=source, backend="cuda")

    return register_app(AppSpec(
        name="nw",
        backend="cuda",
        space=space,
        evaluate=evaluate,
        generate=generate,
        generate_params=("block", "layout"),
        reference=nw_check_reference,
        case=nw_case,
        paper_config={"layout": "antidiagonal", "block": 16},
        description="NW shared-buffer layout sweep (Figure 12a)",
    ))
