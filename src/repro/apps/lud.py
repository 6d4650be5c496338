"""LU decomposition (Rodinia LUD) with thread coarsening as a layout.

Rodinia's LUD factors an ``n x n`` matrix in ``B x B`` blocks: for each step
``k`` a *diagonal* kernel factors block ``(k, k)``, a *perimeter* kernel
updates the row and column panels, and an *internal* kernel updates the
trailing submatrix.  The paper re-imagines thread coarsening as a LEGO
thread-block layout (Table I, row "12b"): the logical LUD block of size
``B x B`` is tiled as ``GroupBy([R, R], [T, T]).OrderBy(Row(R*T, R*T))``
where ``T x T`` is the CUDA block and ``R`` the per-thread coarsening
factor, so the same kernel body serves every configuration.

Figure 12b's result: the best configuration uses an LUD block of ``64`` with
coarsening ``4`` (CUDA block fixed at ``16 x 16``), because larger blocks
move less data per step and expose enough work per thread block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen import CodegenContext, CudaKernel, GuardProofError, KernelFamily, get_backend, note_static_proof
from ..core import GroupBy, Row
from ..gpusim import A100_80GB, DeviceSpec
from ..minicuda import GlobalArray, launch
from ..symbolic import Var, affine_strides, is_mixed_radix_bijection
from ..vm import engine

__all__ = [
    "LudConfig",
    "coarsened_thread_layout",
    "LUD_INTERNAL_TEMPLATE",
    "generate_lud_internal_kernel",
    "lud_reference",
    "lud_blocked",
    "lud_check_reference",
    "lud_case",
    "run_lud_internal",
    "check_element_offsets",
    "prove_element_offset_bijection",
    "assert_element_offset_bijection",
    "lud_performance_vectorized",
    "lud_configurations",
    "app_spec",
]


@dataclass(frozen=True)
class LudConfig:
    """One LUD configuration: matrix size, LUD block size and CUDA block side."""

    n: int
    block: int = 16
    cuda_block: int = 16

    def __post_init__(self):
        if self.n % self.block != 0:
            raise ValueError(f"matrix size {self.n} must be a multiple of the block {self.block}")
        if self.block % self.cuda_block != 0:
            raise ValueError(
                f"LUD block {self.block} must be a multiple of the CUDA block {self.cuda_block}"
            )

    @property
    def coarsening(self) -> int:
        """Elements computed per thread along each dimension."""
        return self.block // self.cuda_block

    @property
    def num_blocks(self) -> int:
        return self.n // self.block


def coarsened_thread_layout(block: int, cuda_block: int) -> GroupBy:
    """The Table I thread layout: ``GroupBy([R, R], [T, T]).OrderBy(Row(R*T, R*T))``.

    Logical coordinates are ``(r_i, r_j, t_i, t_j)`` — which of the ``R x R``
    coarsening repetitions a thread is handling and the thread's position in
    the ``T x T`` CUDA block; ``apply`` gives the element of the LUD block it
    owns, laid out row-major over the full ``(R*T) x (R*T)`` block.
    """
    coarsening = block // cuda_block
    return GroupBy([coarsening, coarsening], [cuda_block, cuda_block]).OrderBy(Row(block, block))


LUD_INTERNAL_TEMPLATE = """\
__global__ void lud_internal(float *m, int matrix_dim, int offset)
{{
    __shared__ float peri_row[{B}][{B}];
    __shared__ float peri_col[{B}][{B}];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    // LEGO thread layout: each thread owns {R}x{R} elements of the {B}x{B} block
    for (int r_i = 0; r_i < {R}; ++r_i)
      for (int r_j = 0; r_j < {R}; ++r_j) {{
        int element = {{{{ element_offset }}}};
        int i = element / {B};
        int j = element % {B};
        float sum = 0.0f;
        for (int k = 0; k < {B}; ++k)
            sum += peri_col[i][k] * peri_row[k][j];
        m[(offset + blockIdx.y * {B} + i) * matrix_dim + offset + blockIdx.x * {B} + j] -= sum;
      }}
}}
"""


def generate_lud_internal_kernel(config: LudConfig) -> CudaKernel:
    """Instantiate the internal-kernel template for one coarsening configuration.

    The only generated expression is the element offset each thread derives
    from the coarsened thread layout; the kernel body is otherwise identical
    across configurations (coarsening is "just a layout"): it is lowered and
    proven in bounds once, in ``R`` and ``T`` (:class:`~repro.codegen.KernelFamily`).
    """
    lowered = KernelFamily.of(_lud_internal_context).specialise(R=config.coarsening, T=config.cuda_block)
    template = LUD_INTERNAL_TEMPLATE.format(B=config.block, R=config.coarsening)
    return get_backend("cuda").generate(f"lud_internal_b{config.block}", template, lowered)


def _lud_internal_context() -> CodegenContext:
    coarsening, cuda_block = Var("R"), Var("T")
    r_i, r_j, tx, ty = Var("r_i"), Var("r_j"), Var("tx"), Var("ty")
    ctx = CodegenContext(name="lud_internal")
    ctx.size(coarsening, cuda_block)
    ctx.index(r_i, coarsening)
    ctx.index(r_j, coarsening)
    ctx.index(tx, cuda_block)
    ctx.index(ty, cuda_block)
    block = coarsening * cuda_block
    ctx.bind("element_offset", coarsened_thread_layout(block, cuda_block).apply(r_i, r_j, ty, tx))
    ctx.require_in_bounds("element_offset", 0, block * block - 1)
    return ctx


def lud_reference(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked Doolittle LU decomposition (no pivoting); returns ``(L, U)``."""
    a = matrix.astype(np.float64).copy()
    n = a.shape[0]
    lower = np.eye(n)
    for k in range(n):
        lower[k + 1 :, k] = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(lower[k + 1 :, k], a[k, k:])
        a[k + 1 :, k] = 0.0
    return lower, a


def lud_blocked(matrix: np.ndarray, block: int) -> np.ndarray:
    """Blocked in-place LUD mirroring the Rodinia kernel structure.

    The result stores ``L`` (unit diagonal implied) below the diagonal and
    ``U`` on/above it, exactly like the Rodinia output, so correctness can be
    checked as ``L @ U == A``.  The per-step phases correspond to the
    diagonal / perimeter / internal kernels.
    """
    a = matrix.astype(np.float64).copy()
    n = a.shape[0]
    if n % block != 0:
        raise ValueError("matrix size must be a multiple of the block size")
    for start in range(0, n, block):
        end = start + block
        # diagonal kernel: factor the diagonal block
        for k in range(start, end):
            a[k + 1 : end, k] /= a[k, k]
            a[k + 1 : end, k + 1 : end] -= np.outer(a[k + 1 : end, k], a[k, k + 1 : end])
        if end == n:
            break
        diag = a[start:end, start:end]
        lower = np.tril(diag, -1) + np.eye(block)
        upper = np.triu(diag)
        # perimeter kernel: update the row panel and the column panel
        a[start:end, end:] = np.linalg.solve(lower, a[start:end, end:])
        a[end:, start:end] = np.linalg.solve(upper.T, a[end:, start:end].T).T
        # internal kernel: rank-`block` update of the trailing submatrix
        a[end:, end:] -= a[end:, start:end] @ a[start:end, end:]
    return a


def check_element_offsets(kernel, config: LudConfig) -> None:
    """Enumerate the kernel's generated ``element_offset`` over its block.

    The oracle ``python -m repro.symbolic.bench`` and the tests cross-check
    the static proof (:func:`prove_element_offset_bijection`) against;
    nothing on the check or tuning path calls it.  Evaluates the lowered
    index expression
    (:meth:`~repro.codegen.backend.GeneratedKernel.evaluate_bindings`) for
    every ``(r_i, r_j, ty, tx)`` a thread block enumerates and asserts the
    offsets are a bijection onto the ``B x B`` elements: the internal kernel
    computes each owned element correctly *by construction*, so a coarsening
    layout is semantically right exactly when no element is skipped or
    written twice.  Raises ``ValueError`` on violation.
    """
    if "element_offset" not in kernel.bindings:
        raise ValueError(f"kernel {kernel.name!r} has no element_offset binding to check")
    t, r, b = config.cuda_block, config.coarsening, config.block
    offsets = np.fromiter(
        (
            kernel.evaluate_bindings({"r_i": r_i, "r_j": r_j, "ty": ty, "tx": tx})["element_offset"]
            for r_i in range(r)
            for r_j in range(r)
            for ty in range(t)
            for tx in range(t)
        ),
        dtype=np.int64,
        count=r * r * t * t,
    )
    if not np.array_equal(np.sort(offsets), np.arange(b * b)):
        raise ValueError(
            f"element_offset of {kernel.name!r} is not a bijection onto the "
            f"{b}x{b} block: covered {np.unique(offsets).size}/{b * b} elements"
        )


def prove_element_offset_bijection(kernel, config: LudConfig) -> bool | None:
    """Statically decide whether ``element_offset`` is a bijection onto the block.

    Decomposes the lowered expression into ``const + Σ stride · index`` over
    the coarsened-layout coordinates and checks that the strides form a
    permuted mixed-radix basis for the ``B x B`` extent
    (:func:`~repro.symbolic.is_mixed_radix_bijection`).  Returns ``True`` /
    ``False`` on a definitive structural verdict and ``None`` when the
    expression is not affine in the thread coordinates (e.g. a swizzled
    layout lowered through ``%``).
    """
    binding = kernel.bindings.get("element_offset")
    if binding is None:
        raise ValueError(f"kernel {kernel.name!r} has no element_offset binding to check")
    t, r, b = config.cuda_block, config.coarsening, config.block
    extents = {"r_i": r, "r_j": r, "ty": t, "tx": t}
    decomposed = affine_strides(binding.expr, tuple(extents))
    if decomposed is None:
        return None
    const, strides = decomposed
    pairs = [(strides.get(name, 0), extent) for name, extent in extents.items()]
    return is_mixed_radix_bijection(const, pairs, b * b)


def assert_element_offset_bijection(kernel, config: LudConfig) -> None:
    """Discharge the bijectivity obligation with the static mixed-radix proof.

    The proof covers every affine coarsening layout — the entire tuned LUD
    search space — so the hot path (one call per generated configuration
    during search and verification) never enumerates ``B^2`` index
    combinations.  Raises ``ValueError`` when the layout provably skips or
    doubles an element and :class:`~repro.codegen.GuardProofError` when the
    proof abstains (a non-affine layout): an unproven layout is refused, not
    enumerated.
    """
    verdict = prove_element_offset_bijection(kernel, config)
    b = config.block
    if verdict is None:
        raise GuardProofError(
            f"element_offset of {kernel.name!r} is not affine in the thread "
            f"coordinates: bijectivity onto the {b}x{b} block is not proven"
        )
    note_static_proof()
    if not verdict:
        raise ValueError(
            f"element_offset of {kernel.name!r} is not a bijection onto the "
            f"{b}x{b} block: strides are not a permuted mixed-radix basis"
        )


def lud_check_reference(config, inputs) -> np.ndarray:
    """Ground truth of one internal wave: the trailing update ``A22 - A21 @ A12``."""
    b = config["block"]
    out = np.asarray(inputs["matrix"]).astype(np.float64)
    out[b:, b:] -= out[b:, :b] @ out[:b, b:]
    return out


def _lud_internal_block_kernel(ctx, m: GlobalArray, offset: int, block: int):
    """One internal-kernel thread block on the mini-CUDA substrate.

    Mirrors :data:`LUD_INTERNAL_TEMPLATE`: the block stages its two
    perimeter panels into shared memory and each thread computes the
    ``R x R`` elements the coarsened thread layout assigns it
    (``i = r_i * T + ty``, ``j = r_j * T + tx`` — exactly the
    ``element_offset`` expression the generator derives from
    ``GroupBy([R, R], [T, T]).OrderBy(Row(B, B))``).  A thread's ``R x R``
    fragments are one access shifted by ``(r_i * T, r_j * T)``: each panel's
    staging loads and the read-modify-write go out as one grouped access
    (:meth:`~repro.minicuda.GlobalArray.load_rows`), recorded as the
    separate accesses they stand for.  The inner product is register-blocked
    the way the coarsened CUDA kernel is: per ``k`` each thread loads its
    ``R`` panel fragments once and reuses them across the ``R x R``
    accumulators, which is why coarsening divides the shared-memory traffic
    per flop — the mechanism behind Figure 12b that a measured profile must
    reproduce.  The fragment loads of consecutive ``k`` are the ``R``
    fragment patterns shifted by ``k``, one
    :meth:`~repro.minicuda.SharedArray.load_rows` per slab of lanes
    (:data:`repro.vm.engine.SLAB_ELEMENTS` over the pass's blocks); the
    ``R x R`` accumulators update as one array, each element still summing
    in ``k`` order, so every output bit is that of one multiply-add at a time.
    """
    b = block
    t = ctx.blockDim.x
    r = b // t
    peri_row = ctx.shared_array((b, b), dtype=np.float32, name="peri_row")
    peri_col = ctx.shared_array((b, b), dtype=np.float32, name="peri_col")
    tx, ty = ctx.tx, ctx.ty
    row0 = offset + (ctx.blockIdx.y + 1) * b
    col0 = offset + (ctx.blockIdx.x + 1) * b
    # fragment r_i * R + r_j of a thread is element (r_i * T + ty, r_j * T + tx)
    steps = np.arange(r) * t
    fragment_shifts = np.stack((np.repeat(steps, r), np.tile(steps, r)))
    # stage the panels: each thread loads its R x R elements of each
    staged_row = m.load_rows(ctx, offset + ty, col0 + tx, shifts=fragment_shifts)
    staged_col = m.load_rows(ctx, row0 + ty, offset + tx, shifts=fragment_shifts)
    for fragment, (di, dj) in enumerate(fragment_shifts.T.tolist()):
        i, j = ty + di, tx + dj
        peri_row.store(staged_row[..., fragment, :], i, j)
        peri_col.store(staged_col[..., fragment, :], i, j)
    ctx.syncthreads()
    lanes = tx.size
    # accumulator [r_i, r_j] of every thread; it widens to one per block of the pass
    accumulators = np.zeros((r, r, lanes), dtype=np.float32)
    # the k-loop's fragment loads go out a slab of lanes at a time: row
    # ``kk * R + r_i`` of a group is fragment pattern ``r_i`` shifted by its kk-th k
    fragments = steps[:, None]
    col_i, row_j = fragments + ty, fragments + tx
    group = max(1, engine.SLAB_ELEMENTS // (peri_col.batch * r * lanes))
    for k0 in range(0, b, group):
        ks = np.arange(k0, min(k0 + group, b))
        still = np.zeros_like(ks)
        shape = (-1, ks.size, r, lanes)
        col_group = peri_col.load_rows(col_i, 0, shifts=(still, ks)).reshape(shape)
        row_group = peri_row.load_rows(0, row_j, shifts=(ks, still)).reshape(shape)
        for kk in range(ks.size):
            # every [r_i, r_j] at once: each element still adds col * row in k order
            accumulators = (accumulators
                            + col_group[:, kk, :, None] * row_group[:, kk, None, :])
        ctx.count_flops(2 * r * r * lanes * ks.size)
    ctx.syncthreads()
    value = (m.load_rows(ctx, row0 + ty, col0 + tx, shifts=fragment_shifts)
             - accumulators.reshape(accumulators.shape[:-3] + (r * r, lanes)))
    m.store_rows(ctx, value, row0 + ty, col0 + tx, shifts=fragment_shifts)


def run_lud_internal(matrix: np.ndarray, config: LudConfig, step: int = 0,
                     device: DeviceSpec = A100_80GB):
    """Run one wave of internal-kernel blocks over the trailing submatrix.

    ``matrix`` holds the in-progress factorisation with step ``step``'s
    diagonal and perimeter phases already applied; the launch updates every
    trailing block of that step (``(nb - step - 1)^2`` thread blocks of
    ``cuda_block^2`` threads), returning ``(updated matrix, trace)``.  This
    is the measured counterpart of the internal-kernel term of
    :func:`lud_performance_vectorized` — the phase that dominates end-to-end
    LUD time.
    """
    trailing = config.num_blocks - step - 1
    if trailing < 1:
        raise ValueError(f"step {step} of a {config.num_blocks}-block LUD has no trailing blocks")
    static_smem = 2 * config.block * config.block * 4
    if static_smem > device.max_static_smem_bytes:
        # the CUDA kernel declares both panels as static __shared__ arrays,
        # which caps the LUD block well below the SM's physical capacity
        raise ValueError(
            f"LUD block {config.block} needs {static_smem} bytes of static shared "
            f"memory, over the {device.max_static_smem_bytes}-byte launch limit"
        )
    gmem = GlobalArray(matrix.astype(np.float32), name="m")
    trace = launch(
        _lud_internal_block_kernel,
        grid=(trailing, trailing),
        block=(config.cuda_block, config.cuda_block),
        args=(gmem, step * config.block, config.block),
        device=device,
    )
    return gmem.to_numpy(), trace


def lud_case(config, rng, device=None):
    """One internal wave of a coarsening configuration, plus extrapolation.

    Executes the first step's internal kernel on a two-block problem (one
    trailing block) on mini-CUDA; the updated matrix must equal the NumPy
    trailing update, and the generated coarsened-thread-layout expression
    must enumerate the block bijectively — discharged statically by the
    mixed-radix stride proof (:func:`assert_element_offset_bijection`).
    The measured block extrapolates to the full factorisation: the
    internal kernel launches ``(nb - k - 1)^2`` blocks at step ``k``, so
    the per-block measurement scales by ``sum of squares``; the host loop
    launches the diagonal, perimeter and internal kernels once per step.
    Per-block intensive properties — shared-memory traffic per flop (the
    register-blocking effect of coarsening), bank conflicts, coalescing —
    are what the measurement contributes.  Configurations whose two static
    ``__shared__`` panels exceed ``device.max_static_smem_bytes`` select
    nothing executable (see :func:`run_lud_internal`).
    """
    from .registry import Case

    block = config.get("block", 16)
    cuda_block = config.get("cuda_block", 16)
    target_n = config.get("n", 2048)
    device = device or A100_80GB
    if 2 * block * block * 4 > device.max_static_smem_bytes:
        return None  # static __shared__ panels would not launch (see run_lud_internal)
    cfg = LudConfig(n=2 * block, block=block, cuda_block=cuda_block)
    matrix = (rng.standard_normal((cfg.n, cfg.n)) + cfg.n * np.eye(cfg.n)).astype(np.float32)

    def execute(kernel, device=None):
        if kernel is not None and kernel.bindings:
            # cache-restored kernels carry no live expression nodes; the
            # wave-vs-reference comparison still applies
            assert_element_offset_bijection(kernel, cfg)
        return run_lud_internal(matrix, cfg, step=0, device=device or A100_80GB)

    target_blocks = target_n // block
    return Case(
        config={"n": cfg.n, "block": block, "cuda_block": cuda_block},
        inputs={"matrix": matrix},
        execute=execute,
        scale=float(sum(j * j for j in range(1, target_blocks))),
        launches=3 * target_blocks,
        target_config={"n": target_n, "block": block, "cuda_block": cuda_block},
    )


def lud_configurations(n: int) -> list[LudConfig]:
    """The Figure 12b configuration sweep: LUD blocks 16/32/64, CUDA block 16."""
    return [LudConfig(n=n, block=b, cuda_block=16) for b in (16, 32, 64)]


def lud_performance_vectorized(config: LudConfig, device: DeviceSpec = A100_80GB) -> float:
    """Estimated end-to-end LUD time for one (block, coarsening) configuration.

    The internal kernel dominates: for step ``k`` it launches
    ``(nb - k - 1)^2`` thread blocks, each reading its two perimeter panels
    plus its own block and performing ``2 B^3`` flops.  Larger LUD blocks
    mean fewer steps (fewer kernel launches), less repeated panel traffic and
    more work per thread block — but need coarsening to stay within the CUDA
    block limit, which is exactly the Figure 12b trade-off.  Every step's
    roofline (:func:`~repro.gpusim.estimate_time`'s costs, occupancy formula
    and launch overheads) is evaluated as one NumPy sweep over the ``nb``
    steps; a per-step loop kept in the tests pins it to roundoff.  Returns
    the total in seconds.
    """
    block, tpb = config.block, config.cuda_block * config.cuda_block
    nb = config.num_blocks
    element = 4.0
    launch_overhead = device.launch_overhead_us * 1e-6
    smem_per_block = 2.0 * block * block * element

    # occupancy_factor()'s per-SM terms are the same for every step
    resident = max(1, int(device.max_threads_per_sm // max(tpb, 1)))
    resident = min(resident, device.max_blocks_per_sm)
    resident = min(resident, max(1, int(device.smem_per_sm_bytes // smem_per_block)))
    warps = resident * tpb / device.warp_size
    hiding = min(1.0, resident / 4.0, warps / 16.0)

    def busy(flops, dram_bytes, compute_eff, dram_eff, blocks):
        compute = flops / (device.peak_flops("fp32") * compute_eff * 1e9)
        dram = dram_bytes / (device.dram_bandwidth_gbs * 1e9 * dram_eff)
        l2 = dram_bytes / (device.l2_bandwidth_gbs * 1e9)
        wave = np.minimum(1.0, blocks / device.num_sms)
        occupancy = np.maximum(0.05, wave * (0.5 + 0.5 * hiding))
        return np.maximum(compute, np.maximum(dram, l2)) / occupancy

    trailing = nb - 1 - np.arange(nb, dtype=np.float64)
    perim_blocks = np.maximum(1.0, 2.0 * trailing)
    perim_bytes = element * (2.0 * trailing + 1.0) * block * block * 3.0
    perim_flops = (2.0 * trailing + 1.0) * float(block) ** 3
    total = float(np.sum(
        busy(perim_flops, perim_bytes, 0.85, 0.85, perim_blocks)
    )) + nb * 3 * launch_overhead

    inner = trailing[trailing > 0]
    internal_blocks = inner * inner
    internal_bytes = element * internal_blocks * (3.0 * block * block)
    internal_flops = 2.0 * internal_blocks * float(block) ** 3
    internal_busy = busy(internal_flops, internal_bytes, 0.6, 0.85, internal_blocks)
    # an internal step pays estimate_time's own launch overhead plus one
    # host-side overhead (and a perimeter step two, folded above)
    total += float(np.sum(internal_busy)) + inner.size * 2 * launch_overhead
    return total


def app_spec():
    """The LUD :class:`~repro.apps.registry.AppSpec` for the autotuner.

    Thread coarsening is "just a layout" here, so the space is the cross of
    LUD block sizes and CUDA block sides (coarsening is their ratio) with the
    divisibility constraints ``LudConfig`` enforces.  The paper's winner —
    LUD block 64, CUDA block 16x16, coarsening 4 (Figure 12b) — leads each
    axis so exact performance-model ties resolve toward it; near-ties are
    further broken by the GPU-weighted op count of the generated
    ``element_offset`` expression.
    """
    from ..tune.space import Choice, SearchSpace
    from .registry import AppSpec, register_app

    n = 2048

    space = SearchSpace(
        Choice("block", (64, 16, 32, 8, 128, 256)),
        Choice("cuda_block", (16, 4, 8, 32, 2)),
        constraint=lambda c: c["block"] % c["cuda_block"] == 0 and n % c["block"] == 0,
    )

    def config_of(config) -> LudConfig:
        # the figure harnesses may override the problem size per sweep
        return LudConfig(n=config.get("n", n), block=config["block"], cuda_block=config["cuda_block"])

    def evaluate(config, device=A100_80GB):
        return lud_performance_vectorized(config_of(config), device)

    return register_app(AppSpec(
        name="lud",
        backend="cuda",
        space=space,
        evaluate=evaluate,
        generate=lambda config: generate_lud_internal_kernel(config_of(config)),
        generate_params=("n", "block", "cuda_block"),
        reference=lud_check_reference,
        case=lud_case,
        paper_config={"block": 64, "cuda_block": 16},
        description="LUD thread-coarsening-as-layout sweep (Figure 12b)",
    ))
