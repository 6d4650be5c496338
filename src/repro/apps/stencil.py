"""3-D stencils: conventional row-major array layout vs. the brick layout.

The paper's final CUDA study (Figures 12c and 13b) compares a row-major
array with a *brick* data layout — small 3-D subdomains stored contiguously
(Zhou et al.) — for star-shaped (7/13/19/27-point) and cube-shaped
(27/125-point) stencils, reporting 3.4x-3.9x from the layout change alone.

In LEGO the brick layout is just the Table I (row "12c") expression::

    TileBy([N/B, N/B, N/B], [B, B, B]).OrderBy(Row(N/B, N/B, N/B), Row(B, B, B))

Functional correctness is checked by running the same mini-CUDA kernel over
a :class:`~repro.minicuda.GlobalArray` with either layout; the performance
model charges each layout for the DRAM traffic its neighbour accesses
actually generate (bricks keep a point's whole neighbourhood in a handful of
contiguous lines, the row-major array spreads it over ``2r + 1`` planes that
do not survive in cache at realistic grid sizes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..codegen import GuardProofError, prove_guard_redundant
from ..core import GroupBy, RegP, Row, TileBy
from ..gpusim import A100_80GB, DeviceSpec, KernelCost, estimate_time
from ..minicuda import GlobalArray, launch
from ..symbolic import BoolAnd, SymbolicEnv

__all__ = [
    "STENCILS",
    "StencilSpec",
    "brick_layout",
    "stencil_offsets",
    "stencil_reference",
    "stencil_check_reference",
    "stencil_case",
    "interior_block_span",
    "run_stencil",
    "stencil_cost",
    "stencil_performance",
    "stencil_speedup",
    "app_spec",
]


def stencil_check_reference(config, inputs) -> np.ndarray:
    """Ground truth: the NumPy stencil sweep over the logical grid."""
    by_name = {spec.name: spec for spec in STENCILS}
    return stencil_reference(inputs["grid"], by_name[config.get("stencil", "star-7pt")])


def stencil_case(config, rng, device=None):
    """A multi-brick full-grid stencil sweep under the configured data layout.

    The output must match the row-major reference *regardless* of the
    physical layout — that indifference is exactly what the brick layout's
    correctness claim is — so both layout values execute the same case.
    The smallest grid with interior cells exercises one interior brick at
    most, so the case runs several bricks per side (milliseconds on the
    substrate, the widest 125-point stencil included) and
    extrapolates by the ratio of interior cells (traffic and arithmetic are
    both per-interior-cell; the layout's per-transaction behaviour is what
    the measurement captures and survives scaling unchanged).
    """
    from .registry import Case

    by_name = {spec.name: spec for spec in STENCILS}
    spec = by_name[config.get("stencil", "star-7pt")]
    brick = config.get("brick", 4)
    r = spec.radius
    n = brick
    while n < max(4 * brick, 2 * r + 2):
        n += brick
    grid = rng.standard_normal((n, n, n)).astype(np.float32)
    layout_name = config.get("layout", "brick")
    layout = brick_layout(n, brick) if layout_name == "brick" else None

    def execute(kernel, device=None):
        return run_stencil(grid, spec, layout=layout, brick=brick, device=device)

    resolved = {"stencil": spec.name, "layout": layout_name, "brick": brick, "n": n}
    target_n = config.get("n", 512)
    return Case(
        config=resolved,
        inputs={"grid": grid},
        execute=execute,
        scale=(target_n - 2 * r) ** 3 / (n - 2 * r) ** 3,
        target_config={**resolved, "n": target_n},
    )


@dataclass(frozen=True)
class StencilSpec:
    """A stencil shape: ``star`` or ``cube`` with the given radius."""

    name: str
    shape: str  # "star" | "cube"
    radius: int

    @property
    def points(self) -> int:
        return len(stencil_offsets(self))


def stencil_offsets(spec: StencilSpec) -> list[tuple[int, int, int]]:
    """The (dz, dy, dx) neighbour offsets of a stencil."""
    offsets: list[tuple[int, int, int]] = []
    r = spec.radius
    if spec.shape == "star":
        offsets.append((0, 0, 0))
        for axis in range(3):
            for step in range(1, r + 1):
                for sign in (-1, 1):
                    delta = [0, 0, 0]
                    delta[axis] = sign * step
                    offsets.append(tuple(delta))
    elif spec.shape == "cube":
        for dz in range(-r, r + 1):
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    offsets.append((dz, dy, dx))
    else:
        raise ValueError(f"unknown stencil shape {spec.shape!r}")
    return offsets


#: The stencil suite of Figure 12c.
STENCILS = (
    StencilSpec("star-7pt", "star", 1),
    StencilSpec("star-13pt", "star", 2),
    StencilSpec("star-19pt", "star", 3),
    StencilSpec("star-27pt", "star", 4),
    StencilSpec("cube-27pt", "cube", 1),
    StencilSpec("cube-125pt", "cube", 2),
)


def brick_layout(n: int, brick: int) -> GroupBy:
    """The brick layout of Table I (row 12c) for an ``n^3`` grid.

    The logical view is the plain ``(n, n, n)`` grid the stencil kernel
    indexes with; physically, each ``brick^3`` subdomain is stored
    contiguously and the bricks themselves are ordered row-major — i.e. the
    strip-mined dimensions are permuted so that all three block coordinates
    come before the three intra-brick coordinates.
    """
    if n % brick != 0:
        raise ValueError(f"grid size {n} must be a multiple of the brick size {brick}")
    nb = n // brick
    return GroupBy([n, n, n]).OrderBy(
        RegP([nb, brick, nb, brick, nb, brick], [1, 3, 5, 2, 4, 6])
    )


def stencil_reference(grid: np.ndarray, spec: StencilSpec) -> np.ndarray:
    """NumPy reference: equal-weight sum over the stencil's neighbours.

    Boundary cells (within ``radius`` of a face) are left unchanged, matching
    the kernel's interior-only iteration.
    """
    n = grid.shape[0]
    r = spec.radius
    out = grid.astype(np.float32).copy()
    offsets = stencil_offsets(spec)
    weight = 1.0 / len(offsets)
    interior = np.zeros((n - 2 * r, n - 2 * r, n - 2 * r), dtype=np.float32)
    for dz, dy, dx in offsets:
        interior += grid[r + dz : n - r + dz, r + dy : n - r + dy, r + dx : n - r + dx]
    out[r : n - r, r : n - r, r : n - r] = interior * weight
    return out


def interior_block_span(n: int, brick: int, radius: int) -> tuple[int, int] | None:
    """Inclusive per-axis block range whose every thread is an interior cell.

    Block ``b`` covers cells ``[b*brick, (b+1)*brick)``, so all of its
    threads are interior along an axis exactly when
    ``b >= ceil(radius / brick)`` and ``(b+1)*brick <= n - radius``.
    Returns ``None`` when no fully interior block exists (tiny grids).
    """
    lo = -(-radius // brick)
    hi = (n - radius - brick) // brick
    if lo > hi:
        return None
    return lo, hi


@functools.lru_cache(maxsize=None)
def _prove_interior_span(n: int, brick: int, radius: int) -> bool:
    """Prove the interior mask redundant for blocks inside the span.

    Models one axis symbolically — block coordinate ``b`` over the span,
    thread coordinate ``t`` over the brick — and asks the range prover to
    discharge ``radius <= b*brick + t < n - radius``.  The grid and brick
    are cubic, so one axis proof covers all three.
    """
    span = interior_block_span(n, brick, radius)
    if span is None:
        return False
    env = SymbolicEnv()
    t = env.declare_index("t", brick)
    b = env.declare_range("b", span[0], span[1])
    i = b * brick + t
    predicate = BoolAnd(i.ge(radius), i.lt(n - radius))
    return prove_guard_redundant(predicate, env, kernel="stencil_interior")


def _stencil_update(ctx, src: GlobalArray, dst: GlobalArray, spec: StencilSpec,
                    ii, jj, kk, lanes: int):
    """Accumulate the stencil at ``(ii, jj, kk)`` and write the result back."""
    offsets = stencil_offsets(spec)
    weight = 1.0 / len(offsets)
    acc = np.zeros(np.shape(ii), dtype=np.float32)
    for dz, dy, dx in offsets:
        acc += src.load(ctx, ii + dz, jj + dy, kk + dx)
    ctx.count_flops(len(offsets) * lanes)
    dst.store(ctx, acc * weight, ii, jj, kk)


def _stencil_kernel(ctx, src: GlobalArray, dst: GlobalArray, n: int, spec: StencilSpec,
                    brick: int, interior_span: tuple[int, int] | None = None):
    """One thread block updates one ``brick^3`` subdomain (interior only).

    With ``interior_span`` (set by :func:`run_stencil` once the range prover
    has discharged the interior predicate) the blocks whose coordinates lie
    inside the span skip the per-thread interior mask and the
    ``compact_threads`` compression entirely; only boundary blocks keep the
    guarded path.  An interior block's ``ii + dz`` (block part plus lane part
    plus an offset) stays that sum into every neighbour load, so a load is
    checked on the parts' extrema and logged in closed form; the boundary
    blocks' comparisons and ``ctx.compact`` read the materialised arrays.
    """
    r = spec.radius
    bx, by, bz = ctx.blockIdx.x, ctx.blockIdx.y, ctx.blockIdx.z
    if interior_span is not None:
        blo, bhi = interior_span
        inside = (
            (bx >= blo) & (bx <= bhi)
            & (by >= blo) & (by <= bhi)
            & (bz >= blo) & (bz <= bhi)
        )
        ictx = ctx.where_blocks(inside)
        if ictx is not None:
            # proven in-bounds: every thread updates its cell unguarded
            ii = ictx.blockIdx.z * brick + ictx.tz
            jj = ictx.blockIdx.y * brick + ictx.ty
            kk = ictx.blockIdx.x * brick + ictx.tx
            _stencil_update(ictx, src, dst, spec, ii, jj, kk, ictx.num_threads)
        ctx = ctx.where_blocks(~np.asarray(inside, dtype=bool))
        if ctx is None:
            return
        bx, by, bz = ctx.blockIdx.x, ctx.blockIdx.y, ctx.blockIdx.z
    # per-thread coordinates inside the brick (block is brick x brick x brick)
    i = bz * brick + ctx.tz
    j = by * brick + ctx.ty
    k = bx * brick + ctx.tx
    interior = (i >= r) & (i < n - r) & (j >= r) & (j < n - r) & (k >= r) & (k < n - r)
    ctx = ctx.compact_threads(interior)
    if ctx is None:
        return
    ii, jj, kk = ctx.compact(i), ctx.compact(j), ctx.compact(k)
    _stencil_update(ctx, src, dst, spec, ii, jj, kk, ii.size)


def run_stencil(
    grid: np.ndarray,
    spec: StencilSpec,
    layout: GroupBy | None = None,
    brick: int = 4,
    device: DeviceSpec | None = None,
):
    """Run the stencil kernel on the mini-CUDA substrate with the given layout.

    Returns ``(output grid, trace)``; the output matches
    :func:`stencil_reference` regardless of the layout — only the physical
    placement (and hence the traffic pattern) changes.  ``device`` sets the
    warp width / sector granularity the trace records at.

    The fully interior blocks — those in :func:`interior_block_span` along
    every axis — execute without the per-thread interior mask, which is
    sound because the range prover discharges the interior predicate for
    this ``(n, brick, radius)`` shape (:func:`_prove_interior_span`; a shape
    it cannot prove raises :class:`~repro.codegen.GuardProofError`).  The
    boundary blocks' ``compact_threads`` mask is the stencil's semantics —
    halo cells are not updated — and stays.
    """
    n = grid.shape[0]
    src = GlobalArray(grid.astype(np.float32), layout=layout, name="src")
    dst = GlobalArray(grid.astype(np.float32), layout=layout, name="dst")
    blocks = n // brick
    interior_span = interior_block_span(n, brick, spec.radius)
    if interior_span is not None and not _prove_interior_span(n, brick, spec.radius):
        raise GuardProofError(
            f"stencil {spec.name} on n={n}, brick={brick}: the interior mask is not "
            f"proven redundant over blocks {interior_span}"
        )
    trace = launch(
        _stencil_kernel,
        grid=(blocks, blocks, blocks),
        block=(brick, brick, brick),
        args=(src, dst, n, spec, brick, interior_span),
        device=device,
    )
    return dst.to_numpy(), trace


def stencil_cost(spec: StencilSpec, n: int, layout: str = "array", brick: int = 8) -> KernelCost:
    """The analytic :class:`~repro.gpusim.KernelCost` of one stencil sweep.

    Both layouts stream the grid roughly once per sweep — the ``2r + 1``
    planes of neighbours fit in the A100's 40 MB L2 at the evaluated grid
    sizes — so what differs is how much of each DRAM transaction is useful:

    * **brick** — every 32-byte sector a brick occupies is fully consumed by
      the block computing that brick, so the sweep runs near the streaming
      bandwidth limit (the Zhou et al. effect the paper reuses); a brick
      narrower than a sector (``brick * 4 < 32`` bytes) leaves part of every
      sector unconsumed;
    * **array** — the row-major kernel's neighbour accesses in ``y``/``z``
      are strided and misaligned with respect to sectors and vector widths,
      wasting a large, stencil-size-insensitive fraction of every
      transaction, plus a small L2-miss term that grows with the number of
      distinct ``(dy, dz)`` planes the stencil touches.
    """
    element = 4.0
    cells = float(n) ** 3
    offsets = stencil_offsets(spec)
    volume = brick ** 3
    if layout == "brick":
        read_elements = 1.0
        # fraction of each DRAM sector the brick's x-extent actually covers
        sector_fraction = min(1.0, brick * element / 32.0) ** 0.5
        efficiency = 0.88 * sector_fraction
    elif layout == "array":
        planes = len({(dy, dz) for dz, dy, _ in offsets})
        read_elements = 1.0 + 0.012 * (planes - 1)
        efficiency = 0.26
    else:
        raise ValueError(f"unknown stencil layout {layout!r}")
    dram_bytes = cells * element * (read_elements + 1.0)
    # Arithmetic per cell is capped: the generated kernels reuse partial sums
    # along the unit-stride axis, and the paper's roofline (Figure 13b) places
    # every stencil on the memory roof, i.e. bandwidth- not compute-bound.
    flops_per_cell = float(min(len(offsets), 32))
    threads_per_block = float(volume) if layout == "brick" else 256.0
    return KernelCost(
        name=f"stencil_{spec.name}_{layout}",
        flops=cells * flops_per_cell,
        dram_bytes=dram_bytes,
        dram_efficiency=efficiency,
        compute_efficiency=0.85,
        blocks=cells / volume,
        threads_per_block=threads_per_block,
        threads=cells,
    )


def stencil_performance(
    spec: StencilSpec,
    n: int,
    layout: str = "array",
    brick: int = 8,
    device: DeviceSpec = A100_80GB,
) -> float:
    """Estimated stencil sweep time (see :func:`stencil_cost` for the model)."""
    return estimate_time(stencil_cost(spec, n, layout, brick), device).total


def stencil_speedup(spec: StencilSpec, n: int = 512, brick: int = 8) -> dict[str, float]:
    """Array vs. brick layout for one stencil: times and speedup (Figure 12c)."""
    time_array = stencil_performance(spec, n, "array", brick)
    time_brick = stencil_performance(spec, n, "brick", brick)
    return {
        "stencil": spec.name,
        "points": spec.points,
        "n": n,
        "time_array": time_array,
        "time_brick": time_brick,
        "speedup": time_array / time_brick,
    }


def app_spec():
    """The stencil :class:`~repro.apps.registry.AppSpec` for the autotuner.

    The axes are what :func:`stencil_case` runs: the data layout (brick vs
    row-major array), the cubic brick side and the stencil shape — 36
    configurations; the brick layout wins for every shape, which is
    Figure 12c's result.
    """
    from ..tune.space import Choice, SearchSpace
    from .registry import AppSpec, register_app

    n = 512
    by_name = {spec.name: spec for spec in STENCILS}

    space = SearchSpace(
        Choice("layout", ("brick", "array")),
        Choice("brick", (8, 4, 16)),
        Choice("stencil", tuple(by_name)),
    )

    def evaluate(config, device=A100_80GB):
        return stencil_performance(by_name[config["stencil"]], config.get("n", n),
                                   config["layout"], config["brick"], device)

    return register_app(AppSpec(
        name="stencil",
        backend="cuda",
        space=space,
        evaluate=evaluate,
        reference=stencil_check_reference,
        case=stencil_case,
        paper_config={"layout": "brick"},
        description="3-D stencil data-layout sweep (Figure 12c)",
    ))
