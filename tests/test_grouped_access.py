"""Grouped mini-CUDA accesses: many rows in one call, logged as the separate accesses.

``GlobalArray.load_rows`` / ``store_rows`` issue row ``q`` at ``indices +
shifts[:, q]``; ``SharedArray.load_rows(..., shifts=)`` issues every pattern at
every shift and scores each pattern once per shift residue class
(``AccessLog.log_shared_affine``).  Every test here holds a grouped access to
the same rows issued one call each: the same values, the same last writer,
every trace counter (the bank-conflict histogram included) and the same
errors, whether the index keeps its ``block + lane`` split or is dense.  The
LUD internal kernel and the stencil, which issue their fragments and
neighbours that way, are held to their per-fragment and per-offset forms,
kept here as the oracles.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import lud, stencil
from repro.core import GroupBy, antidiagonal
from repro.gpusim import A100_80GB
from repro.gpusim.device import DEVICE_ZOO
from repro.gpusim.sharedmem import AccessLog
from repro.minicuda import GlobalArray, launch
from repro.vm import engine

#: the zoo, then the warp and sector sizes it does not have
DEVICES = list(DEVICE_ZOO.values()) + [
    replace(A100_80GB, warp_size=warp, dram_sector_bytes=sector)
    for warp, sector in ((16, 32), (64, 64), (16, 64))]


def _counters(trace) -> dict:
    return dataclasses.asdict(trace)


@pytest.fixture
def reissued(monkeypatch):
    """Counts the single-row global accesses: a grouped access that keeps its split
    issues none."""
    calls = []
    for name in ("load", "store"):
        method = getattr(GlobalArray, name)

        def counted(self, *args, _method=method, **kwargs):
            calls.append(1)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(GlobalArray, name, counted)
    return calls


# -- LUD: grouped fragments against the per-fragment kernel ------------------------------


def _per_fragment_kernel(ctx, m, offset, block):
    """The LUD internal kernel as it issued its fragments before grouping: one global
    access per fragment and panel, one shared row per fragment and k."""
    b = block
    t = ctx.blockDim.x
    r = b // t
    peri_row = ctx.shared_array((b, b), dtype=np.float32, name="peri_row")
    peri_col = ctx.shared_array((b, b), dtype=np.float32, name="peri_col")
    tx, ty = ctx.tx, ctx.ty
    row0 = offset + (ctx.blockIdx.y + 1) * b
    col0 = offset + (ctx.blockIdx.x + 1) * b
    for r_i in range(r):
        for r_j in range(r):
            i = r_i * t + ty
            j = r_j * t + tx
            peri_row.store(m.load(ctx, offset + i, col0 + j), i, j)
            peri_col.store(m.load(ctx, row0 + i, offset + j), i, j)
    lanes = tx.size
    accumulators = np.zeros((r, r, lanes), dtype=np.float32)
    fragments = np.arange(r)[:, None] * t
    col_i, row_j = fragments + ty, fragments + tx
    group = max(1, engine.SLAB_ELEMENTS // (peri_col.batch * r * lanes))
    for k0 in range(0, b, group):
        ks = np.arange(k0, min(k0 + group, b))
        k_rows = np.repeat(ks, r)[:, None]
        shape = (-1, ks.size, r, lanes)
        col_group = peri_col.load_rows(np.tile(col_i, (ks.size, 1)), k_rows).reshape(shape)
        row_group = peri_row.load_rows(k_rows, np.tile(row_j, (ks.size, 1))).reshape(shape)
        for kk in range(ks.size):
            accumulators = (accumulators
                            + col_group[:, kk, :, None] * row_group[:, kk, None, :])
        ctx.count_flops(2 * r * r * lanes * ks.size)
    for r_i in range(r):
        for r_j in range(r):
            i = r_i * t + ty
            j = r_j * t + tx
            value = m.load(ctx, row0 + i, col0 + j) - accumulators[..., r_i, r_j, :]
            m.store(ctx, value, row0 + i, col0 + j)


def _lud_shapes():
    """The 27 shapes of LUD's search space (blocks 128 and 256 are refused at launch)."""
    space = lud.app_spec().space
    return sorted({(config["block"], config["cuda_block"]) for config in space})


def _run_lud(monkeypatch, kernel, block, cuda_block, device):
    monkeypatch.setattr(lud, "_lud_internal_block_kernel", kernel)
    blocks = 3 if block <= 16 else 2  # four trailing blocks, or one
    config = lud.LudConfig(n=blocks * block, block=block, cuda_block=cuda_block)
    rng = np.random.default_rng(block * 64 + cuda_block)
    matrix = rng.standard_normal((config.n, config.n)).astype(np.float32)
    try:
        out, trace = lud.run_lud_internal(matrix, config, device=device)
    except ValueError as error:
        return str(error)
    return out, _counters(trace)


def test_lud_space_has_27_shapes():
    assert len(_lud_shapes()) == 27


@pytest.mark.parametrize("shape", _lud_shapes(), ids=lambda shape: "%dx%d" % shape)
def test_lud_grouped_fragments_equal_the_per_fragment_kernel(monkeypatch, reissued, shape):
    """Outputs and every ``CudaTrace`` counter, the smem histogram included, on every
    zoo device and warp / sector size; an unlaunchable shape is refused alike."""
    grouped = lud._lud_internal_block_kernel
    for device in DEVICES:
        expected = _run_lud(monkeypatch, _per_fragment_kernel, *shape, device)
        reissued.clear()
        seen = _run_lud(monkeypatch, grouped, *shape, device)
        assert not reissued  # every grouped access kept its split
        if isinstance(expected, str):
            assert seen == expected
            continue
        np.testing.assert_array_equal(seen[0], expected[0])
        assert seen[1] == expected[1], (shape, device.name)


# -- the stencil: grouped neighbour loads against the per-offset kernel ------------------


def _per_offset_update(ctx, src, dst, spec, ii, jj, kk, lanes):
    """The stencil update as it issued its neighbours before grouping: one load per
    offset, summed in offset order."""
    offsets = stencil.stencil_offsets(spec)
    weight = 1.0 / len(offsets)
    acc = np.zeros(np.shape(ii), dtype=np.float32)
    for dz, dy, dx in offsets:
        acc += src.load(ctx, ii + dz, jj + dy, kk + dx)
    ctx.count_flops(len(offsets) * lanes)
    dst.store(ctx, acc * weight, ii, jj, kk)


@pytest.mark.parametrize("spec", stencil.STENCILS, ids=lambda spec: spec.name)
def test_the_stencil_equals_the_per_offset_kernel(monkeypatch, spec):
    """Output bits and every counter for bricks 2/4/8 in both layouts, on two sector
    sizes; on the array layout no neighbour is loaded alone."""
    grouped = stencil._stencil_update
    single_loads = []
    load = GlobalArray.load

    def counted(self, *args, **kwargs):
        single_loads.append(1)
        return load(self, *args, **kwargs)

    monkeypatch.setattr(GlobalArray, "load", counted)
    for brick in (2, 4, 8):
        n = brick
        while n < max(4 * brick, 2 * spec.radius + 2):  # stencil_case's grid
            n += brick
        grid = np.random.default_rng(n + brick).standard_normal((n, n, n)).astype(np.float32)
        for layout in (None, stencil.brick_layout(n, brick)):
            for device in (DEVICES[0], DEVICES[-1]):
                runs = []
                for update in (_per_offset_update, grouped):
                    monkeypatch.setattr(stencil, "_stencil_update", update)
                    single_loads.clear()
                    out, trace = stencil.run_stencil(grid, spec, layout=layout, brick=brick,
                                                     device=device)
                    runs.append((out, _counters(trace), len(single_loads)))
                np.testing.assert_array_equal(runs[1][0], runs[0][0])
                assert runs[1][1] == runs[0][1], (spec.name, brick, layout is None, device.name)
                assert runs[0][2] > 0 and (runs[1][2] == 0) == (layout is None)


# -- grouped global accesses against the separate ones -----------------------------------


def _global_kernel(grouped, shifts, collide):
    """Load rows of ``src`` at block + lane + shift and store them into ``out`` in
    reverse row order, so every writer of an element writes its own value; with
    ``collide`` the stored rows overlap within and across blocks."""

    def kernel(ctx, src, out, seen):
        bx, tx = ctx.blockIdx.x, ctx.tx
        rows = (bx + 1, tx) if collide else (bx * 3, tx * 4 + 1)
        if grouped:
            values = src.load_rows(ctx, *rows, shifts=shifts)
            out.store_rows(ctx, values[..., ::-1, :], *rows, shifts=shifts)
        else:
            values = np.stack([src.load(ctx, rows[0] + int(di), rows[1] + int(dj))
                               for di, dj in shifts.T], axis=-2)
            for q, (di, dj) in enumerate(shifts.T):
                out.store(ctx, values[..., -1 - q, :], rows[0] + int(di), rows[1] + int(dj))
        seen.append(values)

    return kernel


@pytest.mark.parametrize("collide", [False, True], ids=["disjoint", "colliding"])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_grouped_global_rows_equal_the_separate_accesses(reissued, collide, dtype):
    """Values, the last writer of rows that overlap within and across blocks, and every
    counter, for warps that cut a row and warps that cover it."""
    shifts = np.array([[0, 1, 1, 0, 2], [0, 0, 3, 3, 1]])
    for device in DEVICES:
        for threads in (5, 16, 40):
            runs = {}
            for grouped in (False, True):
                shape = (24, 200)
                src = GlobalArray(np.arange(24 * 200, dtype=dtype).reshape(shape), name="src")
                out = GlobalArray(np.zeros(shape, dtype=dtype), name="out")
                seen = []
                reissued.clear()
                trace = launch(_global_kernel(grouped, shifts, collide), grid=7, block=threads,
                               args=(src, out, seen), device=device)
                assert len(reissued) == (0 if grouped else 2 * shifts.shape[1])
                runs[grouped] = (seen[0], out.to_numpy(), _counters(trace))
            np.testing.assert_array_equal(runs[True][0], runs[False][0])
            np.testing.assert_array_equal(runs[True][1], runs[False][1])
            assert runs[True][2] == runs[False][2], (device.name, threads, collide)


def test_a_dense_grouped_access_in_range_is_issued_whole(reissued):
    """A dense index (``tx // 2 * 2`` is not ``block + lane``) in range is decoded once
    and re-issues no row: the values of the separate loads, and the rows written row
    after row."""

    def kernel(ctx, src, out, seen):
        dense = ctx.tx // 2 * 2
        shifts = np.array([[0, 1], [0, 2]])
        values = src.load_rows(ctx, ctx.blockIdx.x, dense, shifts=shifts)
        out.store_rows(ctx, values + 1, ctx.blockIdx.x, dense, shifts=shifts)
        seen.append(values)

    src = GlobalArray(np.arange(64, dtype=np.float32).reshape(8, 8), name="src")
    out = GlobalArray(np.zeros((8, 8), dtype=np.float32), name="out")
    seen = []
    launch(kernel, grid=4, block=6, args=(src, out, seen))
    assert not reissued
    rows = np.arange(4)[:, None, None] + np.array([0, 1])[:, None]
    columns = np.arange(6) // 2 * 2 + np.array([0, 2])[:, None]
    np.testing.assert_array_equal(seen[0], src.to_numpy()[rows, columns])
    expected = np.zeros((8, 8), dtype=np.float32)
    expected[rows, columns] = src.to_numpy()[rows, columns] + 1
    np.testing.assert_array_equal(out.to_numpy(), expected)


# -- dense grouped accesses: decoded once, logged once per sector residue class ---------

#: row shifts of every sign and several sector residue classes (the flat moves on a
#: 200-wide array are 0, 200, 203, 3, 401, 16, -195 and 17)
DENSE_SHIFTS = np.array([[0, 1, 1, 0, 2, 0, -1, 0], [0, 0, 3, 3, 1, 16, 5, 17]])


def _dense_start(ctx, collide):
    """A dense ``(B, T)`` index (``// 1`` reads the block ids), overlapping within and
    across blocks with ``collide``."""
    bx, tx = ctx.blockIdx.x // 1, ctx.tx // 1
    return (bx + 1, tx // 2) if collide else (bx * 3 + 1, tx * 4 + 1)


def _dense_kernel(grouped, shifts, collide, compacted):
    """Load rows of ``src`` at a dense index + shift and store them into ``out`` in
    reverse row order (every writer of an element writes its own value), on the block
    context or on its compacted lanes (every third lane dropped)."""

    def kernel(ctx, src, out, seen):
        rows = _dense_start(ctx, collide)
        if compacted:
            ctx = ctx.compact_threads(np.asarray(ctx.tx) % 3 != 1)
            rows = tuple(map(ctx.compact, rows))
        if grouped:
            values = src.load_rows(ctx, *rows, shifts=shifts)
            out.store_rows(ctx, values[..., ::-1, :], *rows, shifts=shifts)
        else:
            values = np.stack([src.load(ctx, rows[0] + di, rows[1] + dj)
                               for di, dj in shifts.T.tolist()], axis=-2)
            for q, (di, dj) in enumerate(shifts.T.tolist()):
                out.store(ctx, values[..., -1 - q, :], rows[0] + di, rows[1] + dj)
        seen.append(values)

    return kernel


def _dense_runs(reissued, device, dtype, shifts, collide, compacted, grid=7, threads=40):
    """The separate and the grouped accesses' values, written grid and counters (or the
    error each raised); how many single-row accesses the grouped one re-issued."""
    runs = {}
    for grouped in (False, True):
        shape = (24, 200)
        src = GlobalArray(np.arange(24 * 200).reshape(shape).astype(dtype), name="src")
        out = GlobalArray(np.zeros(shape, dtype=dtype), name="out")
        seen = []
        reissued.clear()
        try:
            trace = launch(_dense_kernel(grouped, shifts, collide, compacted), grid=grid,
                           block=threads, args=(src, out, seen), device=device)
        except IndexError as error:
            runs[grouped] = str(error)
            continue
        runs[grouped] = (seen[0], out.to_numpy(), _counters(trace))
    return runs, len(reissued)


@pytest.mark.parametrize("compacted", [False, True], ids=["blocks", "compacted"])
@pytest.mark.parametrize("collide", [False, True], ids=["disjoint", "colliding"])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_dense_grouped_rows_equal_the_separate_accesses(reissued, dtype, collide, compacted):
    """Values, the last writer and every counter on every device, for warps that cut a
    row and warps that cover it: the sector residue modulus depends on the element and
    the sector size.  Nothing is re-issued."""
    for device in DEVICES:
        for threads in (5, 40):
            runs, count = _dense_runs(reissued, device, dtype, DENSE_SHIFTS, collide, compacted,
                                      threads=threads)
            assert count == 0
            np.testing.assert_array_equal(runs[True][0], runs[False][0])
            np.testing.assert_array_equal(runs[True][1], runs[False][1])
            assert runs[True][2] == runs[False][2], (device.name, threads, collide, compacted)


@pytest.mark.parametrize("compacted", [False, True], ids=["blocks", "compacted"])
@pytest.mark.parametrize("shifts", [
    [[0, 1, 30], [0, 0, 0]],  # the third row leaves axis 0
    [[0, 0, 0], [0, -1, -5]],  # the second row leaves axis 1 below 0
    [[1, 0], [2, 600]],  # the second row leaves axis 1 above
], ids=["axis0", "axis1-low", "axis1-high"])
def test_a_dense_grouped_row_out_of_range_raises_the_first_bad_rows_error(reissued, shifts,
                                                                         compacted):
    """The rows are re-issued one at a time, so the first bad row raises its own
    ``IndexError`` text."""
    shifts = np.array(shifts)
    for device in (DEVICES[0], DEVICES[-1]):
        runs, count = _dense_runs(reissued, device, np.float32, shifts, False, compacted)
        assert runs[True] == runs[False]
        assert runs[True].startswith("src: axis ")
        assert count > 0


def test_a_dense_grouped_access_through_a_layout_table_is_issued_row_by_row(reissued):
    """A layout table is not shift-invariant: every row is its own load, with its own
    values and counters."""
    layout = GroupBy([16, 16]).OrderBy(antidiagonal(16))
    shifts = np.array([[0, 1, 2], [0, 3, 1]])
    runs = {}
    for grouped in (False, True):
        src = GlobalArray(np.arange(256, dtype=np.float32).reshape(16, 16), layout=layout,
                          name="src")
        seen = []

        def kernel(ctx, src, seen, grouped=grouped):
            rows = ctx.blockIdx.x // 1, ctx.tx // 1
            if grouped:
                seen.append(src.load_rows(ctx, *rows, shifts=shifts))
            else:
                seen.append(np.stack([src.load(ctx, rows[0] + di, rows[1] + dj)
                                      for di, dj in shifts.T.tolist()], axis=-2))

        reissued.clear()
        trace = launch(kernel, grid=6, block=12, args=(src, seen))
        runs[grouped] = (seen[0], _counters(trace), len(reissued))
    np.testing.assert_array_equal(runs[True][0], runs[False][0])
    assert runs[True][1] == runs[False][1]
    assert runs[True][2] == runs[False][2] == shifts.shape[1]


@pytest.mark.parametrize("shifts, message", [
    ([[0, 1, 9], [0, 0, 0]], r"^src: axis 0 index out of range \[0, 8\) \(got \[9, 12\]\)$"),
    ([[0, 0], [0, -5]], r"^src: axis 1 index out of range \[0, 8\) \(got \[-5, -2\]\)$"),
])
def test_an_out_of_range_row_raises_the_separate_access_error(shifts, message):
    def kernel(ctx, src, grouped):
        index = (ctx.blockIdx.x, ctx.tx)
        if grouped:
            src.load_rows(ctx, *index, shifts=np.array(shifts))
        else:
            for di, dj in np.array(shifts).T.tolist():
                src.load(ctx, index[0] + di, index[1] + dj)

    for grouped in (False, True):
        src = GlobalArray(np.zeros((8, 8), dtype=np.float32), name="src")
        with pytest.raises(IndexError, match=message):
            launch(kernel, grid=4, block=4, args=(src, grouped))


def test_shifts_are_one_integer_row_per_axis():
    def kernel(ctx, shifts):
        GlobalArray(np.zeros((4, 4)), name="src").load_rows(ctx, ctx.blockIdx.x, ctx.tx,
                                                            shifts=shifts)

    for shifts in (np.zeros((1, 3), dtype=np.int64), np.zeros((2, 3)), np.zeros(2, np.int64)):
        with pytest.raises(TypeError, match="^src: shifts must be one integer row"):
            launch(kernel, grid=2, block=4, args=(shifts,))


# -- shifted shared rows against the materialised ones ------------------------------------


@pytest.mark.parametrize("layout", [None, "antidiagonal"])
@pytest.mark.parametrize("dtype", [np.int8, np.float16, np.float32, np.float64])
def test_shifted_shared_rows_equal_the_rows_issued_unshifted(layout, dtype):
    """Every pattern at every shift: values and counters equal ``load_rows`` of the
    materialised rows, through NW's table (which decodes the rows) and without one,
    for even and odd shifts, broadcast and conflicting lanes."""
    from repro.apps.nw import nw_buffer_layout

    buffer_layout = None if layout is None else nw_buffer_layout(64, layout)
    lanes = np.arange(48)
    patterns = (np.stack([lanes % 56, lanes // 3, lanes * 2 % 56]),  # plain, broadcast, stride 2
                np.stack([lanes % 4 * 16, lanes % 2 * 32, lanes % 8]))  # conflicting lanes
    shifts = np.array([[0, 1, 3, 0, 6, 9], [0, 2, 5, 7, 0, 4]]) % 9
    seen = {}

    def kernel(ctx, shifted):
        buf = ctx.shared_array((65, 65), dtype=dtype, layout=buffer_layout, name="panel")
        buf.data[...] = (np.arange(buf.size) + 1000 * np.arange(buf.batch)[:, None]) % 97
        rows, columns = patterns
        if shifted:
            seen[shifted] = buf.load_rows(rows, columns, shifts=shifts)
        else:
            shifted_rows = (rows + shifts[0][:, None, None]).reshape(-1, lanes.size)
            shifted_columns = (columns + shifts[1][:, None, None]).reshape(-1, lanes.size)
            seen[shifted] = buf.load_rows(shifted_rows, shifted_columns)

    closed = []
    log_shared_affine = AccessLog.log_shared_affine

    def counted(self, *args):
        closed.append(1)
        return log_shared_affine(self, *args)

    for device in DEVICES[-3:] + DEVICES[:1]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AccessLog, "log_shared_affine", counted)
            traces = {shifted: launch(kernel, grid=3, block=lanes.size, args=(shifted,),
                                      device=device)
                      for shifted in (False, True)}
        assert len(closed) == (layout is None)  # a layout table decodes the shifted rows
        closed.clear()
        assert seen[True].shape == (3, shifts.shape[1] * 3, lanes.size)
        np.testing.assert_array_equal(seen[True], seen[False])
        assert _counters(traces[True]) == _counters(traces[False]), device.name


def test_a_shifted_shared_row_out_of_range_is_refused():
    def kernel(ctx):
        buf = ctx.shared_array((8, 8), name="panel")
        buf.load_rows(np.arange(4)[None, :], np.zeros((1, 4), dtype=np.int64),
                      shifts=np.array([[0, 5], [0, 1]]))

    with pytest.raises(IndexError, match=r"^panel: axis 0 index out of range \[0, 8\)"):
        launch(kernel, grid=2, block=4)


# -- ragged grouped loads against the runs issued one call each -------------------------

#: back-to-back runs over a diagonal-ish lane pattern: a lone lane, an empty run, runs
#: shorter and longer than a warp, and one that crosses rows of the array
RUNS = np.array([1, 0, 5, 16, 33, 2, 70, 3])
_LANES = np.arange(RUNS.sum())
RUN_ROWS, RUN_COLUMNS = _LANES % 7, (_LANES * 5) % 61


def _split_index(ctx, rows, columns):
    """``block + lane``: the access keeps its split."""
    return ctx.blockIdx.x * 3 + rows, ctx.blockIdx.x + columns


def _dense_index(ctx, rows, columns):
    """``bx // 1`` reads the block ids: the access takes the dense path."""
    return ctx.blockIdx.x // 1 * 3 + rows, ctx.blockIdx.x + columns


def _ragged_kernel(grouped, index):
    def kernel(ctx, src, seen):
        if grouped:
            seen.append(src.load(ctx, *index(ctx, RUN_ROWS, RUN_COLUMNS), runs=RUNS))
            return
        ends = np.cumsum(RUNS)
        seen.append(np.concatenate(
            [src.load(ctx, *index(ctx, RUN_ROWS[end - run:end], RUN_COLUMNS[end - run:end]))
             for run, end in zip(RUNS, ends)], axis=-1))

    return kernel


def _ragged_runs(reissued, index, grid, dtype, device, layout=None):
    """The grouped and the separate loads' values and counters agree; the number of
    ``GlobalArray`` calls the grouped load made."""
    out = {}
    for grouped in (False, True):
        data = np.arange(128 * 128).reshape(128, 128).astype(dtype)
        src = GlobalArray(data, layout=layout, name="src")
        seen = []
        reissued.clear()
        trace = launch(_ragged_kernel(grouped, index), grid=grid, block=4, args=(src, seen),
                       device=device)
        out[grouped] = (seen[0], _counters(trace), len(reissued))
    np.testing.assert_array_equal(out[True][0], out[False][0])
    assert out[True][0].shape == (grid, RUNS.sum())
    assert out[True][1] == out[False][1], (device.name, grid, dtype)
    return out[True][2]


@pytest.mark.parametrize("grid", [2, 40], ids=["few-rows", "residue-classes"])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_a_ragged_load_equals_its_runs_issued_one_call_each(reissued, monkeypatch, grid, dtype):
    """Values and every counter on every device: 2 blocks are logged as the rows they
    are, 40 outnumber every sector residue class of these element sizes."""
    logged = []
    log_global_affine = AccessLog.log_global_affine

    def spied(self, base, pattern, element_bytes, warp_size, is_store, runs=None):
        classes = self.sector_bytes // np.gcd(element_bytes, self.sector_bytes)
        logged.append((np.size(base) > classes, runs is not None))
        return log_global_affine(self, base, pattern, element_bytes, warp_size, is_store, runs)

    monkeypatch.setattr(AccessLog, "log_global_affine", spied)
    for device in DEVICES:
        logged.clear()
        assert _ragged_runs(reissued, _split_index, grid, dtype, device) == 1  # one load
        # the separate runs but the empty one, then the ragged load
        assert logged == [(grid == 40, False)] * (RUNS.size - 1) + [(grid == 40, True)]


@pytest.mark.parametrize("case", ["dense", "layout"])
def test_a_ragged_load_that_is_not_split_is_issued_run_by_run(reissued, case):
    """A dense index, or an array behind a layout table, re-issues the runs one
    ``load`` each: the separate runs' values and counters."""
    layout = GroupBy([128, 128]).OrderBy(antidiagonal(128)) if case == "layout" else None
    index = _dense_index if case == "dense" else _split_index
    for device in DEVICES:
        assert _ragged_runs(reissued, index, 3, np.float32, device, layout) == 1 + RUNS.size


@pytest.mark.parametrize("index", [_split_index, _dense_index], ids=["split", "dense"])
def test_a_ragged_load_out_of_range_raises_its_run_error(index):
    """The run that leaves the array raises what its own load raises, on either path."""
    messages = {}
    for grouped in (False, True):
        src = GlobalArray(np.zeros((128, 64), dtype=np.float32), name="src")
        with pytest.raises(IndexError) as error:
            launch(_ragged_kernel(grouped, index), grid=5, block=4, args=(src, []))
        messages[grouped] = str(error.value)
    assert messages[True] == messages[False]
    assert messages[True].startswith("src: axis 1 index out of range [0, 64) (got [")


def test_runs_must_cut_the_lane_axis():
    def kernel(ctx, runs):
        src = GlobalArray(np.zeros((4, 4)), name="src")
        src.load(ctx, ctx.blockIdx.x, ctx.tx, runs=runs)

    for runs in ([1, 2], [5, -1], [[4]]):
        with pytest.raises(ValueError, match=r"^src: runs .* do not cut \(4,\) lanes$"):
            launch(kernel, grid=2, block=4, args=(runs,))


@pytest.mark.parametrize("block", [2, 16, 32])
def test_one_nw_pass_makes_five_global_accesses(reissued, block):
    """Three boundary loads, one ragged load of the whole reference block (it was one
    load per anti-diagonal step, ``2b - 1`` of them) and the interior store."""
    from repro.apps.nw import NwConfig, nw_buffer_layout, nw_reference, run_nw_blocked

    config = NwConfig(n=4 * block, block=block)  # 7 waves, one launch and pass each
    similarity = np.random.default_rng(block).integers(-4, 5, size=(config.n, config.n))
    out, trace = run_nw_blocked(similarity, config, layout=nw_buffer_layout(block, "row"))
    assert trace.extras["launches"] == 7
    assert len(reissued) == 5 * 7
    np.testing.assert_array_equal(out, nw_reference(similarity, config.penalty))


# -- flat shared addressing against the 2-D fancy form -------------------------------------


@pytest.mark.parametrize("layout", [None, "antidiagonal"])
def test_flat_shared_accesses_equal_the_two_dimensional_index(layout):
    """Per-block ``load`` / ``store``, block-uniform ``store`` (duplicate indices in a
    row: the last writer wins) and block-uniform ``load_rows``, with and without
    ``shifts``, read and write what ``data[rows, physical]`` does."""
    from repro.apps.nw import nw_buffer_layout

    buffer_layout = None if layout is None else nw_buffer_layout(16, layout)
    table = np.arange(17 * 17) if layout is None else buffer_layout.permutation_vector()
    lanes = np.arange(24)

    def kernel(ctx):
        buf = ctx.shared_array((17, 17), dtype=np.int32, layout=buffer_layout, name="buff")
        blocks = np.arange(buf.batch)[:, None]
        buf.data[...] = np.arange(buf.data.size).reshape(buf.data.shape) % 1009
        # per-block: every block its own cells, two lanes of each row on one cell
        rows = (np.asarray(ctx.blockIdx.x) * 3 + lanes // 2) % 17
        columns = (np.asarray(ctx.blockIdx.x) + lanes // 2 * 5) % 17
        physical = table[rows * 17 + columns]
        np.testing.assert_array_equal(buf.load(rows, columns), buf.data[blocks, physical])
        values = (lanes + 100 * blocks).astype(np.int32)
        expected = buf.data.copy()
        expected[blocks, physical] = values
        buf.store(values, rows, columns)
        np.testing.assert_array_equal(buf.data, expected)
        assert (buf.data[blocks, physical][:, 1::2] == values[:, 1::2]).all()  # last writer
        # block-uniform: one pattern in every block, two lanes of it on one cell; the
        # values are the same in every block, or one row per block
        uniform = lanes // 2 % 17, lanes // 2 * 3 % 17
        physical = table[uniform[0] * 17 + uniform[1]]
        for values in (lanes.astype(np.int32), (lanes + 100 * blocks).astype(np.int32)):
            expected = buf.data.copy()
            expected[:, physical] = values
            buf.store(values, *uniform)
            np.testing.assert_array_equal(buf.data, expected)
            stored = np.broadcast_to(values, (buf.batch, lanes.size))
            assert (buf.data[:, physical][:, 1::2] == stored[:, 1::2]).all()  # last writer
        # block-uniform rows, then every row at every shift
        patterns = np.stack([lanes % 13, lanes // 3]), np.stack([lanes // 2, lanes % 11])
        np.testing.assert_array_equal(
            buf.load_rows(*patterns), buf.data[:, table[patterns[0] * 17 + patterns[1]]])
        shifts = np.array([[0, 1, 3], [2, 0, 5]])
        shifted = [(pattern + shift[:, None, None]).reshape(-1, lanes.size)
                   for pattern, shift in zip(patterns, shifts)]
        np.testing.assert_array_equal(buf.load_rows(*patterns, shifts=shifts),
                                      buf.data[:, table[shifted[0] * 17 + shifted[1]]])

    launch(kernel, grid=5, block=lanes.size)


# -- grouped shared stores against the separate ones ---------------------------------------

#: (rows, lanes) patterns on a 17 x 17 panel: lane pairs on one cell within a row, and
#: rows 0 and 2 on the same cells, so the last writer is decided within and across rows
_LANES48 = np.arange(48)
STORE_PATTERNS = (np.stack([_LANES48 // 2 % 17, _LANES48 % 13, _LANES48 // 2 % 17, _LANES48 // 3]),
                  np.stack([_LANES48 // 2 * 3 % 17, _LANES48 // 4, _LANES48 // 2 * 3 % 17,
                            _LANES48 % 17]))


def _store_values(kind, batch):
    rows, lanes = STORE_PATTERNS[0].shape
    per_block = np.arange(batch * rows * lanes).reshape(batch, rows, lanes) % 101 + 1
    return {"per-block": per_block, "uniform": per_block[0], "row": per_block[0, 0],
            "scalar": 7}[kind]


def _shared_store_kernel(grouped, narrowed, layout, kind, dtype, seen):
    """Store ``STORE_PATTERNS`` with one ``store_rows`` or one ``store`` per row, on the
    block context or on a pass narrowed to every block but every third one."""

    def kernel(ctx):
        if narrowed:
            ctx = ctx.where_blocks(np.asarray(ctx.blockIdx.x) % 3 != 1)
        buf = ctx.shared_array((17, 17), dtype=dtype, layout=layout, name="panel")
        values = np.asarray(_store_values(kind, buf.batch), dtype=dtype)
        if grouped:
            buf.store_rows(values, *STORE_PATTERNS)
        else:
            for row, (i, j) in enumerate(zip(*STORE_PATTERNS)):
                buf.store(values[..., row, :] if values.ndim >= 2 else values, i, j)
        seen.append(buf.to_numpy())

    return kernel


@pytest.mark.parametrize("narrowed", [False, True], ids=["blocks", "narrowed"])
@pytest.mark.parametrize("layout", [None, "antidiagonal"])
@pytest.mark.parametrize("kind", ["per-block", "uniform", "row", "scalar"])
@pytest.mark.parametrize("dtype", [np.int8, np.float32, np.float64])
def test_grouped_shared_stores_equal_the_separate_stores(narrowed, layout, kind, dtype):
    """Values, the last writer on cells stored twice within a row and across rows, and
    every ``CudaTrace`` counter (the smem histogram included), on every device."""
    from repro.apps.nw import nw_buffer_layout

    buffer_layout = None if layout is None else nw_buffer_layout(16, layout)
    for device in DEVICES:
        runs = {}
        for grouped in (False, True):
            seen = []
            trace = launch(_shared_store_kernel(grouped, narrowed, buffer_layout, kind, dtype,
                                                seen),
                           grid=5, block=48, args=(), device=device)
            runs[grouped] = seen[0], _counters(trace)
        np.testing.assert_array_equal(runs[True][0], runs[False][0])
        assert runs[True][1] == runs[False][1], (device.name, kind)
    # one write at a time, rows then lanes: the last writer of a cell holds it
    stored = runs[True][0]
    values = np.broadcast_to(np.asarray(_store_values(kind, len(stored)), dtype=dtype),
                             (len(stored),) + STORE_PATTERNS[0].shape)
    expected = np.zeros_like(stored)
    for (row, lane), i in np.ndenumerate(STORE_PATTERNS[0]):
        expected[:, i, STORE_PATTERNS[1][row, lane]] = values[:, row, lane]
    np.testing.assert_array_equal(stored, expected)


@pytest.mark.parametrize("index", [_LANES48 % 17, np.zeros((1, 2, 48), dtype=np.int64)],
                         ids=["rank1", "rank3"])
def test_grouped_shared_stores_take_one_rank_2_pattern(index):
    def kernel(ctx):
        ctx.shared_array((17, 17), name="panel").store_rows(1.0, index, index)

    with pytest.raises(TypeError, match=r"^panel: store_rows takes one block-uniform "
                                        r"\(rows, lanes\) pattern, got a rank-[13] access$"):
        launch(kernel, grid=2, block=48)


@pytest.mark.parametrize("shift", [(0, 30, 40), (0, 0, -3)], ids=["above", "below"])
def test_a_grouped_shared_store_out_of_range_raises_the_first_bad_rows_error(shift):
    """Row 1 leaves the panel (and row 2 further): the grouped store raises the text
    row 1's own store raises."""
    errors = {}
    for grouped in (False, True):
        def kernel(ctx):
            buf = ctx.shared_array((17, 17), name="panel")
            rows = STORE_PATTERNS[0][:3] + np.array(shift)[:, None]
            if grouped:
                buf.store_rows(1.0, rows, STORE_PATTERNS[1][:3])
            else:
                for i, j in zip(rows, STORE_PATTERNS[1][:3]):
                    buf.store(1.0, i, j)

        with pytest.raises(IndexError) as error:
            launch(kernel, grid=2, block=48)
        errors[grouped] = str(error.value)
    assert errors[True] == errors[False]
    assert errors[True].startswith("panel: axis 0 index out of range [0, 17)")


def test_one_lud_pass_stages_its_panels_with_two_grouped_stores(monkeypatch):
    """Block 64 / CUDA block 16 at n = 128 is one pass: one ``store_rows`` per panel
    (the per-fragment oracle makes one store per fragment and panel, 2 * 4 * 4)."""
    from repro.vm.arrays import SharedArray

    calls = {"store": 0, "store_rows": 0}
    for name in calls:
        method = getattr(SharedArray, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SharedArray, name, counted)
    _run_lud(monkeypatch, lud._lud_internal_block_kernel, 64, 16, A100_80GB)
    assert calls == {"store": 0, "store_rows": 2}
    calls.update(store=0, store_rows=0)
    _run_lud(monkeypatch, _per_fragment_kernel, 64, 16, A100_80GB)
    assert calls == {"store": 32, "store_rows": 0}
