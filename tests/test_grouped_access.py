"""Grouped mini-CUDA accesses: many rows in one call, logged as the separate accesses.

``GlobalArray.load_rows`` / ``store_rows`` issue row ``q`` at ``indices +
shifts[:, q]``; ``SharedArray.load_rows(..., shifts=)`` issues every pattern at
every shift and scores each pattern once per shift residue class
(``AccessLog.log_shared_affine``).  Every test here holds a grouped access to
the same rows issued one call each: the same values, the same last writer,
every trace counter (the bank-conflict histogram included) and the same
errors.  The LUD internal kernel, which issues its fragments that way, is held
to its per-fragment form, kept here as the oracle.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import lud
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


def test_a_grouped_access_that_is_not_split_is_issued_row_by_row():
    """A dense index (``ty // 2 * 2`` is not ``block + lane``) takes the dense path of
    each row: the values of the separate loads, and the rows written one at a time."""

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
    rows = np.arange(4)[:, None, None] + np.array([0, 1])[:, None]
    columns = np.arange(6) // 2 * 2 + np.array([0, 2])[:, None]
    np.testing.assert_array_equal(seen[0], src.to_numpy()[rows, columns])
    expected = np.zeros((8, 8), dtype=np.float32)
    expected[rows, columns] = src.to_numpy()[rows, columns] + 1
    np.testing.assert_array_equal(out.to_numpy(), expected)


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
