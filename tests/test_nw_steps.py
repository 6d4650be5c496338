"""NW's wavefront step table: one ``load_rows`` for the three neighbours of a step."""

import dataclasses

import numpy as np
import pytest

from repro.apps import nw
from repro.apps.nw import NwConfig, nw_buffer_layout, nw_reference, run_nw_blocked

LAYOUTS = ("antidiagonal", "skew1", "row", "col")


def _per_step_kernel(ctx, score, reference, config, wave, layout, bx_offset):
    """The kernel as it read before the step table: plain index arrays, the cells of
    each anti-diagonal rebuilt per step and one shared load per neighbour."""
    b = config.block
    bx = np.asarray(ctx.blockIdx.x) + bx_offset
    by = wave - bx
    base_i = by * b
    base_j = bx * b
    buff = ctx.shared_array((b + 1, b + 1), dtype=np.int32, layout=layout, name="buff")
    tx = np.asarray(ctx.tx)
    buff.store(score.load(ctx, base_i, base_j + tx + 1), 0, tx + 1)
    buff.store(score.load(ctx, base_i + tx + 1, base_j), tx + 1, 0)
    buff.store(score.load(ctx, base_i, base_j), 0, 0)
    for m in range(2 * b - 1):
        lanes = np.arange(max(0, m - b + 1), min(m, b - 1) + 1)
        i, j = lanes + 1, m - lanes + 1
        up_left = buff.load(i - 1, j - 1)
        left = buff.load(i, j - 1)
        up = buff.load(i - 1, j)
        ref_vals = reference.load(ctx, base_i + i - 1, base_j + j - 1)
        value = np.maximum(up_left + ref_vals,
                           np.maximum(left - config.penalty, up - config.penalty))
        buff.store(value, i, j)
        ctx.count_flops(3 * i.size)
    interior = buff.to_numpy()[..., 1:, 1:]
    flat_interior = interior.reshape(interior.shape[:-2] + (-1,))
    rows_grid, cols_grid = np.meshgrid(np.arange(1, b + 1), np.arange(1, b + 1), indexing="ij")
    score.store(ctx, flat_interior, base_i + rows_grid.reshape(-1),
                base_j + cols_grid.reshape(-1))


@pytest.mark.parametrize("block", [2, 4, 8, 16, 32])
def test_the_step_table_is_read_only(block):
    steps = nw._nw_steps(block)
    assert len(steps) == 2 * block - 1
    for step in steps:
        for array in step:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            step.i[0] = 0
        assert step.neighbour_rows.shape == (3, step.i.size)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("block", [2, 4, 8, 16, 32])
def test_the_step_table_equals_the_per_step_loads(block, layout, monkeypatch):
    """Outputs and every counter; ``n = 4 * block`` puts 1, 2, 3, 4, 3, 2, 1 blocks on
    the waves, so a 3-block wave reads its ``(3, cells)`` neighbour rows too."""
    config = NwConfig(n=4 * block, block=block)
    similarity = np.random.default_rng(block).integers(-4, 5, size=(config.n, config.n))
    similarity = similarity.astype(np.int32)
    buffer = nw_buffer_layout(block, layout)
    table_out, table_trace = run_nw_blocked(similarity, config, layout=buffer)
    monkeypatch.setattr(nw, "_nw_block_kernel", _per_step_kernel)
    step_out, step_trace = run_nw_blocked(similarity, config, layout=buffer)
    assert np.array_equal(table_out, nw_reference(similarity, config.penalty))
    assert np.array_equal(table_out, step_out)
    assert dataclasses.asdict(table_trace) == dataclasses.asdict(step_trace)


@pytest.mark.xfail(strict=True, reason="known bug: run_nw_blocked's merged trace never copies "
                   "load_elements/store_elements from the wave launches; "
                   "perfbench/expected_traces.json pins the zeros")
def test_the_merged_nw_trace_counts_its_elements():
    config = NwConfig(n=64, block=16)
    similarity = np.zeros((64, 64), dtype=np.int32)
    _, trace = run_nw_blocked(similarity, config, layout=nw_buffer_layout(16, "antidiagonal"))
    assert trace.load_bytes == 18496
    assert trace.load_elements == trace.load_bytes / 4
    assert trace.store_elements == trace.store_bytes / 4
