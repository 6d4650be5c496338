"""The per-launch access log (:class:`repro.gpusim.sharedmem.AccessLog`).

Recorders append accesses and one flush scores them pooled.  The contract:
whatever was logged, in whatever mix and however the flushes fell, the
counters equal scoring every access alone, one warp (or one program) at a
time, with ``warp_conflict_degree`` and ``np.unique``.
"""

import numpy as np
import pytest

from repro.gpusim import sharedmem, warp_conflict_degree
from repro.gpusim.sharedmem import AccessLog, ConflictProfile
from repro.minicuda import BlockContext, CudaTrace, Dim3, GlobalArray, launch
from repro.vm import engine


def _profile_counters(trace) -> tuple:
    profile = trace.smem_profile
    return (profile.accesses, profile.total_passes, profile.worst_degree,
            dict(profile.histogram), trace.load_transactions, trace.store_transactions,
            trace.load_elements, trace.store_elements, trace.load_bytes, trace.store_bytes)


def _ordering(rows, order):
    if order == "sorted":  # the whole access ascends, as a coalesced one does
        return np.sort(rows.reshape(-1)).reshape(rows.shape)
    if order == "row-sorted":  # every row ascends, the rows among themselves do not
        return np.sort(rows, axis=1)
    return rows


def _random_accesses(seed):
    """A launch's worth of accesses: every width up to two warps (ragged tails
    included), three element sizes, block-uniform repeats, rows in each order,
    masked program rows — one of them fully masked."""
    rng = np.random.default_rng(seed)
    warp_size, sector_bytes = (16, 64) if seed % 2 else (32, 32)
    accesses = []
    for _ in range(60):
        lanes = int(rng.integers(1, 2 * warp_size + 1))
        rows = int(rng.integers(1, 5))
        spread = int(rng.choice([4, 64, 4096]))  # a small spread forces duplicates and equal seams
        offsets = _ordering(rng.integers(0, spread, size=(rows, lanes)),
                            rng.choice(["sorted", "row-sorted", "unsorted"]))
        accesses.append({
            "kind": str(rng.choice(["shared", "load", "store"])),
            "offsets": offsets,
            "element_bytes": int(rng.choice([2, 4, 8])),
            "repeat": int(rng.choice([1, 3])),
            "valid": None,
        })
    for index in range(6):  # mini-Triton's: a row is a program and is never cut
        offsets = _ordering(rng.integers(0, 256, size=(5, 24)),
                            "row-sorted" if index % 2 else "unsorted")
        valid = rng.random(offsets.shape) < 0.6
        valid[index % 5] = False
        valid[(index + 1) % 5, 10:] = False  # a bounds mask: the tail of a row
        accesses.append({"kind": "load" if index % 3 else "store", "offsets": offsets,
                         "element_bytes": 4, "repeat": 1, "valid": valid})
    order = rng.permutation(len(accesses))
    return [accesses[i] for i in order], warp_size, sector_bytes


def _log_all(accesses, warp_size, sector_bytes) -> CudaTrace:
    trace = CudaTrace(sector_bytes=sector_bytes)
    for access in accesses:
        offsets, element_bytes = access["offsets"], access["element_bytes"]
        if access["kind"] == "shared":
            trace.log_shared(offsets, element_bytes, warp_size, access["repeat"])
        else:
            cut = offsets.shape[1] if access["valid"] is not None else warp_size
            trace.log_global(offsets, element_bytes, cut, access["kind"] == "store",
                             access["repeat"], access["valid"])
    trace.flush()
    return trace


def _score_each_alone(accesses, warp_size, sector_bytes) -> CudaTrace:
    """The reference: one access, one row, one warp at a time; a global warp moves
    its valid lanes, ``repeat`` times over."""
    trace = CudaTrace()
    for access in accesses:
        element_bytes, repeat = access["element_bytes"], access["repeat"]
        for index, row in enumerate(access["offsets"]):
            if access["valid"] is not None:
                warps = [row[access["valid"][index]]]
            else:
                warps = [row[start:start + warp_size] for start in range(0, row.size, warp_size)]
            for warp in warps:
                if access["kind"] == "shared":
                    for _ in range(repeat):
                        trace.smem_profile.record(warp_conflict_degree(warp, element_bytes))
                    continue
                sectors = np.unique(warp * element_bytes // sector_bytes).size * repeat
                lanes = warp.size * repeat
                if access["kind"] == "store":
                    trace.store_transactions += sectors
                    trace.store_elements += lanes
                    trace.store_bytes += lanes * element_bytes
                else:
                    trace.load_transactions += sectors
                    trace.load_elements += lanes
                    trace.load_bytes += lanes * element_bytes
    return trace


def _assert_pooled_equals_per_access(seeds=range(6)):
    for seed in seeds:
        accesses, warp_size, sector_bytes = _random_accesses(seed)
        assert _profile_counters(_log_all(accesses, warp_size, sector_bytes)) == \
            _profile_counters(_score_each_alone(accesses, warp_size, sector_bytes)), seed


def test_pooled_scores_equal_scoring_each_access_alone():
    _assert_pooled_equals_per_access()


@pytest.mark.parametrize("slab", [1, 64, 1000])
def test_scores_do_not_depend_on_where_the_flushes_fall(monkeypatch, slab):
    monkeypatch.setattr(engine, "SLAB_ELEMENTS", slab)
    _assert_pooled_equals_per_access()


def test_the_comparison_catches_dropped_repeats(monkeypatch):
    logged = AccessLog._append

    def once(self, counter, units, warp_size, repeat, masked_rows=0):
        logged(self, counter, units, warp_size, 1, masked_rows)

    monkeypatch.setattr(AccessLog, "_append", once)
    with pytest.raises(AssertionError):
        _assert_pooled_equals_per_access()


def test_the_comparison_catches_counted_row_seams(monkeypatch):
    def seams_compared(ordered):  # the flat scan without its seam fix-up
        flat = ordered.reshape(-1)
        return np.concatenate(([True], flat[1:] != flat[:-1]))

    monkeypatch.setattr(sharedmem, "_run_starts", seams_compared)
    with pytest.raises(AssertionError):
        _assert_pooled_equals_per_access()


def test_the_comparison_catches_a_skipped_sort(monkeypatch):
    monkeypatch.setattr(sharedmem, "_ordered_rows", np.ascontiguousarray)
    with pytest.raises(AssertionError):
        _assert_pooled_equals_per_access()


# -- affine accesses: counted in closed form ------------------------------------------


def _affine_accesses(seed):
    """``(base, pattern, element_bytes, sector_bytes, warp_size)`` draws: random and
    non-monotone bases (negative ones included), patterns with negative and
    broadcast (zero) strides, every element size against 32- and 64-byte sectors
    plus a non-power-of-two ratio, warps that cover the row and warps that cut it."""
    rng = np.random.default_rng(seed)
    for element_bytes, sector_bytes in [(1, 32), (2, 32), (4, 32), (8, 32), (1, 64), (2, 64),
                                        (4, 64), (8, 64), (4, 24), (8, 24), (3, 32)]:
        for _ in range(4):
            shape = tuple(int(extent) for extent in rng.integers(1, 9, size=rng.integers(1, 4)))
            strides = rng.choice([-17, -3, -1, 0, 1, 2, 5, 64], size=len(shape))
            grid = np.indices(shape).reshape(len(shape), -1)
            pattern = int(rng.integers(-50, 50)) + strides @ grid
            base = rng.integers(-4096, 4096, size=int(rng.integers(1, 200)))
            if rng.random() < 0.5:  # a few distinct bases, repeated out of order
                base = rng.choice(base[:3], size=base.size)
            lanes = pattern.size
            for warp_size in (lanes, max(1, lanes // 3), 32):
                yield base, pattern, element_bytes, sector_bytes, warp_size


def _assert_affine_equals_materialised(seeds=range(3)):
    for seed in seeds:
        for base, pattern, element_bytes, sector_bytes, warp_size in _affine_accesses(seed):
            closed, rows = (CudaTrace(sector_bytes=sector_bytes) for _ in range(2))
            closed.log_global_affine(base, pattern, element_bytes, warp_size, False)
            closed.log_global_affine(base, pattern, element_bytes, warp_size, True)
            materialised = base[:, None] + pattern
            rows.log_global(materialised, element_bytes, warp_size, False)
            rows.log_global(materialised, element_bytes, warp_size, True)
            assert closed.load_transactions == 0.0  # pending until the flush, as the log is
            assert closed.load_elements == closed.store_elements == materialised.size  # at once
            closed.flush()
            rows.flush()
            assert _profile_counters(closed) == _profile_counters(rows), \
                (seed, element_bytes, sector_bytes, warp_size)


def test_affine_access_counts_equal_the_materialised_rows():
    _assert_affine_equals_materialised()


def test_the_affine_comparison_catches_a_residue_taken_mod_the_element_size(monkeypatch):
    monkeypatch.setattr(sharedmem, "_residue_classes",
                        lambda base, element_bytes, unit_bytes: base % element_bytes)
    with pytest.raises(AssertionError):
        _assert_affine_equals_materialised()


def _assert_shift_classes_equal_every_copy(seeds=range(2)):
    """A dense access shifted by every shift (the bases of the affine draws) scores as
    its first shift per class, logged with ``repeat`` = the class's count."""
    for seed in seeds:
        for shifts, pattern, element_bytes, sector_bytes, warp_size in _affine_accesses(seed):
            access = np.stack([pattern, pattern[::-1] + 7])
            copies, classes = (CudaTrace(sector_bytes=sector_bytes) for _ in range(2))
            for shift in shifts.tolist():
                copies.log_global(access + shift, element_bytes, warp_size, False)
            for shift, count in sharedmem.shift_classes(shifts, element_bytes, sector_bytes):
                classes.log_global(access + shift, element_bytes, warp_size, False, count)
            copies.flush()
            classes.flush()
            assert _profile_counters(classes) == _profile_counters(copies), \
                (seed, element_bytes, sector_bytes, warp_size)


def test_a_shifted_access_scores_once_per_residue_class():
    _assert_shift_classes_equal_every_copy()


def test_the_shift_class_comparison_catches_a_residue_taken_mod_the_element_size(monkeypatch):
    monkeypatch.setattr(sharedmem, "_residue_classes",
                        lambda base, element_bytes, unit_bytes: base % element_bytes)
    with pytest.raises(AssertionError):
        _assert_shift_classes_equal_every_copy()


# -- shifted shared rows: scored once per shift residue class -----------------------------


def _shifted_shared_accesses(seed):
    """``(shifts, patterns, element_bytes, warp_size)`` draws: odd and even shifts (and
    negative ones), patterns with broadcast lanes (one word read by many) and
    conflicting lanes (words a bank apart), rows a warp cuts and rows it covers."""
    rng = np.random.default_rng(seed)
    lanes = np.arange(48)
    pattern_sets = [
        np.stack([lanes, lanes // 4, lanes * 3]),  # plain, broadcast, stride 3
        np.stack([lanes % 4 * 32, lanes % 2 * 64 + 1, lanes * 16]),  # conflicting lanes
        rng.integers(0, 512, size=(2, 37)),
    ]
    for element_bytes in (1, 2, 4, 8):
        for warp_size in (16, 32, 64):
            for patterns in pattern_sets:
                for shifts in (np.array([0, 2, 4, 10]), np.array([1, 3, 7]),
                               rng.integers(-40, 200, size=int(rng.integers(1, 12)))):
                    yield shifts, patterns, element_bytes, warp_size


def _assert_shifted_equals_materialised(seeds=range(2)):
    for seed in seeds:
        for shifts, patterns, element_bytes, warp_size in _shifted_shared_accesses(seed):
            closed, rows = CudaTrace(), CudaTrace()
            closed.log_shared_affine(shifts, patterns, element_bytes, warp_size, 3)
            materialised = (shifts[:, None, None] + patterns).reshape(-1, patterns.shape[1])
            rows.log_shared(materialised, element_bytes, warp_size, 3)
            closed.flush()
            rows.flush()
            assert _profile_counters(closed) == _profile_counters(rows), \
                (seed, shifts, element_bytes, warp_size)


def test_shifted_shared_rows_score_as_the_materialised_rows():
    _assert_shifted_equals_materialised()


def test_the_shifted_comparison_catches_dropped_residue_classes(monkeypatch):
    """Sub-word elements: an odd shift moves lanes across a bank word boundary."""
    monkeypatch.setattr(sharedmem, "_residue_classes",
                        lambda base, element_bytes, unit_bytes: np.zeros_like(base))
    with pytest.raises(AssertionError):
        _assert_shifted_equals_materialised()


def test_a_masked_access_is_never_cut_into_warps():
    offsets = np.arange(64)[None, :]
    with pytest.raises(ValueError, match="masked"):
        CudaTrace().log_global(offsets, 4, 32, False, valid=offsets < 40)


# -- flush boundaries ---------------------------------------------------------------


def test_the_log_flushes_before_it_would_hold_more_than_one_slab(monkeypatch):
    monkeypatch.setattr(engine, "SLAB_ELEMENTS", 4 * 32)
    trace = CudaTrace()
    warp = np.arange(32)[None, :]
    for _ in range(4):
        trace.log_shared(warp, 4, 32)
    assert trace.smem_profile.accesses == 0  # exactly one slab: still pending
    trace.log_shared(warp * 32, 4, 32)  # one warp over: the four are scored, then this is logged
    assert trace.smem_profile == ConflictProfile(4, 4, 1, {1: 4})
    trace.flush()
    assert trace.smem_profile == ConflictProfile(5, 36, 32, {1: 4, 32: 1})
    trace.flush()  # nothing pending: a no-op
    trace.log_shared(np.zeros((3, 0), dtype=np.int64), 4, 32)  # an empty access is none
    trace.flush()
    assert trace.smem_profile == ConflictProfile(5, 36, 32, {1: 4, 32: 1})
    CudaTrace().flush()  # a trace that never logged has nothing to flush either


def test_a_flush_between_two_accesses_of_one_array_changes_nothing():
    def kernel(ctx, flush_between):
        tile = ctx.shared_array((8, 33), dtype=np.float32)
        tile.store(ctx.blockIdx.x + ctx.tx * 1.0, ctx.tx % 8, ctx.tx)
        if flush_between:
            ctx.trace.flush()
        tile.load(ctx.tx % 8, (ctx.tx * 8) % 33)

    traces = [launch(kernel, grid=3, block=32, args=(flush_between,))
              for flush_between in (False, True)]
    assert traces[0] == traces[1]
    assert traces[0].smem_profile.accesses == 6


def test_a_hand_driven_block_context_is_scored_by_its_own_traces_flush():
    """No launcher, no ``run_launch``: the trace owns its log and exposes the flush."""
    trace = CudaTrace()
    ctx = BlockContext(np.array([0]), Dim3(16), Dim3(1), trace)  # a pass of one block
    tile = ctx.shared_array((17, 17), dtype=np.int32)
    lanes = np.arange(16)
    tile.store(np.ones(16), lanes + 1, 15 - lanes + 1)  # a column walk: stride 16 words
    GlobalArray(np.zeros(1024, dtype=np.float32)).load(ctx, lanes * 16)
    assert (trace.smem_store_bytes, trace.load_bytes) == (64.0, 64.0)  # volumes are immediate
    assert trace.smem_profile.accesses == 0 and trace.load_transactions == 0.0
    trace.flush()
    assert trace.smem_profile == ConflictProfile(1, 8, 8, {8: 1})
    assert trace.load_transactions == 16.0


def test_compacted_lanes_move_only_themselves():
    """``compact_threads`` cuts each block's active lanes into warps of their own; the
    padding that fills a warp's tail adds no element, no byte and no sector."""
    active = [5, 33, 0, 17]  # ragged tails, and a block with no lane at all
    source = GlobalArray(np.arange(4 * 64, dtype=np.float32), name="src")

    def kernel(ctx):
        blocks, lanes = np.asarray(ctx.blockIdx.x), np.asarray(ctx.tx)
        compacted = ctx.compact_threads(lanes < np.asarray(active)[blocks])
        source.load(compacted, compacted.compact(blocks * 64 + lanes * 3 % 64))

    trace = launch(kernel, grid=4, block=64)
    sectors = 0
    for block, count in enumerate(active):
        offsets = block * 64 + np.arange(count) * 3 % 64
        sectors += sum(np.unique(offsets[start:start + 32] // 8).size
                       for start in range(0, count, 32))
    assert (trace.load_elements, trace.load_bytes) == (55.0, 220.0)
    assert trace.load_transactions == sectors


def test_the_log_keeps_its_own_copy_of_an_access():
    """A kernel may reuse an index array in place; the pending access must not follow it."""
    def kernel(ctx):
        line = ctx.shared_array((512,), dtype=np.int32)
        index = np.arange(16) * 2
        line.store(np.ones(16), index)  # 16 distinct banks
        index *= 16  # stride 32 words: one bank
        line.load(index)

    assert launch(kernel, grid=1, block=16).smem_profile.histogram == {1: 1, 16: 1}
