"""Static guard elimination: obligations, proven launches, app equivalence."""

import numpy as np
import pytest

from repro import codegen
from repro.apps import lud, nw, stencil
from repro.apps.registry import get_app
from repro.codegen import (
    CodegenContext,
    GuardProofError,
    discharge_in_bounds,
    get_backend,
    prove_guard_redundant,
)
from repro.obs.metrics import counter
from repro.symbolic import BoolAnd, Mod, SymbolicEnv, Var, as_expr


# -- the codegen proof-obligation API ----------------------------------------------


def test_require_in_bounds_discharges_during_lower():
    ctx = CodegenContext("obligations")
    i = ctx.index("i", 16)
    ctx.bind("offset", i * 4 + 3)
    ctx.require_in_bounds("offset", 0, 63)
    ctx.lower()
    assert ctx.proven_bounds == {"offset": True}


def test_require_in_bounds_unprovable_is_false_not_an_error():
    ctx = CodegenContext("obligations")
    i = ctx.index("i", 16)
    ctx.bind("offset", i * 4)
    ctx.require_in_bounds("offset", 0, 10)
    ctx.lower()
    assert ctx.proven_bounds == {"offset": False}


def test_require_in_bounds_on_unbound_name_raises():
    ctx = CodegenContext("obligations")
    ctx.index("i", 4)
    ctx.require_in_bounds("missing", 0, 3)
    with pytest.raises(KeyError):
        ctx.lower()


def test_obligations_participate_in_the_lowering_cache_key():
    ctx = CodegenContext("obligations")
    i = ctx.index("i", 16)
    ctx.bind("offset", i * 4)
    first = ctx.lower()
    assert ctx.proven_bounds == {}
    ctx.require_in_bounds("offset", 0, 60)
    second = ctx.lower()  # a new obligation must invalidate the cached lowering
    assert ctx.proven_bounds == {"offset": True}
    assert second is not first


def test_generated_kernel_carries_proven_bounds():
    ctx = CodegenContext("carries")
    i = ctx.index("i", 8)
    ctx.bind("off", i * 2)
    ctx.require_in_bounds("off", 0, 14)
    kernel = get_backend("triton").generate("carries", "x = {{ off }}", ctx)
    assert kernel.proven_bounds == {"off": True}


def test_guard_proof_updates_counters():
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    eliminated = counter("repro.symbolic.guards_eliminated")
    static = counter("repro.symbolic.proofs_static")
    fallback = counter("repro.symbolic.proofs_fallback")
    base = (eliminated.value, static.value, fallback.value)
    assert prove_guard_redundant(BoolAnd(i.ge(0), i.lt(8)), env, kernel="t")
    assert (eliminated.value, static.value) == (base[0] + 1, base[1] + 1)
    assert not prove_guard_redundant(i.lt(7), env, kernel="t")
    assert fallback.value == base[2] + 1
    assert discharge_in_bounds(i, 0, 7, env, kernel="t")
    assert static.value == base[1] + 2
    assert eliminated.value == base[0] + 1  # in-bounds proofs are not guard drops


# -- LUD: static bijectivity --------------------------------------------------------


#: every (block, cuda_block) of the LUD space — the shapes whose static panels
#: cannot launch (blocks 128/256) are skipped by the executed check, so the
#: static proof is pinned for them here
_LUD_SHAPES = sorted((c["block"], c["cuda_block"]) for c in get_app("lud").space)


@pytest.mark.parametrize("block,cuda_block", _LUD_SHAPES)
def test_lud_bijectivity_is_static_and_agrees_with_enumeration(block, cuda_block):
    cfg = lud.LudConfig(n=2 * block, block=block, cuda_block=cuda_block)
    kernel = lud.generate_lud_internal_kernel(cfg)
    assert lud.prove_element_offset_bijection(kernel, cfg) is True
    lud.assert_element_offset_bijection(kernel, cfg)
    lud.check_element_offsets(kernel, cfg)  # the enumeration oracle agrees
    assert kernel.proven_bounds == {"element_offset": True}


def test_lud_nonaffine_layout_is_refused():
    # a multiplicative swizzle: flat * 5 % 16 is a bijection on [0, 16)
    # (5 is coprime with 16) but not affine, so the static proof abstains —
    # and an abstention is an error, not an enumeration
    cfg = lud.LudConfig(n=8, block=4, cuda_block=2)
    r_i, r_j, ty, tx = Var("r_i"), Var("r_j"), Var("ty"), Var("tx")
    ctx = CodegenContext("swizzled")
    for var, extent in ((r_i, 2), (r_j, 2), (ty, 2), (tx, 2)):
        ctx.index(var, extent)
    flat = tx + 2 * as_expr(ty) + 4 * as_expr(r_j) + 8 * as_expr(r_i)
    ctx.bind("element_offset", Mod(flat * 5, 16))
    kernel = get_backend("triton").generate("swizzled", "x = {{ element_offset }}", ctx)
    assert lud.prove_element_offset_bijection(kernel, cfg) is None
    lud.check_element_offsets(kernel, cfg)  # a bijection all the same
    with pytest.raises(GuardProofError, match="not affine"):
        lud.assert_element_offset_bijection(kernel, cfg)
    assert not hasattr(codegen, "note_fallback")


def test_lud_broken_layout_is_statically_rejected():
    cfg = lud.LudConfig(n=8, block=4, cuda_block=2)
    r_i, r_j, ty, tx = Var("r_i"), Var("r_j"), Var("ty"), Var("tx")
    ctx = CodegenContext("broken")
    for var, extent in ((r_i, 2), (r_j, 2), (ty, 2), (tx, 2)):
        ctx.index(var, extent)
    # stride 2 on tx collides with ty's stride: not a mixed-radix basis
    ctx.bind("element_offset", 2 * as_expr(tx) + 2 * as_expr(ty) + 4 * as_expr(r_j) + 8 * as_expr(r_i))
    kernel = get_backend("triton").generate("broken", "x = {{ element_offset }}", ctx)
    assert lud.prove_element_offset_bijection(kernel, cfg) is False
    with pytest.raises(ValueError, match="not a bijection"):
        lud.assert_element_offset_bijection(kernel, cfg)


# -- NW: wavefront guard elimination ------------------------------------------------


def test_nw_wave_span_enumerates_exactly_the_live_blocks():
    for block_count in (1, 2, 3, 5, 8):
        for wave in range(2 * block_count - 1):
            lo, hi = nw.nw_wave_span(wave, block_count)
            blocks_on_wave = min(wave + 1, block_count, 2 * block_count - 1 - wave)
            assert hi - lo + 1 == blocks_on_wave
            for bx in range(lo, hi + 1):
                by = wave - bx
                assert 0 <= bx < block_count and 0 <= by < block_count
            # nothing outside the span is live
            if lo > 0:
                assert not (0 <= wave - (lo - 1) < block_count)
            if hi < block_count - 1:
                assert not (0 <= wave - (hi + 1) < block_count)


def test_nw_every_wave_guard_is_proven():
    nw._prove_wave_guard.cache_clear()
    for block_count in (1, 2, 4, 8):
        for wave in range(2 * block_count - 1):
            assert nw._prove_wave_guard(wave, block_count), (wave, block_count)


#: counters of a masked full-grid ("guarded") launch of the n=48, block=16 run
#: below — what the live-span launch must record too
_NW_PINNED = {
    "load_bytes": 10404, "store_bytes": 9216,
    "load_transactions": 2484, "store_transactions": 414,
    "smem_load_bytes": 27648, "smem_store_bytes": 10404,
    "flops": 6912, "blocks": 9,
}


def test_nw_guard_eliminated_run_matches_guarded_run():
    rng = np.random.default_rng(3)
    cfg = nw.NwConfig(n=48, block=16)
    reference = rng.integers(-4, 5, size=(cfg.n, cfg.n)).astype(np.int32)
    expected = nw.nw_reference(reference, cfg.penalty)
    conflicts = {}
    for name, layout in (("row", None), ("antidiagonal", nw.antidiagonal_buffer_layout(cfg.block))):
        out, trace = nw.run_nw_blocked(reference, cfg, layout=layout)
        assert np.array_equal(out, expected)
        # launching only the live span must not perturb the measured profile
        for attr, value in _NW_PINNED.items():
            assert getattr(trace, attr) == value, (name, attr)
        conflicts[name] = trace.bank_conflict_factor
    assert conflicts["antidiagonal"] == 1.0
    assert conflicts["row"] == pytest.approx(4.307086614173229)


def test_nw_unproven_wave_guard_raises_instead_of_launching(monkeypatch):
    from repro.codegen import GuardProofError

    monkeypatch.setattr(nw, "_prove_wave_guard", lambda wave, block_count: wave != 1)
    cfg = nw.NwConfig(n=32, block=16)
    with pytest.raises(GuardProofError, match="nw wave 1 of a 2-block matrix"):
        nw.run_nw_blocked(np.zeros((cfg.n, cfg.n), dtype=np.int32), cfg)


# -- stencil: interior-block guard elimination --------------------------------------


def test_interior_block_span_matches_enumeration():
    for n, brick, r in [(8, 4, 1), (16, 4, 1), (16, 4, 2), (16, 8, 1), (12, 4, 3), (24, 4, 4)]:
        span = stencil.interior_block_span(n, brick, r)
        interior_blocks = [
            b for b in range(n // brick)
            if all(r <= b * brick + t < n - r for t in range(brick))
        ]
        if span is None:
            assert interior_blocks == []
        else:
            assert interior_blocks == list(range(span[0], span[1] + 1))


def test_stencil_interior_span_is_proven_whenever_it_exists():
    stencil._prove_interior_span.cache_clear()
    for n, brick, r in [(16, 4, 1), (16, 4, 2), (12, 4, 1), (24, 8, 2), (32, 4, 4)]:
        assert stencil.interior_block_span(n, brick, r) is not None
        assert stencil._prove_interior_span(n, brick, r), (n, brick, r)
    # no interior block -> nothing to prove, every block keeps its mask
    assert not stencil._prove_interior_span(8, 4, 1)


#: counters of an every-block-masked ("guarded") launch of the n=16, brick=4
#: runs below, by (stencil, layout) — what the split launch must record too
_STENCIL_PINNED = {
    ("star-7pt", "array"): {"load_bytes": 76832, "store_bytes": 10976, "flops": 19208,
                            "load_transactions": 6048, "store_transactions": 808},
    ("star-7pt", "brick"): {"load_bytes": 76832, "store_bytes": 10976, "flops": 19208,
                            "load_transactions": 4282, "store_transactions": 480},
    ("cube-27pt", "array"): {"load_bytes": 296352, "store_bytes": 10976, "flops": 74088,
                             "load_transactions": 25344, "store_transactions": 808},
    ("cube-27pt", "brick"): {"load_bytes": 296352, "store_bytes": 10976, "flops": 74088,
                             "load_transactions": 22218, "store_transactions": 480},
}


@pytest.mark.parametrize("spec", [stencil.STENCILS[0], stencil.STENCILS[4]])
def test_stencil_guard_eliminated_run_matches_guarded_run(spec):
    rng = np.random.default_rng(5)
    n, brick = 16, 4
    grid = rng.standard_normal((n, n, n)).astype(np.float32)
    expected = stencil.stencil_reference(grid, spec)
    for name, layout in (("array", None), ("brick", stencil.brick_layout(n, brick))):
        out, trace = stencil.run_stencil(grid, spec, layout=layout, brick=brick)
        assert np.allclose(out, expected, atol=1e-5)
        for attr, value in _STENCIL_PINNED[spec.name, name].items():
            assert getattr(trace, attr) == value, (name, attr)


def test_stencil_unproven_interior_span_raises_instead_of_launching(monkeypatch):
    from repro.codegen import GuardProofError

    monkeypatch.setattr(stencil, "_prove_interior_span", lambda n, brick, radius: False)
    spec = stencil.STENCILS[0]
    grid = np.zeros((16, 16, 16), dtype=np.float32)
    with pytest.raises(GuardProofError, match="interior mask is not proven"):
        stencil.run_stencil(grid, spec, brick=4)
    # a grid with no interior block has nothing to prove and still runs
    small = np.zeros((4, 4, 4), dtype=np.float32)
    out, _ = stencil.run_stencil(small, spec, brick=4)
    assert np.array_equal(out, stencil.stencil_reference(small, spec))
