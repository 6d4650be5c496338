"""Kernel families: LUD's coarsening kernels and the MLIR transposes are
lowered once in their size symbols and specialised per configuration.

The oracle is the per-configuration lowering the families replaced: a
``CodegenContext`` built with literal extents, here and only here, fed to the
same template or module builder.
"""

import sys
from types import SimpleNamespace

import pytest

from repro.apps import lud
from repro.apps.registry import get_app
from repro.codegen import CodegenContext, KernelFamily, SpecialisationError
from repro.codegen import mlir as mlir_codegen
from repro.codegen.mlir import generate_transpose_module, skewed_tile_layout
from repro.core import GroupBy, Row
from repro.obs.trace import TRACER, tracing
from repro.serve import CompileRequest, CompileService
from repro.serve.service import default_compiler
from repro.symbolic import Var, clear_memos, prove_le, record_proof_queries

LUD_CONFIGS = [dict(config) for config in get_app("lud").space]
TRANSPOSE_FAMILIES = [(variant, skew) for variant in ("naive", "smem") for skew in (True, False)]
TRANSPOSE_SHAPES = [(n, tile) for tile in (4, 8, 16, 32) for n in (64, 512, 2048)]


def literal_lud_context(R, T):
    """The LUD offset lowered with literal extents (one context per configuration)."""
    r_i, r_j, tx, ty = Var("r_i"), Var("r_j"), Var("tx"), Var("ty")
    ctx = CodegenContext(name=f"lud_internal_b{R * T}")
    ctx.index(r_i, R)
    ctx.index(r_j, R)
    ctx.index(tx, T)
    ctx.index(ty, T)
    ctx.bind("element_offset", lud.coarsened_thread_layout(R * T, T).apply(r_i, r_j, ty, tx))
    ctx.require_in_bounds("element_offset", 0, (R * T) * (R * T) - 1)
    return ctx


def literal_transpose_context(variant, skew, N, T):
    """The transpose's offsets lowered with literal extents."""
    data_layout = GroupBy([N, N]).OrderBy(Row(N, N))
    smem_layout = skewed_tile_layout(T) if skew else GroupBy([T, T]).OrderBy(Row(T, T))
    tx, ty, bx, by = Var("tx"), Var("ty"), Var("bx"), Var("by")
    ctx = CodegenContext(name=f"transpose_{variant}", pre_expand="never")
    ctx.index(tx, T)
    ctx.index(ty, T)
    ctx.index(bx, N // T)
    ctx.index(by, N // T)
    ctx.bind("in_offset", data_layout.apply(by * T + ty, bx * T + tx))
    if variant == "naive":
        ctx.bind("out_offset", data_layout.apply(bx * T + tx, by * T + ty))
    else:
        ctx.bind("out_offset", data_layout.apply(bx * T + ty, by * T + tx))
        ctx.bind("smem_write", smem_layout.apply(ty, tx))
        ctx.bind("smem_read", smem_layout.apply(tx, ty))
    return ctx


def literal_families(build_literal):
    """A stand-in for ``KernelFamily`` whose members are literal contexts."""
    return SimpleNamespace(of=lambda build, *args: SimpleNamespace(
        specialise=lambda **sizes: build_literal(*args, **sizes)))


def assert_same_kernel(member, literal):
    assert member.source == literal.source
    assert member.proven_bounds == literal.proven_bounds
    assert list(member.bindings) == list(literal.bindings)
    for name, binding in member.bindings.items():
        oracle = literal.bindings[name]
        assert binding is not oracle  # the oracle really lowered its own context
        assert binding.expr is oracle.expr, name
        assert (binding.ops, binding.raw_ops, binding.variant) == (oracle.ops, oracle.raw_ops, oracle.variant)


def lud_kernel(config):
    return lud.generate_lud_internal_kernel(lud.LudConfig(2048, config["block"], config["cuda_block"]))


def test_lud_members_match_the_literal_lowering(monkeypatch):
    assert len(LUD_CONFIGS) == 27
    members = [lud_kernel(config) for config in LUD_CONFIGS]
    monkeypatch.setattr(lud, "KernelFamily", literal_families(literal_lud_context))
    for config, member in zip(LUD_CONFIGS, members):
        assert_same_kernel(member, lud_kernel(config))
        assert member.proven_bounds == {"element_offset": True}


def test_transpose_members_match_the_literal_lowering(monkeypatch):
    cases = [(n, tile, variant, skew) for variant, skew in TRANSPOSE_FAMILIES for n, tile in TRANSPOSE_SHAPES]
    members = [generate_transpose_module(*case) for case in cases]
    monkeypatch.setattr(mlir_codegen, "KernelFamily", literal_families(literal_transpose_context))
    for case, member in zip(cases, members):
        assert_same_kernel(member, generate_transpose_module(*case))


def test_a_family_is_lowered_once():
    clear_memos()
    with tracing(True):
        TRACER.clear()
        for config in LUD_CONFIGS:
            lud_kernel(config)
        lud_lowerings = [e for e in TRACER.events() if e["name"] == "codegen.lower"]
        TRACER.clear()
        for variant, skew in TRANSPOSE_FAMILIES:
            for n, tile in TRANSPOSE_SHAPES:
                generate_transpose_module(n, tile, variant, skew)
        transpose_lowerings = [e for e in TRACER.events() if e["name"] == "codegen.lower"]
    assert len(lud_lowerings) == 1
    assert len(transpose_lowerings) == len(TRANSPOSE_FAMILIES)


@pytest.mark.parametrize("sizes", [
    {"R": 0, "T": 16},        # a size < 1
    {"R": 4, "T": -2},
    {"R": 4.0, "T": 16},      # not an int
    {"R": True, "T": 16},     # a bool is not a size
    {"R": 4},                 # a size missing
    {"R": 4, "T": 16, "N": 64},  # a size the family does not have
])
def test_lud_family_refuses_sizes_that_break_its_facts(sizes):
    family = KernelFamily.of(lud._lud_internal_context)
    with pytest.raises(SpecialisationError):
        family.specialise(**sizes)


@pytest.mark.parametrize("n,tile", [(60, 16), (64, 24), (0, 16), (64, 0), (64, 16.0), (True, 1)])
def test_transpose_family_refuses_sizes_before_a_kernel_exists(monkeypatch, n, tile):
    def no_kernel(name):
        raise AssertionError("a kernel was generated for sizes that break the family's facts")

    monkeypatch.setattr("repro.codegen.backend.get_backend", no_kernel)
    with pytest.raises(SpecialisationError):
        generate_transpose_module(n, tile, "smem")


def test_family_proof_needs_no_abstention():
    clear_memos()
    with record_proof_queries() as log:
        family = KernelFamily.of(lud._lud_internal_context)
    assert dict(family.proven_bounds) == {"element_offset": True}
    assert log and all(proven for _, _, proven in log), log
    # the symbolic index ends prove the exact bound and nothing tighter
    R, T = Var("R"), Var("T")
    ctx = lud._lud_internal_context()
    offset = ctx.lower()["element_offset"].expr
    assert prove_le(offset, R * R * T * T - 1, ctx.env)
    assert not prove_le(offset, R * R * T * T - 2, ctx.env)


def test_concurrent_compiles_of_one_family_agree():
    requests = [CompileRequest("lud", config) for config in LUD_CONFIGS]
    clear_memos()
    alone = [default_compiler(request).source for request in requests]
    clear_memos()  # the four workers race to lower and file the family
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with CompileService(workers=4) as service:
            futures = [service.submit(request) for request in requests]
            together = [future.result(timeout=60).source for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
