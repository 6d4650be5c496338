"""Template engine, codegen context, Triton/CUDA/MLIR backends."""

import numpy as np
import pytest

from repro.codegen import (
    CodegenContext,
    GeneratedKernel,
    KernelFamily,
    TemplateError,
    available_backends,
    extract_placeholders,
    generate_accessor_wrapper,
    get_backend,
    render_template,
    compare_expansion_strategies,
    time_generation,
)
from repro.codegen.mlir import generate_transpose_module, lower_expr_to_ops, skewed_tile_layout
from repro.core import GroupBy, Row, TileBy, antidiagonal
from repro.mlir import OpBuilder, VerificationError, print_module, run_gpu_kernel, verify_module
from repro.mlir.ir import Block
from repro.symbolic import SymbolicEnv, Var, symbols


# -- template engine ----------------------------------------------------------------


def test_render_template_substitutes_placeholders():
    assert render_template("a = {{ x }} + {{y}}", {"x": "1", "y": 2}) == "a = 1 + 2"


def test_render_template_missing_binding_raises():
    with pytest.raises(TemplateError):
        render_template("{{ missing }}", {})


def test_render_template_non_strict_keeps_placeholder():
    assert render_template("{{ keep }}", {}, strict=False) == "{{ keep }}"


def test_render_template_indent_filter():
    text = render_template("  {{ body | indent(2) }}", {"body": "a\nb"})
    assert text == "  a\n  b"


def test_render_template_unknown_filter():
    with pytest.raises(TemplateError):
        render_template("{{ x | upper }}", {"x": "a"})


def test_extract_placeholders_unique_in_order():
    assert extract_placeholders("{{a}} {{b}} {{a}}") == ["a", "b"]


# -- codegen context ----------------------------------------------------------------------


def test_context_lowers_layout_slice():
    M, N = symbols("M N")
    row = Var("row")
    ctx = CodegenContext("t")
    ctx.size(M, N)
    ctx.index(row, M)
    ctx.bind("offsets", GroupBy([M, N]).OrderBy(Row(M, N))[row, :])
    lowered = ctx.lower()["offsets"]
    rendered = lowered.render()
    assert "row" in rendered and "N" in rendered
    assert lowered.ops <= 2


def test_context_bind_inverse_arity_check():
    ctx = CodegenContext("t")
    layout = GroupBy([4, 4])
    with pytest.raises(ValueError):
        ctx.bind_inverse(["only_one"], layout, Var("pid"))


def test_context_records_generation_time():
    ctx = CodegenContext("t")
    ctx.bind("x", Var("a") + 1)
    ctx.lower()
    assert ctx.generation_seconds is not None and ctx.generation_seconds >= 0


def test_compare_expansion_strategies_reports_both():
    x, y = symbols("x y")
    env = SymbolicEnv()
    report = compare_expansion_strategies((x + y) * (x + y), env)
    assert set(report) == {"unexpanded", "expanded"}
    assert report["unexpanded"] <= report["expanded"]


def test_time_generation_extracts_op_counts():
    from repro.apps.matmul import generate_matmul_kernel

    kernel, report = time_generation("matmul", lambda: generate_matmul_kernel("nn"))
    assert report.generation_seconds > 0
    assert report.original_ops > report.optimized_ops > 0
    assert 0 < report.reduction < 1
    assert report.details["backend"] == "triton"


def test_generation_report_shows_the_memo_table_and_a_sibling_hitting_it():
    from repro.apps.matmul import generate_matmul_kernel

    from repro.symbolic import CACHE_PREFIX

    def counts(report):
        return {key[len(CACHE_PREFIX):]: value for key, value in report.cache_stats.items()}

    _, first = time_generation("matmul-nn", lambda: generate_matmul_kernel("nn"))
    stats = counts(first)
    assert stats["memo_entries"] > 100 and stats["fact_tokens"] >= 1 and stats["memo_resets"] == 0
    # a sibling variant declares the same facts and lowers the same pid_m / pid_n
    # / output pointer: it meets the first kernel's fixpoints, whoever's env asked
    _, sibling = time_generation("matmul-nt", lambda: generate_matmul_kernel("nt"))
    assert counts(sibling)["fact_tokens"] == 0, "same facts, no new token"
    assert sibling.cache_hit_rate("fixpoint") > 0.5 > first.cache_hit_rate("fixpoint")
    assert counts(sibling)["memo_entries"] < stats["memo_entries"] / 2


# -- Triton backend ------------------------------------------------------------------------------


def _present_context() -> CodegenContext:
    ctx = CodegenContext("k")
    ctx.bind("present", Var("x") + 1)
    return ctx


def test_triton_backend_validates_placeholders():
    with pytest.raises(ValueError):
        get_backend("triton").generate("k", "{{ present }} {{ absent }}",
                                       KernelFamily.of(_present_context))


def test_triton_backend_renders_arange():
    kernel = get_backend("triton").generate("k", "ptr + {{ offs }}", KernelFamily.of(_simple_context))
    assert "tl.arange(0, N)" in kernel.source
    assert kernel.binding_ops() >= 1


def test_matmul_kernel_matches_figure10():
    from repro.apps.matmul import generate_matmul_kernel

    source = generate_matmul_kernel("nn").source
    assert "pid_m = ((pid//(nt_n*min(GM, nt_m))) % max(1, nt_m//GM))*min(GM, nt_m) + pid % min(GM, nt_m)" in source
    assert "pid_n = (pid % (nt_n*min(GM, nt_m)))//min(GM, nt_m)" in source
    assert "BK*k + K*(((tl.arange(0, BM))[:, None]) + BM*pid_m)" in source


# -- CUDA backend -----------------------------------------------------------------------------------


def _flat_context() -> CodegenContext:
    B = Var("B")
    i = Var("i")
    ctx = CodegenContext("k")
    ctx.size(B)
    ctx.index(i, B * B)
    ctx.bind("offset", (i // B) * B + i % B)
    return ctx


def test_cuda_backend_uses_c_syntax():
    kernel = get_backend("cuda").generate("k", "m[{{ offset }}]", KernelFamily.of(_flat_context))
    assert "//" not in kernel.source
    assert "/" in kernel.source or "%" in kernel.source or kernel.source == "m[i]"


def test_accessor_wrapper_for_antidiagonal_layout():
    wrapper = generate_accessor_wrapper("buff", GroupBy([17, 17]).OrderBy(antidiagonal(17)), "int")
    assert "__device__" in wrapper
    assert "antidiag(17, i0, i1)" in wrapper
    assert "struct LegoBuff" in wrapper


def test_accessor_wrapper_for_affine_layout():
    wrapper = generate_accessor_wrapper("tile", GroupBy([8, 8]).OrderBy(Row(8, 8)), "float")
    assert "operator()" in wrapper
    assert "8" in wrapper


# -- MLIR backend -------------------------------------------------------------------------------------


def test_lower_expr_to_ops_builds_arith():
    from repro.mlir.types import INDEX

    for expr in ((Var("x") + 2) * 3 % 5, Var("x") * 4 + Var("y") % 2):
        builder = OpBuilder(Block())
        values = {name: builder.block.add_argument(name, INDEX) for name in ("x", "y")}
        value = lower_expr_to_ops(builder, expr, values)
        names = [op.name for op in builder.block.operations]
        assert "arith.muli" in names and "arith.remsi" in names
        assert builder.block.operations[-1].results == [value]
        assert value.type.__class__.__name__ == "IndexType"


def test_lower_expr_unbound_variable_raises_named_valueerror():
    builder = OpBuilder(Block())
    # Same shared validation as the Triton/CUDA template paths: a ValueError
    # naming the kernel and every missing name, not a bare KeyError.
    with pytest.raises(ValueError, match=r"'t5' has unbound SSA values: .*nope.*other"):
        lower_expr_to_ops(builder, Var("nope") + Var("other"), {}, kernel_name="t5")


def test_skewed_tile_layout_is_bijective_and_conflict_free():
    layout = skewed_tile_layout(16)
    assert layout.verify()
    column_banks = [layout.apply(i, 3) % 16 for i in range(16)]
    assert len(set(column_banks)) == 16


def test_transpose_modules_verify_and_print():
    for variant in ("naive", "smem"):
        kernel = generate_transpose_module(64, 16, variant)
        verify_module(kernel.module)
        text = print_module(kernel.module)
        assert "gpu.func" in text
        assert "memref.store" in text
        if variant == "smem":
            assert "memref<256xf32, 3>" in text


def test_transpose_rejects_bad_configuration():
    with pytest.raises(ValueError):
        generate_transpose_module(60, 16)
    with pytest.raises(ValueError):
        generate_transpose_module(64, 16, "bogus")


def test_transpose_interpreted_result_is_correct():
    kernel = generate_transpose_module(32, 8, "smem")
    source = np.arange(32 * 32, dtype=np.float32)
    destination = np.zeros_like(source)
    run_gpu_kernel(kernel.module, "transpose_smem", (4, 4, 1), (8, 8, 1), [source, destination])
    assert np.array_equal(destination.reshape(32, 32), source.reshape(32, 32).T)


def test_verifier_catches_use_before_def():
    from repro.mlir.dialects import arith, gpu
    from repro.mlir.ir import Module, FuncOp, Value
    from repro.mlir.types import INDEX

    module = Module()
    fn = gpu.func(module, "bad", [])
    builder = OpBuilder(fn.body)
    phantom = Value("phantom", INDEX)
    builder.insert("arith.addi", [phantom, phantom], [INDEX])
    gpu.return_(builder)
    with pytest.raises(VerificationError):
        verify_module(module)


def test_verifier_requires_terminator():
    from repro.mlir.dialects import gpu
    from repro.mlir.ir import Module

    module = Module()
    gpu.func(module, "empty", [])
    with pytest.raises(VerificationError):
        verify_module(module)


# -- unified backend registry -------------------------------------------------------


def test_registry_lists_all_three_backends():
    assert available_backends() == ["cuda", "mlir", "triton"]
    assert get_backend("triton").name == "triton"
    assert get_backend("mlir").name == "mlir"  # lazily imported on first use
    with pytest.raises(ValueError, match="unknown backend 'ptx'"):
        get_backend("ptx")


def _simple_context() -> CodegenContext:
    M, N = symbols("M N")
    row = Var("row")
    ctx = CodegenContext("k")
    ctx.size(M, N)
    ctx.index(row, M)
    ctx.bind("offs", GroupBy([M, N]).OrderBy(Row(M, N))[row, :])
    return ctx


def test_all_backends_share_generated_kernel_result_type():
    triton = get_backend("triton").generate("k", "{{ offs }}", KernelFamily.of(_simple_context))
    cuda = get_backend("cuda").generate("k", "{{ offs }}", KernelFamily.of(_simple_context))
    mlir = generate_transpose_module(64, 16, "smem")
    for kernel, backend in ((triton, "triton"), (cuda, "cuda"), (mlir, "mlir")):
        assert isinstance(kernel, GeneratedKernel)
        assert kernel.backend == backend
        assert kernel.source
        assert kernel.generation_seconds >= 0
    assert triton.binding_ops() == cuda.binding_ops() >= 1
    assert mlir.text == mlir.source  # MlirKernel keeps its .text alias
    assert mlir.kernel_names == ("transpose_smem",)


def test_backends_reject_unknown_options():
    with pytest.raises(TypeError, match="unexpected options"):
        get_backend("triton").generate("k", "{{ offs }}", KernelFamily.of(_simple_context), banana=1)


def test_unbound_placeholders_error_is_uniform_across_backends():
    for backend in ("triton", "cuda"):
        with pytest.raises(ValueError, match=r"kernel 'k' has unbound placeholders: absent"):
            get_backend(backend).generate("k", "{{ present }} {{ absent }}",
                                          KernelFamily.of(_present_context))


def test_transpose_without_skew_uses_row_major_tile():
    skewed = generate_transpose_module(64, 16, "smem", skew=True)
    plain = generate_transpose_module(64, 16, "smem", skew=False)
    assert skewed.source != plain.source
    # the skew's (tx + ty) % tile arithmetic disappears with the row-major tile
    assert "arith.remsi" in skewed.source
    assert "arith.remsi" not in plain.source
