"""Golden equivalence of the vectorized execution engine (:mod:`repro.vm`).

The batched engine must be *observationally identical* to the tree-walk
interpreters: same output buffers bit-for-bit AND the same trace — every
DRAM counter (elements, bytes, transactions at the recorded sector size),
the shared-memory traffic and full bank-conflict profile (accesses,
passes, worst degree, histogram), and the flop counts.  These tests run
each app's kernel under both engines at small full-launch sizes and
compare everything; a mutation test then breaks the batched Triton store
on purpose and checks that :mod:`repro.check` catches the corruption,
proving the differential runner guards the vectorized path for real.
"""

import numpy as np
import pytest

from repro.vm import engine_mode, use_engine
from repro.vm import engine as engine_module


def trace_counters(trace) -> dict:
    """Every comparable counter of a substrate trace, as plain numbers."""
    out = {}
    for key in ("load_elements", "store_elements", "load_bytes", "store_bytes",
                "load_transactions", "store_transactions", "flops",
                "tensor_core_flops", "smem_load_bytes", "smem_store_bytes",
                "smem_bytes", "smem_per_block", "blocks", "threads_per_block",
                "programs", "sector_bytes"):
        if hasattr(trace, key):
            out[key] = float(getattr(trace, key))
    profile = getattr(trace, "smem_profile", None)
    if profile is not None:
        out["smem_accesses"] = profile.accesses
        out["smem_total_passes"] = profile.total_passes
        out["smem_worst_degree"] = profile.worst_degree
        out["smem_histogram"] = dict(profile.histogram)
    return out


def assert_engines_agree(run):
    """Run ``run()`` under both engines; outputs and traces must match."""
    with use_engine("treewalk"):
        tree_out, tree_trace = run()
    with use_engine("vectorized"):
        vec_out, vec_trace = run()
    tree_out, vec_out = np.asarray(tree_out), np.asarray(vec_out)
    assert tree_out.shape == vec_out.shape
    assert np.array_equal(tree_out, vec_out)
    assert trace_counters(tree_trace) == trace_counters(vec_trace)
    return tree_out


# -- engine-mode plumbing ---------------------------------------------------


def test_default_mode_is_vectorized(monkeypatch):
    monkeypatch.delenv("REPRO_VM", raising=False)
    monkeypatch.setattr(engine_module._local, "mode", None, raising=False)
    assert engine_mode() == "vectorized"


def test_env_selects_mode(monkeypatch):
    monkeypatch.setattr(engine_module._local, "mode", None, raising=False)
    monkeypatch.setenv("REPRO_VM", "treewalk")
    assert engine_mode() == "treewalk"
    # a typo'd engine name must fail loudly, not silently run the default
    # engine while the user believes they selected another
    monkeypatch.setattr(engine_module._local, "mode", None, raising=False)
    monkeypatch.setenv("REPRO_VM", "bogus")
    with pytest.raises(ValueError, match="REPRO_VM"):
        engine_mode()
    monkeypatch.setenv("REPRO_VM", "")
    assert engine_mode() == "vectorized"


def test_use_engine_restores_previous_mode():
    with use_engine("vectorized"):
        with use_engine("treewalk"):
            assert engine_mode() == "treewalk"
            with use_engine("vectorized"):
                assert engine_mode() == "vectorized"
            assert engine_mode() == "treewalk"
        assert engine_mode() == "vectorized"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        with use_engine("faster"):
            pass


def test_vectorized_strict_spelling_is_the_vectorized_mode(monkeypatch):
    # perfbench/ (frozen by BENCHMARK.json) selects the batched engine by its
    # former name; it must stay accepted and mean exactly "vectorized"
    strict = "vectorized-strict"
    with use_engine(strict):
        assert engine_mode() == "vectorized"
    monkeypatch.setattr(engine_module._local, "mode", None, raising=False)
    monkeypatch.setenv("REPRO_VM", strict)
    assert engine_mode() == "vectorized"


# -- the one launch contract: whole grid, traced, ambient engine -------------


def test_launchers_run_the_whole_grid_and_take_no_sampling_arguments():
    from repro import minicuda, minitriton, mlir
    from repro.apps.grouped_gemm import run_grouped_gemm
    from repro.apps.layernorm import run_layernorm_backward, run_layernorm_forward
    from repro.apps.matmul import run_matmul
    from repro.apps.softmax import generate_softmax_kernel, run_softmax
    from repro.apps.stencil import STENCILS, run_stencil
    from repro.apps.transpose import (TransposeConfig, generate_transpose_module,
                                      run_transpose)

    # keyword binding fails before any body runs, so placeholder operands do
    calls = [
        (minitriton.launch, (None, 1, {}), ("sample_programs", "trace")),
        (minicuda.launch, (None, 1, 1), ("sample_blocks", "trace")),
        (mlir.run_gpu_kernel, (None, "k", (1, 1, 1), (1, 1, 1), []), ("sample_blocks",)),
        (run_matmul, (None, None, None, None, "nn"), ("sample_programs",)),
        (run_grouped_gemm, (None, None, None, None), ("sample_programs",)),
        (run_softmax, (None, None), ("sample_programs",)),
        (run_layernorm_forward, (None, None, None, None), ("sample_programs",)),
        (run_layernorm_backward, (None, None, None, None), ("sample_programs",)),
        (run_transpose, (None, None, None), ("sample_blocks",)),
    ]
    for fn, args, removed in calls:
        for keyword in removed:
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                fn(*args, **{keyword: 4})

    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 8)).astype(np.float32)
    _, triton_trace = run_softmax(generate_softmax_kernel(), x)
    assert triton_trace.programs == 16

    spec = {s.name: s for s in STENCILS}["star-7pt"]
    grid = rng.standard_normal((8, 8, 8)).astype(np.float32)
    with use_engine("treewalk"):
        _, cuda_trace = run_stencil(grid, spec, brick=4)
    assert cuda_trace.blocks == 8

    config = TransposeConfig(n=16, tile=8)
    kernel = generate_transpose_module(config.n, config.tile, "smem", skew=True)
    matrix = rng.standard_normal((16, 16)).astype(np.float32)
    out, mlir_trace = run_transpose(kernel, matrix, config)
    assert mlir_trace.blocks == 4
    np.testing.assert_array_equal(out, matrix.T)

    for trace in (triton_trace, cuda_trace, mlir_trace):
        for gone in ("scale", "sampled", "executed_blocks", "scaled"):
            assert not hasattr(trace, gone), f"{type(trace).__name__}.{gone}"


# -- golden equivalence: mini-Triton ---------------------------------------


@pytest.mark.parametrize("variant", ["nn", "nt", "tn", "tt"])
def test_vm_matmul_matches_treewalk(variant):
    from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

    config = MatmulConfig(32, 32, 32, BM=8, BN=8, BK=8, GM=2)
    kernel = generate_matmul_kernel(variant)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((32, 32)).astype(np.float16)
    b = rng.standard_normal((32, 32)).astype(np.float16)
    assert_engines_agree(lambda: run_matmul(kernel, a, b, config, variant))


def test_vm_grouped_gemm_matches_treewalk():
    from repro.apps.grouped_gemm import (GroupedGemmConfig,
                                         generate_grouped_gemm_kernel,
                                         run_grouped_gemm)

    config = GroupedGemmConfig(groups=2, M=16, N=16, K=16, BM=8, BN=8, BK=8)
    kernel = generate_grouped_gemm_kernel()
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 16, 16)).astype(np.float16)
    b = rng.standard_normal((2, 16, 16)).astype(np.float16)
    assert_engines_agree(lambda: run_grouped_gemm(kernel, a, b, config))


def test_vm_softmax_matches_treewalk():
    from repro.apps.softmax import generate_softmax_kernel, run_softmax

    kernel = generate_softmax_kernel()
    rng = np.random.default_rng(13)
    x = rng.standard_normal((32, 16)).astype(np.float32)
    out = assert_engines_agree(lambda: run_softmax(kernel, x))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)


def test_vm_layernorm_matches_treewalk():
    from repro.apps.layernorm import (generate_layernorm_backward,
                                      generate_layernorm_forward,
                                      run_layernorm_backward,
                                      run_layernorm_forward)

    rng = np.random.default_rng(14)
    x = rng.standard_normal((32, 16)).astype(np.float32)
    w = rng.standard_normal(16).astype(np.float32)
    b = rng.standard_normal(16).astype(np.float32)
    dy = rng.standard_normal((32, 16)).astype(np.float32)
    fwd = generate_layernorm_forward()
    bwd = generate_layernorm_backward()
    assert_engines_agree(lambda: run_layernorm_forward(fwd, x, w, b))
    assert_engines_agree(lambda: run_layernorm_backward(bwd, dy, x, w))


# -- golden equivalence: mini-CUDA -----------------------------------------


@pytest.mark.parametrize("layout", ["antidiagonal", "skew1", "row", "col"])
def test_vm_nw_matches_treewalk(layout):
    from repro.apps.nw import NwConfig, nw_buffer_layout, run_nw_blocked

    config = NwConfig(n=32, block=8)
    rng = np.random.default_rng(15)
    reference = rng.integers(-4, 5, size=(32, 32)).astype(np.int32)
    assert_engines_agree(
        lambda: run_nw_blocked(reference, config, layout=nw_buffer_layout(8, layout))
    )


def test_vm_lud_matches_treewalk():
    from repro.apps.lud import LudConfig, run_lud_internal

    config = LudConfig(n=64, block=16, cuda_block=8)
    rng = np.random.default_rng(16)
    matrix = rng.standard_normal((64, 64)).astype(np.float32)
    assert_engines_agree(lambda: run_lud_internal(matrix.copy(), config, step=0))


@pytest.mark.parametrize("name,layout", [
    ("star-7pt", None),
    ("star-7pt", "brick"),
    ("cube-125pt", None),
])
def test_vm_stencil_matches_treewalk(name, layout):
    from repro.apps.stencil import STENCILS, brick_layout, run_stencil

    spec = {s.name: s for s in STENCILS}[name]
    rng = np.random.default_rng(17)
    n = 8
    grid = rng.standard_normal((n, n, n)).astype(np.float32)
    group = brick_layout(n, 4) if layout == "brick" else None
    assert_engines_agree(lambda: run_stencil(grid, spec, layout=group, brick=4))


# -- golden equivalence: MLIR interpreter ----------------------------------


@pytest.mark.parametrize("variant,skew", [("naive", True), ("smem", True), ("smem", False)])
def test_vm_transpose_matches_treewalk(variant, skew):
    from repro.apps.transpose import (TransposeConfig, generate_transpose_module,
                                      run_transpose)

    config = TransposeConfig(n=32, tile=8)
    kernel = generate_transpose_module(config.n, config.tile, variant, skew=skew)
    rng = np.random.default_rng(18)
    matrix = rng.standard_normal((32, 32)).astype(np.float32)
    out = assert_engines_agree(lambda: run_transpose(kernel, matrix, config))
    np.testing.assert_array_equal(out.reshape(32, 32), matrix.T)


# -- one slab tiles every launch: where the passes and flushes fall is unobservable --


def _slab_softmax():
    from repro.apps.softmax import generate_softmax_kernel, run_softmax

    x = np.random.default_rng(21).standard_normal((48, 24)).astype(np.float32)
    return run_softmax(generate_softmax_kernel(), x)


def _slab_stencil():
    from repro.apps.stencil import STENCILS, run_stencil

    spec = {s.name: s for s in STENCILS}["star-7pt"]
    grid = np.random.default_rng(22).standard_normal((8, 8, 8)).astype(np.float32)
    return run_stencil(grid, spec, brick=4)


def _slab_transpose():
    from repro.apps.transpose import (TransposeConfig, generate_transpose_module,
                                      run_transpose)

    config = TransposeConfig(n=32, tile=8)
    matrix = np.random.default_rng(23).standard_normal((32, 32)).astype(np.float32)
    return run_transpose(generate_transpose_module(config.n, config.tile, "smem", skew=True),
                         matrix, config)


@pytest.mark.parametrize("run", [_slab_softmax, _slab_stencil, _slab_transpose])
def test_outputs_and_counters_do_not_depend_on_the_slab(monkeypatch, run):
    """One kernel per substrate, tiled one block / program a pass (the log then
    flushes at every access), at the default, and as one whole-grid pass."""
    from repro.vm import triton as vm_triton

    with use_engine("vectorized"):
        default_out, default_trace = run()
        assert max(getattr(default_trace, "blocks", 0), getattr(default_trace, "programs", 0)) > 1
        for slab in (1, 1 << 40):
            monkeypatch.setattr(engine_module, "SLAB_ELEMENTS", slab)
            monkeypatch.setattr(vm_triton, "PROGRAM_CHUNK", slab)
            out, trace = run()
            assert np.array_equal(np.asarray(out), np.asarray(default_out))
            assert trace_counters(trace) == trace_counters(default_trace)


# -- the differential runner guards the vectorized path ---------------------


def test_check_catches_corrupted_vectorized_store(monkeypatch):
    """Mutation test: break the batched store, repro.check must notice.

    This is the proof that the golden-equivalence contract is enforced by
    machinery, not by luck: a vectorized executor that writes wrong values
    fails differential verification while the tree walk still passes.
    """
    from repro.check import run_check
    from repro.vm import triton as vm_triton

    config = {"implementation": "lego"}
    with use_engine("vectorized"):
        assert run_check("softmax", config).status == "passed"

    original = vm_triton.batched_tl.store

    def corrupted(pointer, value, mask=None):
        return original(pointer, value + 1.0, mask)

    monkeypatch.setattr(vm_triton.batched_tl, "store", corrupted)
    with use_engine("vectorized"):
        assert run_check("softmax", config).status == "failed"
    with use_engine("treewalk"):
        assert run_check("softmax", config).status == "passed"


def test_batched_failure_propagates_and_is_not_retried(monkeypatch):
    """A raising batched executor is the launch's error under the default mode.

    Nothing catches it and nothing re-runs the launch on the tree walk — the
    patched ``store`` runs exactly once — while ``treewalk`` mode, which never
    enters the batched namespace, still produces the reference output.
    """
    from repro.apps.softmax import generate_softmax_kernel, run_softmax
    from repro.vm import triton as vm_triton

    rng = np.random.default_rng(19)
    x = rng.standard_normal((16, 8)).astype(np.float32)
    kernel = generate_softmax_kernel()
    with use_engine("treewalk"):
        expected, expected_trace = run_softmax(kernel, x)

    original = vm_triton.batched_tl.store
    calls = {"n": 0}

    def dies_after_writing(pointer, value, mask=None):
        original(pointer, value, mask)
        calls["n"] += 1
        raise RuntimeError("batched executor exploded")

    monkeypatch.setattr(vm_triton.batched_tl, "store", dies_after_writing)
    monkeypatch.delenv("REPRO_VM", raising=False)
    monkeypatch.setattr(engine_module._local, "mode", None, raising=False)
    assert engine_mode() == "vectorized"
    with pytest.raises(RuntimeError, match="batched executor exploded"):
        run_softmax(kernel, x)
    assert calls["n"] == 1  # raised out of the first store; no second attempt
    with use_engine("treewalk"):
        out, trace = run_softmax(kernel, x)
    assert calls["n"] == 1
    np.testing.assert_array_equal(out, expected)
    assert trace_counters(trace) == trace_counters(expected_trace)
