"""The one executor of each substrate, held to a pinned verdict (:mod:`repro.vm`).

Every launch runs its whole grid on the substrate's batched executor: all
programs (mini-Triton) or blocks (mini-CUDA, MLIR) at once, along a leading
batch axis.  ``tests/golden/vm_reference.json`` pins what it must produce on
nineteen small full launches of the eight apps: per run, every trace counter
(DRAM elements, bytes and transactions at the recorded sector size, the
shared-memory traffic and full bank-conflict profile, flops, launch geometry)
and the output's shape, dtype and sha256.  The file was recorded from the
per-program / per-block reference interpreters the executor replaced, on the
last revision that still had them, with

    REPRO_VM=treewalk PYTHONPATH=src python tests/test_vm.py --write

so it is their verdict, kept as data.  Rewriting it with today's code pins
the executor against itself: do it only for an intended counter change.  A
mutation test then breaks the Triton store on purpose and checks that
:mod:`repro.check` catches the corruption.
"""

import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.vm import engine, engine_mode, use_engine

REFERENCE_PATH = pathlib.Path(__file__).parent / "golden" / "vm_reference.json"


def trace_counters(trace) -> dict:
    """Every comparable counter of a substrate trace, as plain JSON numbers."""
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
        out["smem_histogram"] = {str(degree): count
                                 for degree, count in sorted(profile.histogram.items())}
    return out


# -- the pinned runs: small full launches of the eight apps --------------------------


def _matmul(variant):
    from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

    config = MatmulConfig(32, 32, 32, BM=8, BN=8, BK=8, GM=2)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((32, 32)).astype(np.float16)
    b = rng.standard_normal((32, 32)).astype(np.float16)
    return run_matmul(generate_matmul_kernel(variant), a, b, config, variant)


def _grouped_gemm():
    from repro.apps.grouped_gemm import (GroupedGemmConfig, generate_grouped_gemm_kernel,
                                         run_grouped_gemm)

    config = GroupedGemmConfig(groups=2, M=16, N=16, K=16, BM=8, BN=8, BK=8)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 16, 16)).astype(np.float16)
    b = rng.standard_normal((2, 16, 16)).astype(np.float16)
    return run_grouped_gemm(generate_grouped_gemm_kernel(), a, b, config)


def _softmax():
    from repro.apps.softmax import generate_softmax_kernel, run_softmax

    x = np.random.default_rng(13).standard_normal((32, 16)).astype(np.float32)
    return run_softmax(generate_softmax_kernel(), x)


def _layernorm(direction):
    from repro.apps.layernorm import (generate_layernorm_backward, generate_layernorm_forward,
                                      run_layernorm_backward, run_layernorm_forward)

    rng = np.random.default_rng(14)
    x = rng.standard_normal((32, 16)).astype(np.float32)
    w = rng.standard_normal(16).astype(np.float32)
    b = rng.standard_normal(16).astype(np.float32)
    dy = rng.standard_normal((32, 16)).astype(np.float32)
    if direction == "fwd":
        return run_layernorm_forward(generate_layernorm_forward(), x, w, b)
    return run_layernorm_backward(generate_layernorm_backward(), dy, x, w)


def _nw(layout):
    from repro.apps.nw import NwConfig, nw_buffer_layout, run_nw_blocked

    reference = np.random.default_rng(15).integers(-4, 5, size=(32, 32)).astype(np.int32)
    return run_nw_blocked(reference, NwConfig(n=32, block=8), layout=nw_buffer_layout(8, layout))


def _lud():
    from repro.apps.lud import LudConfig, run_lud_internal

    matrix = np.random.default_rng(16).standard_normal((64, 64)).astype(np.float32)
    return run_lud_internal(matrix, LudConfig(n=64, block=16, cuda_block=8), step=0)


def _stencil(name, layout):
    from repro.apps.stencil import STENCILS, brick_layout, run_stencil

    spec = {s.name: s for s in STENCILS}[name]
    grid = np.random.default_rng(17).standard_normal((8, 8, 8)).astype(np.float32)
    group = brick_layout(8, 4) if layout == "brick" else None
    return run_stencil(grid, spec, layout=group, brick=4)


def _transpose_input():
    return np.random.default_rng(18).standard_normal((32, 32)).astype(np.float32)


def _transpose(variant, skew):
    from repro.apps.transpose import TransposeConfig, generate_transpose_module, run_transpose

    config = TransposeConfig(n=32, tile=8)
    kernel = generate_transpose_module(config.n, config.tile, variant, skew=skew)
    return run_transpose(kernel, _transpose_input(), config)


RUNS = {
    **{f"matmul-{v}": functools.partial(_matmul, v) for v in ("nn", "nt", "tn", "tt")},
    "grouped_gemm": _grouped_gemm,
    "softmax": _softmax,
    "layernorm-fwd": functools.partial(_layernorm, "fwd"),
    "layernorm-bwd": functools.partial(_layernorm, "bwd"),
    **{f"nw-{layout}": functools.partial(_nw, layout)
       for layout in ("antidiagonal", "skew1", "row", "col")},
    "lud": _lud,
    "stencil-star-7pt": functools.partial(_stencil, "star-7pt", None),
    "stencil-star-7pt-brick": functools.partial(_stencil, "star-7pt", "brick"),
    "stencil-cube-125pt": functools.partial(_stencil, "cube-125pt", None),
    "transpose-naive-skew": functools.partial(_transpose, "naive", True),
    "transpose-smem-skew": functools.partial(_transpose, "smem", True),
    "transpose-smem": functools.partial(_transpose, "smem", False),
}


def observe(name):
    """Run ``name`` and return ``(output, everything the reference pins about it)``."""
    out, trace = RUNS[name]()
    out = np.ascontiguousarray(out)
    return out, {"trace_counters": trace_counters(trace), "shape": list(out.shape),
                 "dtype": str(out.dtype), "sha256": hashlib.sha256(out.tobytes()).hexdigest()}


@functools.lru_cache(maxsize=None)
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def assert_matches_reference(name):
    """The one executor reproduces the pinned run exactly; returns its output."""
    out, observed = observe(name)
    assert observed == reference()[name]
    return out


def test_the_reference_pins_every_run():
    assert sorted(reference()) == sorted(RUNS)


# -- the engine shim: one executor, selected by nothing --------------------------------


def test_default_mode_is_vectorized(monkeypatch):
    monkeypatch.setenv("REPRO_VM", "treewalk")  # nothing reads it any more
    assert engine_mode() == "vectorized"


def test_unknown_mode_rejected():
    for mode in ("faster", "treewalk"):
        with pytest.raises(ValueError):
            with use_engine(mode):
                pass


def test_vectorized_strict_spelling_is_the_vectorized_mode():
    # perfbench/ (frozen by BENCHMARK.json) selects the executor by its former
    # name; it must stay accepted and mean exactly "vectorized"
    for mode in ("vectorized-strict", "vectorized"):
        with use_engine(mode):
            assert engine_mode() == "vectorized"


# -- the one launch contract: whole grid, traced, validated geometry ---------------------


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


_COPY_KERNEL = """
@triton.jit
def copy(x_ptr, y_ptr):
    offs = tl.program_id(axis=0) * 4 + tl.arange(0, 4)
    tl.store(y_ptr + offs, tl.load(x_ptr + offs))
"""


def _launcher(substrate):
    """``launch(grid, block)`` of one trivial kernel on ``substrate``; the
    geometry fields of the trace it returns are what the cost model reads."""
    if substrate == "triton":
        from repro.minitriton import compile_kernel, launch, to_device

        fn = compile_kernel(_COPY_KERNEL, "copy")
        args = {"x_ptr": to_device(np.zeros(64, dtype=np.float32)),
                "y_ptr": to_device(np.zeros(64, dtype=np.float32))}
        return lambda grid, block: launch(fn, grid, args)
    if substrate == "cuda":
        from repro.minicuda import launch

        return lambda grid, block: launch(lambda ctx: None, grid, block)
    from repro.apps.transpose import generate_transpose_module
    from repro.mlir import run_gpu_kernel

    kernel = generate_transpose_module(32, 8, "naive")
    buffers = [np.zeros((32, 32), dtype=np.float32) for _ in range(2)]
    return lambda grid, block: run_gpu_kernel(kernel.module, kernel.kernel_names[0], grid,
                                              block, buffers)


_BAD_GEOMETRY = [  # (argument, value, the axis the error names)
    ("grid", -3, 0),
    ("grid", (2.7,), 0),
    ("grid", (1, 1, 1, 1), None),
    ("block", -1, 0),
    ("block", (8, 2.0), 1),
]


@pytest.mark.parametrize("substrate,argument,value,axis", [
    (substrate, *case) for substrate in ("triton", "cuda", "mlir") for case in _BAD_GEOMETRY
    if substrate != "triton" or case[0] == "grid"  # a mini-Triton launch has no block
])
def test_launch_geometry_is_validated(substrate, argument, value, axis):
    """Negative, fractional and four-axis extents are a ``ValueError`` naming the
    argument and the axis — never a negative or truncated count in the trace."""
    run = _launcher(substrate)
    geometry = {"grid": 1, "block": (8, 8)}
    geometry[argument] = value
    where = f"{argument} axis {axis}" if axis is not None else f"{argument} has 4 axes"
    with pytest.raises(ValueError, match=where):
        run(**geometry)


@pytest.mark.parametrize("substrate", ["triton", "cuda", "mlir"])
def test_an_empty_grid_is_an_empty_launch_and_numpy_extents_are_integers(substrate):
    run = _launcher(substrate)
    empty = run(0, (8, 8))
    assert getattr(empty, "programs", getattr(empty, "blocks", None)) == 0
    assert empty.load_elements == 0.0
    two = run((np.int64(2),), (np.int32(8), 8))
    assert getattr(two, "programs", getattr(two, "blocks", None)) == 2


# -- the pinned verdict, app by app ------------------------------------------------------


@pytest.mark.parametrize("variant", ["nn", "nt", "tn", "tt"])
def test_vm_matmul_matches_treewalk(variant):
    assert_matches_reference(f"matmul-{variant}")


def test_vm_grouped_gemm_matches_treewalk():
    assert_matches_reference("grouped_gemm")


def test_vm_softmax_matches_treewalk():
    out = assert_matches_reference("softmax")
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)


def test_vm_layernorm_matches_treewalk():
    assert_matches_reference("layernorm-fwd")
    assert_matches_reference("layernorm-bwd")


@pytest.mark.parametrize("layout", ["antidiagonal", "skew1", "row", "col"])
def test_vm_nw_matches_treewalk(layout):
    assert_matches_reference(f"nw-{layout}")


def test_vm_lud_matches_treewalk():
    assert_matches_reference("lud")


@pytest.mark.parametrize("name,layout", [
    ("star-7pt", None),
    ("star-7pt", "brick"),
    ("cube-125pt", None),
])
def test_vm_stencil_matches_treewalk(name, layout):
    assert_matches_reference(f"stencil-{name}" + ("-brick" if layout else ""))


@pytest.mark.parametrize("variant,skew", [("naive", True), ("smem", True), ("smem", False)])
def test_vm_transpose_matches_treewalk(variant, skew):
    out = assert_matches_reference(f"transpose-{variant}" + ("-skew" if skew else ""))
    np.testing.assert_array_equal(out.reshape(32, 32), _transpose_input().T)


# -- one slab tiles every launch: where the passes and flushes fall is unobservable --


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_and_counters_do_not_depend_on_the_slab(monkeypatch, name):
    """Each pinned run one lane a pass (the reference interpreters' shape of
    execution; the log then flushes at every access), at the default slab, and
    as one whole-grid pass."""
    from repro.minitriton import runtime

    passes = [(1, 1), (engine.SLAB_ELEMENTS, runtime.PROGRAM_CHUNK), (1 << 40, 1 << 40)]
    for lanes, programs in passes:
        monkeypatch.setattr(engine, "SLAB_ELEMENTS", lanes)
        monkeypatch.setattr(runtime, "PROGRAM_CHUNK", programs)
        assert observe(name)[1] == reference()[name], (lanes, programs)


def test_concurrent_triton_launches_keep_their_own_launch_state():
    """Four threads launch four different Triton kernels at once, thirty times
    each, with the interpreter switching threads as often as it can: every
    launch is exactly the serial one, output bits and every trace counter."""
    import threading

    names = ("softmax", "matmul-nn", "layernorm-fwd", "grouped_gemm")
    for name in names:  # generate the kernels serially: only the launches race
        assert_matches_reference(name)
    outcomes = {name: [] for name in names}

    def launch_many(name):
        for _ in range(30):
            try:
                outcomes[name].append(observe(name)[1] == reference()[name])
            except Exception as error:  # a clobbered launch may raise; it is counted below
                outcomes[name].append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=launch_many, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == {name: [True] * 30 for name in names}


# -- the benchmark's launches, at bench size --------------------------------------------


def test_the_eight_bench_launches_hold_their_pinned_counters():
    """Every ``perfbench/cases.py`` launch at seed 0 — not only the ``--smoke``
    half the ladder's smoke run checks — against ``perfbench/expected_traces.json``.
    Only reads ``perfbench/`` (no import, so not even a bytecode cache is written)."""
    import types

    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    cases = sys.modules.setdefault("perfbench_cases", types.ModuleType("perfbench_cases"))
    exec(compile((bench / "cases.py").read_text(), str(bench / "cases.py"), "exec"),
         cases.__dict__)
    expected = json.loads((bench / "expected_traces.json").read_text())
    built = cases.build_cases(0, smoke=False)
    assert {case.name for case in built} == set(expected)
    for case in built:
        output, trace = case.run()
        assert cases.trace_counters(trace) == expected[case.name], case.name
        np.testing.assert_allclose(np.asarray(output, dtype=np.float64), case.reference(),
                                   **case.tolerance, err_msg=case.name)


# -- the differential runner guards the executor -----------------------------------------


# -- many block-uniform shared loads in one call ------------------------------------------


def _fragment_rows(lanes: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """LUD's k-loop fragments at a ``t x t`` CUDA block: row ``k * R + r`` reads
    column ``k`` of the panel rows ``r * t + ty``."""
    t = int(round(lanes ** 0.5))
    r = 64 // t
    ty = np.arange(lanes) // t
    rows = np.tile(np.arange(r)[:, None] * t + ty, (steps, 1))
    columns = np.repeat(np.arange(steps), r)[:, None]
    return rows, columns


@pytest.mark.parametrize("lanes", [4, 16, 64, 256, 1024])
@pytest.mark.parametrize("layout", [None, "antidiagonal"])
@pytest.mark.parametrize("dtype", [np.int32, np.float32])
def test_load_rows_is_the_same_rows_issued_as_separate_loads(lanes, layout, dtype):
    """Values and every trace counter (passes and histogram included) of one
    ``load_rows`` equal its rows issued one ``load`` each, at LUD's lane counts
    (CUDA block 2 ... 32) through NW's anti-diagonal table and without one."""
    from repro.apps.nw import nw_buffer_layout
    from repro.minicuda import launch

    buffer_layout = None if layout is None else nw_buffer_layout(64, layout)
    rows, columns = _fragment_rows(lanes, steps=5)
    seen = {}

    def kernel(ctx, grouped):
        buf = ctx.shared_array((65, 65), dtype=dtype, layout=buffer_layout, name="panel")
        buf.data[...] = (np.arange(buf.size) + 1000 * np.arange(buf.batch)[:, None]) % 997
        if grouped:
            seen[grouped] = buf.load_rows(rows, columns)
        else:
            seen[grouped] = np.stack([buf.load(row, column[0])
                                      for row, column in zip(rows, columns)], axis=1)

    traces = {grouped: launch(kernel, grid=3, block=lanes, args=(grouped,))
              for grouped in (False, True)}
    assert seen[True].shape == (3,) + rows.shape and seen[True].dtype == dtype
    np.testing.assert_array_equal(seen[True], seen[False])
    assert trace_counters(traces[True]) == trace_counters(traces[False])


def test_load_rows_takes_one_block_uniform_matrix():
    from repro.minicuda import launch

    def kernel(ctx, *indices):
        ctx.shared_array((8, 8), name="panel").load_rows(*indices)

    lanes = np.arange(4)
    for indices in [(lanes, 0), (1, 2), (np.zeros((2, 2, 4), dtype=np.int64), lanes)]:
        with pytest.raises(TypeError, match=r"^panel: load_rows takes one block-uniform"):
            launch(kernel, grid=2, block=4, args=indices)


def test_check_catches_corrupted_vectorized_store(monkeypatch):
    """Mutation test: break the Triton store, repro.check must notice.

    This is the proof that the output contract is enforced by machinery, not
    by luck: an executor that writes wrong values fails differential
    verification.
    """
    from repro.check import run_check
    from repro.minitriton import tl

    config = {"implementation": "lego"}
    assert run_check("softmax", config).status == "passed"

    original = tl.store

    def corrupted(pointer, value, mask=None):
        return original(pointer, value + 1.0, mask)

    monkeypatch.setattr(tl, "store", corrupted)
    assert run_check("softmax", config).status == "failed"


def test_batched_failure_propagates_and_is_not_retried(monkeypatch):
    """A raising executor is the launch's error.

    Nothing catches it and nothing re-runs the launch — the patched ``store``
    runs exactly once — and the failed launch leaves nothing behind: with the
    store restored, the same launch reproduces the output computed before the
    patch.
    """
    from repro.apps.softmax import generate_softmax_kernel, run_softmax
    from repro.minitriton import tl

    x = np.random.default_rng(19).standard_normal((16, 8)).astype(np.float32)
    kernel = generate_softmax_kernel()
    expected, expected_trace = run_softmax(kernel, x)

    original = tl.store
    calls = {"n": 0}

    def dies_after_writing(pointer, value, mask=None):
        original(pointer, value, mask)
        calls["n"] += 1
        raise RuntimeError("batched executor exploded")

    monkeypatch.setattr(tl, "store", dies_after_writing)
    with pytest.raises(RuntimeError, match="batched executor exploded"):
        run_softmax(kernel, x)
    assert calls["n"] == 1  # raised out of the first store; no second attempt
    monkeypatch.undo()
    out, trace = run_softmax(kernel, x)
    assert calls["n"] == 1
    np.testing.assert_array_equal(out, expected)
    assert trace_counters(trace) == trace_counters(expected_trace)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_vm.py --write")
    REFERENCE_PATH.write_text(json.dumps({name: observe(name)[1] for name in RUNS},
                                         indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(RUNS)} runs to {REFERENCE_PATH}")
