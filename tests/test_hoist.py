"""Loop-invariant hoisting in mini-Triton's compile step (``minitriton.hoist``).

The oracle is the same source ``exec``ed as it is: every kernel below gives
byte-equal outputs and an equal trace (every counter) either way.
"""

import ast

import numpy as np
import pytest

from repro.minitriton import compile_kernel, from_device, launch, language, runtime, to_device
from repro.minitriton.hoist import hoist_invariants


def _plain_compile(source: str, kernel_name: str):
    """``compile_kernel`` without the pass: the source run as written."""
    namespace = {"tl": language.tl, "triton": runtime.TritonJitShim(), "min": runtime._namespace_min,
                 "max": runtime._namespace_max, "range": range}
    exec(compile(source, f"<plain:{kernel_name}>", "exec"), namespace)  # noqa: S102
    return namespace[kernel_name]


def _hoisted(source: str) -> int:
    return hoist_invariants(ast.parse(source))


def _run(compiler, source, name, grid, buffers, **scalars):
    """Launch ``name`` on copies of ``buffers``; return their contents and the trace."""
    devices = {key: to_device(value, key) for key, value in buffers.items()}
    trace = launch(compiler(source, name), grid=grid, kernel_args={**devices, **scalars})
    return {key: from_device(buffer) for key, buffer in devices.items()}, trace


def _assert_hoisting_changes_nothing(source, name, grid, buffers, **scalars):
    out, trace = _run(compile_kernel, source, name, grid, buffers, **scalars)
    plain, plain_trace = _run(_plain_compile, source, name, grid, buffers, **scalars)
    assert {key: value.tobytes() for key, value in out.items()} == \
        {key: value.tobytes() for key, value in plain.items()}
    assert trace == plain_trace
    return out, trace


# -- the corpus kernels and the hand-written references ------------------------------------


def _app_launch(app):
    """The bench-size launch of each corpus Triton kernel: ``(module, run)``."""
    rng = np.random.default_rng(7)
    if app.startswith("matmul"):
        from repro.apps import matmul
        from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

        variant = app.split("_")[1]
        kernel, config = generate_matmul_kernel(variant), MatmulConfig(64, 48, 40, BM=8, BN=8, BK=8, GM=4)
        a = rng.standard_normal((64, 40)).astype(np.float16)
        b = rng.standard_normal((40, 48)).astype(np.float16)
        return matmul, lambda: run_matmul(kernel, a, b, config, variant)
    if app == "grouped_gemm":
        from repro.apps import grouped_gemm
        from repro.apps.grouped_gemm import GroupedGemmConfig, generate_grouped_gemm_kernel, run_grouped_gemm

        config = GroupedGemmConfig(groups=3, M=32, N=24, K=40, BM=8, BN=8, BK=8)
        a = rng.standard_normal((3, 32, 40)).astype(np.float16)
        b = rng.standard_normal((3, 40, 24)).astype(np.float16)
        return grouped_gemm, lambda: run_grouped_gemm(generate_grouped_gemm_kernel(), a, b, config)
    if app == "softmax":
        from repro.apps import softmax

        x = rng.standard_normal((40, 32)).astype(np.float32)
        return softmax, lambda: softmax.run_softmax(softmax.generate_softmax_kernel(), x)
    from repro.apps import layernorm

    x, dy = (rng.standard_normal((40, 32)).astype(np.float32) for _ in range(2))
    w, bias = (rng.standard_normal(32).astype(np.float32) for _ in range(2))
    if app == "layernorm_fwd":
        return layernorm, lambda: layernorm.run_layernorm_forward(
            layernorm.generate_layernorm_forward(), x, w, bias)
    return layernorm, lambda: layernorm.run_layernorm_backward(
        layernorm.generate_layernorm_backward(), dy, x, w)


@pytest.mark.parametrize("app", ["matmul_nn", "matmul_nt", "matmul_tn", "matmul_tt", "grouped_gemm",
                                 "softmax", "layernorm_fwd", "layernorm_bwd"])
def test_every_corpus_kernel_runs_alike_hoisted_and_plain(app, monkeypatch):
    module, run = _app_launch(app)
    out, trace = run()
    monkeypatch.setattr(module, "compile_kernel", _plain_compile)
    plain, plain_trace = run()
    assert out.tobytes() == plain.tobytes()
    assert trace == plain_trace


@pytest.mark.parametrize("variant", ["nn", "nt", "tn", "tt", "grouped"])
def test_a_gemm_hoists_four_operands(variant):
    """A and B each keep only ``BK*k`` in the K step: two temporaries a pointer."""
    from repro.apps.grouped_gemm import generate_grouped_gemm_kernel
    from repro.apps.matmul import generate_matmul_kernel

    kernel = generate_grouped_gemm_kernel() if variant == "grouped" else generate_matmul_kernel(variant)
    assert _hoisted(kernel.source) == 4


def test_the_reference_matmul_hoists_nothing_and_runs_alike():
    """Its pointers step by ``a_ptrs += BK * stride_ak``: a loop that may write in
    place hoists nothing."""
    from repro.apps.matmul import REFERENCE_MATMUL_SOURCE

    assert _hoisted(REFERENCE_MATMUL_SOURCE) == 0
    rng = np.random.default_rng(3)
    M, N, K = 32, 24, 40
    a, b = rng.standard_normal((M, K)).astype(np.float16), rng.standard_normal((K, N)).astype(np.float16)
    out, _ = _assert_hoisting_changes_nothing(
        REFERENCE_MATMUL_SOURCE, "triton_matmul_kernel", 12,
        {"a_ptr": a, "b_ptr": b, "c_ptr": np.zeros((M, N), np.float16)},
        M=M, N=N, K=K, stride_am=K, stride_ak=1, stride_bk=N, stride_bn=1, stride_cm=N, stride_cn=1,
        BM=8, BN=8, BK=8, GM=2)
    np.testing.assert_allclose(out["c_ptr"].astype(np.float32),
                               a.astype(np.float32) @ b.astype(np.float32), rtol=1e-2, atol=5e-2)


def test_the_reference_softmax_runs_alike():
    from repro.apps.softmax import REFERENCE_SOFTMAX_SOURCE

    assert _hoisted(REFERENCE_SOFTMAX_SOURCE) == 0
    x = np.random.default_rng(5).standard_normal((12, 16)).astype(np.float32)
    _assert_hoisting_changes_nothing(REFERENCE_SOFTMAX_SOURCE, "softmax_kernel", 12,
                                     {"x_ptr": x, "y_ptr": np.zeros_like(x)},
                                     M=12, N=16, stride_m=16, BN=16)


# -- the pass's rules, one kernel each -------------------------------------------------------

IN_PLACE_KERNEL = """
@triton.jit
def in_place(y_ptr, N: tl.constexpr):
    pid = tl.program_id(axis=0)
    base = tl.arange(0, N) + 1
    x = base[None, :]
    view = (tl.arange(0, N) + 1)[None, :]
    acc = tl.zeros((1, N), dtype=tl.int64)
    for i in range(3):
        acc = acc + (base * 2) * i + view * i
        x += 1
        view += 1
    tl.store(y_ptr + pid * N + tl.arange(0, N)[None, :], acc + pid)
"""


def test_a_loop_that_writes_in_place_hoists_nothing():
    """``x += 1`` moves ``base`` through a view, and ``view += 1`` moves ``view``:
    neither ``base * 2`` nor ``view`` may be kept from the first step."""
    assert _hoisted(IN_PLACE_KERNEL) == 0
    out, _ = _assert_hoisting_changes_nothing(IN_PLACE_KERNEL, "in_place", 2,
                                              {"y_ptr": np.zeros(16, np.int64)}, N=8)
    lanes = np.arange(8) + 1
    expected = sum((lanes + i) * 2 * i + (lanes + i) * i for i in range(3))
    np.testing.assert_array_equal(out["y_ptr"], np.concatenate([expected, expected + 1]))


REBOUND_KERNEL = """
@triton.jit
def rebound(y_ptr, N: tl.constexpr):
    pid = tl.program_id(axis=0)
    off = tl.arange(0, N)
    acc = tl.zeros((N,), dtype=tl.int64)
    for i in range(4):
        acc = acc + (off * 2) * i + (tl.arange(0, N) * 3) * i
        off = off + 1
    tl.store(y_ptr + pid * N + tl.arange(0, N), acc)
"""


def test_a_name_rebound_later_in_the_body_is_not_invariant():
    """``off`` moves at the end of each step, so ``off * 2`` stays in the loop;
    ``tl.arange(0, N) * 3`` is the one temporary."""
    assert _hoisted(REBOUND_KERNEL) == 1
    out, _ = _assert_hoisting_changes_nothing(REBOUND_KERNEL, "rebound", 2,
                                              {"y_ptr": np.zeros(16, np.int64)}, N=8)
    lanes = np.arange(8)
    expected = sum((lanes + i) * 2 * i + lanes * 3 * i for i in range(4))
    np.testing.assert_array_equal(out["y_ptr"], np.tile(expected, 2))


ZERO_TRIP_KERNEL = """
@triton.jit
def zero_trip(y_ptr, T, N: tl.constexpr):
    pid = tl.program_id(axis=0)
    acc = tl.zeros((N,), dtype=tl.int64) + pid
    for i in range(0, T):
        acc = acc + tl.arange(0, N)[None, :, :] * 1 + i
    tl.store(y_ptr + pid * N + tl.arange(0, N), acc)
"""


def test_a_zero_trip_loop_evaluates_no_temporary():
    """The hoisted ``arange[None, :, :]`` raises an ``IndexError`` (a 1-D block):
    filled where it was first evaluated, it raises in no launch whose loop never
    runs, and in the first step of one that does."""
    assert _hoisted(ZERO_TRIP_KERNEL) == 1
    out, _ = _assert_hoisting_changes_nothing(ZERO_TRIP_KERNEL, "zero_trip", 2,
                                              {"y_ptr": np.zeros(16, np.int64)}, T=0, N=8)
    np.testing.assert_array_equal(out["y_ptr"], np.repeat([0, 1], 8))
    for compiler in (compile_kernel, _plain_compile):
        with pytest.raises(IndexError):
            _run(compiler, ZERO_TRIP_KERNEL, "zero_trip", 2, {"y_ptr": np.zeros(16, np.int64)}, T=1, N=8)


NESTED_KERNEL = """
@triton.jit
def nested(y_ptr, N: tl.constexpr):
    pid = tl.program_id(axis=0)
    acc = tl.zeros((N,), dtype=tl.int64)
    for i in range(3):
        for j in range(2):
            acc = acc + (tl.arange(0, N) * 2 + N * i) * j + pid
    tl.store(y_ptr + pid * N + tl.arange(0, N), acc)
"""


def test_nested_loops_hoist_inside_out():
    """The inner loop keeps ``arange * 2 + N*i`` from its first step (reset on
    every entry, as ``i`` moves), and the outer loop keeps ``arange * 2`` in it."""
    tree = ast.parse(NESTED_KERNEL)
    assert hoist_invariants(tree) == 2
    outer = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    assert [type(node).__name__ for node in outer.body] == ["Assign", "For"]
    out, _ = _assert_hoisting_changes_nothing(NESTED_KERNEL, "nested", 2,
                                              {"y_ptr": np.zeros(16, np.int64)}, N=8)
    lanes = np.arange(8)
    expected = [sum((lanes * 2 + 8 * i) * j + pid for i in range(3) for j in range(2))
                for pid in range(2)]
    np.testing.assert_array_equal(out["y_ptr"], np.concatenate(expected))


COUNTED_KERNEL = """
@triton.jit
def counted(x_ptr, y_ptr, N: tl.constexpr):
    pid = tl.program_id(axis=0)
    acc = tl.zeros((N,), dtype=tl.float32)
    for i in range(3):
        acc = acc + tl.exp(tl.load(x_ptr + tl.arange(0, N))) * i + tl.load(x_ptr + tl.arange(0, N)) * i
        acc = acc + (tl.arange(0, N) * 2) * i
    tl.store(y_ptr + pid * N + tl.arange(0, N), acc)
"""


def test_loads_and_flop_counting_calls_stay_in_the_loop():
    """Both ``tl.load``s and the ``tl.exp`` run every step (loads, bytes and flops
    as written); only ``arange * 2`` is kept."""
    assert _hoisted(COUNTED_KERNEL) == 1
    x = np.linspace(-1, 1, 8).astype(np.float32)
    _, trace = _assert_hoisting_changes_nothing(COUNTED_KERNEL, "counted", 2,
                                                {"x_ptr": x, "y_ptr": np.zeros(16, np.float32)}, N=8)
    assert trace.flops == 3 * 8 * 2
    assert trace.load_elements == 2 * 3 * 8 * 2


@pytest.mark.parametrize("source", [
    "for i in range(3):\n    tl.store(p, tl.arange(0, 4) * 2 + i)\n",   # tl.store writes memory
    "for i in range(3):\n    y = f(tl.arange(0, 4) * 2 + i)\n",          # an unknown call
    "for i in range(3):\n    y[0] = tl.arange(0, 4) * 2 + i\n",          # a subscript target
    "for i in range(3):\n    y = [tl.arange(0, 4) * 2 + j for j in x]\n",  # a comprehension
    "tl = 1\nfor i in range(3):\n    y = tl.arange(0, 4) * 2 + i\n",      # tl rebound
    "for i in range(3):\n    y = tl.arange(0, 4) * 2 + i + _lego_hoisted_0\n",  # the prefix taken
])
def test_what_the_pass_leaves_alone(source):
    assert _hoisted(source) == 0


def test_operands_are_not_reassociated():
    """``i + A + B`` parses as ``(i + A) + B``: ``A`` and ``B`` become two
    temporaries, never the one ``A + B`` a reordering would allow."""
    tree = ast.parse("for i in range(3):\n    y = i + tl.arange(0, 4) + tl.arange(0, 4) * 2\n")
    assert hoist_invariants(tree) == 2
    value = tree.body[-1].body[0].value
    assert isinstance(value.left, ast.BinOp) and isinstance(value.left.left, ast.Name)
    assert isinstance(value.left.right, ast.IfExp) and isinstance(value.right, ast.IfExp)


# -- the work the pass removes, pinned -------------------------------------------------------


@pytest.mark.parametrize("app,calls", [("matmul", 71), ("grouped_gemm", 58), ("softmax", 8),
                                       ("layernorm", 16)])
def test_split_combines_per_bench_launch(app, calls, monkeypatch):
    """``vm.split.combine`` calls in one bench-size launch (``execute_launch``'s
    shapes): the GEMMs build each pointer's invariant parts once, not every K
    step (matmul 164 and grouped GEMM 133 unhoisted)."""
    rng = np.random.default_rng(0)
    if app == "matmul":
        from repro.apps.matmul import MatmulConfig, generate_matmul_kernel, run_matmul

        a, b = (rng.standard_normal((256, 256)).astype(np.float16) for _ in range(2))
        config = MatmulConfig(256, 256, 256, BM=8, BN=8, BK=8, GM=4)
        run = lambda: run_matmul(generate_matmul_kernel("nn"), a, b, config, "nn")  # noqa: E731
    elif app == "grouped_gemm":
        from repro.apps.grouped_gemm import GroupedGemmConfig, generate_grouped_gemm_kernel, run_grouped_gemm

        a, b = (rng.standard_normal((4, 128, 128)).astype(np.float16) for _ in range(2))
        config = GroupedGemmConfig(groups=4, M=128, N=128, K=128, BM=8, BN=8, BK=8)
        run = lambda: run_grouped_gemm(generate_grouped_gemm_kernel(), a, b, config)  # noqa: E731
    elif app == "softmax":
        from repro.apps.softmax import generate_softmax_kernel, run_softmax

        x = rng.standard_normal((4096, 64)).astype(np.float32)
        run = lambda: run_softmax(generate_softmax_kernel(), x)  # noqa: E731
    else:
        from repro.apps.layernorm import generate_layernorm_forward, run_layernorm_forward

        x = rng.standard_normal((4096, 64)).astype(np.float32)
        w, bias = rng.standard_normal(64).astype(np.float32), rng.standard_normal(64).astype(np.float32)
        run = lambda: run_layernorm_forward(generate_layernorm_forward(), x, w, bias)  # noqa: E731
    seen, original = [], language.combine

    def counted(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(language, "combine", counted)
    run()
    assert len(seen) == calls
