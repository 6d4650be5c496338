"""Search spaces, the result cache, and the layout autotuner."""

import json

import pytest

from repro.apps.registry import AppSpec, available_apps, get_app
from repro.tune import Choice, ResultCache, SearchSpace, TuneResult, autotune, search


# -- search spaces ------------------------------------------------------------------


def test_space_enumerates_cartesian_product_in_order():
    space = SearchSpace(Choice("a", (1, 2)), Choice("b", ("x", "y")))
    assert list(space) == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]
    assert len(space) == 4


def test_space_constraint_filters_candidates():
    space = SearchSpace(
        Choice("block", (16, 32)), Choice("cuda", (8, 16, 32)),
        constraint=lambda c: c["block"] % c["cuda"] == 0 and c["block"] >= c["cuda"],
    )
    assert all(c["block"] % c["cuda"] == 0 for c in space)
    assert len(space) == 5


def test_space_subspace_narrows_axes():
    space = SearchSpace(Choice("a", (1, 2, 3)), Choice("b", (4, 5)))
    narrowed = space.subspace(a=(2,))
    assert list(narrowed) == [{"a": 2, "b": 4}, {"a": 2, "b": 5}]
    with pytest.raises(ValueError):
        space.subspace(nope=(1,))
    # a subspace never widens an axis past the values it declares
    with pytest.raises(ValueError, match=r"'a'.*\[1, 2, 3\]"):
        space.subspace(a=(2, 7))


def test_space_rejects_duplicates_and_empty_choices():
    with pytest.raises(ValueError):
        SearchSpace(Choice("a", (1,)), Choice("a", (2,)))
    with pytest.raises(ValueError):
        Choice("a", ())


# -- result cache -------------------------------------------------------------------


def test_cache_roundtrip_and_persistence(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    key = ResultCache.key("app", {"a": 1}, {"offs": "N*row"})
    assert cache.get(key) is None
    cache.put(key, {"time_seconds": 1.5})
    assert cache.get(key) == {"time_seconds": 1.5}
    cache.save()

    reloaded = ResultCache(path)
    assert reloaded.get(key) == {"time_seconds": 1.5}
    assert json.loads(path.read_text())  # plain JSON on disk


def test_cache_key_depends_on_expressions_config_and_backend():
    base = ResultCache.key("app", {"a": 1}, {"offs": "N*row"})
    assert ResultCache.key("app", {"a": 2}, {"offs": "N*row"}) != base
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row + 1"}) != base
    assert ResultCache.key("other", {"a": 1}, {"offs": "N*row"}) != base
    # two backends lowering to identical expressions must not collide
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="triton") != base
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="triton") != \
        ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="cuda")
    # insertion order of the config must not matter
    assert ResultCache.key("app", {"b": 2, "a": 1}) == ResultCache.key("app", {"a": 1, "b": 2})
    # every input, one at a time: distinct keys, each the two-step digest
    inputs = [
        ("app", {"a": 1}, {"offs": "N*row"}, "", ""),
        ("app", {"a": 2}, {"offs": "N*row"}, "", ""),
        ("app", {"a": 1}, {"offs": "N*row + 1"}, "", ""),
        ("app", {"a": 1}, None, "", ""),
        ("other", {"a": 1}, {"offs": "N*row"}, "", ""),
        ("app", {"a": 1}, {"offs": "N*row"}, "cuda", ""),
        ("app", {"a": 1}, {"offs": "N*row"}, "", "NVIDIA A100 80GB"),
        ("app", {"a": 1}, {"offs": "N*row"}, "", "NVIDIA H100 SXM"),
    ]
    keys = [ResultCache.key(app, config, expressions, backend=backend, device=device)
            for app, config, expressions, backend, device in inputs]
    assert len(set(keys)) == len(inputs)
    for (app, config, expressions, backend, device), key in zip(inputs, keys):
        kernel = ResultCache.kernel_digest(app, expressions, backend=backend, device=device)
        assert key == ResultCache.candidate_key(kernel, config)


def test_stable_digest_is_the_sorted_json_dumps_form():
    """Persisted keys are byte-identical to ``json.dumps(sort_keys=True,
    default=str)``: nested maps sort without pre-sorting, odd values print."""
    import hashlib
    from dataclasses import asdict
    from fractions import Fraction

    from repro.cache import code_fingerprint, stable_digest
    from repro.serve import CompileRequest
    from repro.symbolic import CostWeights

    def dumped(payload):
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()

    weights = CostWeights.gpu_default()
    request = CompileRequest("matmul", {"variant": "nn", "BM": 64}, cost_weights=weights)
    assert request.stable_key() == "kernel-" + dumped({
        "code": code_fingerprint(), "app": "matmul", "backend": "",
        "config": {"BM": 64, "variant": "nn"}, "cost_weights": asdict(weights),
    })
    kernel = ResultCache.kernel_digest("lud", None, backend="cuda", device="NVIDIA H100 SXM")
    assert kernel == dumped({
        "code": code_fingerprint(), "app": "lud", "backend": "cuda",
        "device": "NVIDIA H100 SXM", "expressions": None,
    })
    config = {"z": 1, "scale": Fraction(1, 3), "a": {"y": (2, 3), "x": None}}
    assert ResultCache.candidate_key(kernel, config) == dumped({"kernel": kernel,
                                                                "config": config})
    assert stable_digest(config) == dumped(config)
    assert '"scale": "1/3"' in json.dumps(config, sort_keys=True, default=str)


# -- the registry -------------------------------------------------------------------


def test_registry_knows_all_eight_apps():
    assert set(available_apps()) == {
        "matmul", "grouped_gemm", "softmax", "layernorm", "nw", "lud", "stencil", "transpose",
    }


@pytest.mark.parametrize("name", sorted(available_apps()))
def test_analytic_evaluate_launches_nothing(name, monkeypatch):
    """The analytic rung is a model: no app's ``evaluate`` may run a substrate."""
    import repro.minitriton.runtime
    import repro.vm.blocks
    import repro.vm.engine

    def no_launch(*args, **kwargs):
        raise AssertionError(f"{name}.evaluate launched a kernel")

    for module in (repro.vm.engine, repro.minitriton.runtime, repro.vm.blocks):
        monkeypatch.setattr(module, "run_launch", no_launch)
    spec = get_app(name)
    # paper_config names only the axes the paper fixes; the rest take their first value
    result = spec.evaluate({**next(iter(spec.space)), **spec.paper_config})
    seconds = result["time_seconds"] if isinstance(result, dict) else result
    assert seconds > 0


def test_registry_resolves_specs_lazily_and_rejects_unknown():
    spec = get_app("lud")
    assert spec.backend == "cuda"
    assert len(spec.space) >= 20
    with pytest.raises(ValueError, match="unknown app"):
        get_app("fft")


# -- the autotuner ------------------------------------------------------------------


@pytest.fixture
def toy_spec():
    calls = []

    def evaluate(config, device=None):
        calls.append(dict(config))
        return {"time_seconds": abs(config["x"] - 3) + 1.0, "x": config["x"]}

    spec = AppSpec(
        name="toy",
        backend="triton",
        space=SearchSpace(Choice("x", (1, 2, 3, 4))),
        evaluate=evaluate,
    )
    return spec, calls


def test_autotune_ranks_by_estimated_time(toy_spec):
    spec, _ = toy_spec
    result = autotune(spec)
    assert result.best.config == {"x": 3}
    assert [c.config["x"] for c in result.evaluations] == [1, 2, 3, 4]
    assert result.best.metrics == {"x": 3}
    assert len(result.table()) == 4 and "time_ms" in result.table()[0]
    assert result.summary()["best_config"] == {"x": 3}


def test_autotune_uses_the_persistent_cache(toy_spec, tmp_path):
    spec, calls = toy_spec
    path = tmp_path / "tune.json"
    first = autotune(spec, cache=ResultCache(path))
    assert len(calls) == 4 and not any(c.cached for c in first.evaluations)

    second = autotune(spec, cache=ResultCache(path))  # a fresh store on the same file
    assert len(calls) == 4  # nothing re-evaluated
    assert all(c.cached for c in second.evaluations)
    assert second.best.config == first.best.config


def test_autotune_tolerates_non_kernel_generate_results():
    # ad-hoc specs may generate arbitrary objects (plain source text here);
    # they rank with config-only cache keys instead of crashing
    spec = AppSpec(
        name="adhoc",
        backend="triton",
        space=SearchSpace(Choice("x", (1, 2))),
        evaluate=lambda config, device=None: float(config["x"]),
        generate=lambda config: f"// kernel for x={config['x']}\n",
    )
    result = autotune(spec)
    assert result.best.config == {"x": 1}
    assert all(c.has_kernel for c in result.evaluations)
    assert all(c.index_ops == 0 for c in result.evaluations)


def test_autotune_rejects_empty_spaces(toy_spec):
    spec, _ = toy_spec
    with pytest.raises(ValueError, match="empty"):
        autotune(spec, space=SearchSpace(Choice("x", (99,)),
                                         constraint=lambda c: False))


@pytest.mark.parametrize("budget", [None, 1, 1024])
def test_search_rejects_empty_spaces_before_evaluating(toy_spec, budget):
    spec, calls = toy_spec
    empty = SearchSpace(Choice("x", (99,)), constraint=lambda c: False)
    with pytest.raises(ValueError, match="search space for app 'toy' is empty"):
        search(spec, space=empty, budget=budget, measure_top_k=0)
    assert calls == []


@pytest.mark.parametrize("app", ["lud", "nw", "transpose"])
def test_autotune_and_search_share_one_evaluation_key(app):
    # both spellings default the device to the A100, so one evaluation has
    # one key: the second sweep is all hits, picks the same winner and the
    # cache does not grow
    cache = ResultCache()
    swept = autotune(app, cache=cache)
    entries = len(cache)
    assert swept.cache_misses == entries == len(get_app(app).space)
    again = search(app, budget=None, measure_top_k=0, cache=cache)
    assert (again.cache_hits, again.cache_misses) == (entries, 0)
    assert all(c.cached for c in again.evaluations)
    assert len(cache) == entries
    assert again.best.config == swept.best.config and swept.best.time_seconds > 0


@pytest.mark.parametrize("app", available_apps())
def test_autotune_is_search_over_the_whole_space(app):
    swept = autotune(app)
    searched = search(app, budget=None, measure_top_k=0)
    assert type(swept) is type(searched) is TuneResult
    assert swept.strategy == searched.strategy == "exhaustive"
    assert swept.device == searched.device == "NVIDIA A100 80GB"
    assert swept.evaluated == searched.evaluated == swept.space_size == len(get_app(app).space)
    assert swept.best.config == searched.best.config
    assert [c.config for c in swept.evaluations] == [c.config for c in searched.evaluations]
    assert [c.time_seconds for c in swept.evaluations] == [
        c.time_seconds for c in searched.evaluations
    ]
    # nothing measured or verified unless asked for
    assert swept.measured == 0 and not swept.profiles and not swept.verification
    assert swept.stage_seconds["measure"] == 0.0


def test_registered_apps_share_one_calling_convention():
    """evaluate(config, device=), case(config, rng, device=), execute(kernel, device=)."""
    import numpy as np

    from repro.apps.registry import Case
    from repro.check import resolve_case_kernel
    from repro.gpusim import A100_80GB, get_device

    h100 = get_device("h100")
    for name in available_apps():
        spec = get_app(name)
        config = next(iter(spec.space))
        on_h100 = spec.evaluate(config, device=h100)
        assert spec.evaluate(config) == spec.evaluate(config, device=A100_80GB)
        assert on_h100 != spec.evaluate(config), name  # the device is honoured
        for device in (None, h100):
            case = spec.case(dict(config), np.random.default_rng(0), device=device)
            assert isinstance(case, Case), name
            kernel = resolve_case_kernel(spec, case, config)
            output, _ = case.execute(kernel, device=device)
            assert output is not None, name


# -- the paper's winners ------------------------------------------------------------


def test_autotuner_reproduces_lud_paper_winner():
    result = autotune("lud")
    assert len(result) >= 20
    best = result.best
    assert best.config["block"] == 64
    assert best.config["cuda_block"] == 16  # coarsening factor 4, Figure 12b
    assert best.has_kernel  # generated through the unified CUDA backend


def test_autotuner_reproduces_nw_skewed_layout():
    result = autotune("nw")
    assert len(result) >= 20
    best = result.best
    # the paper's fix is a skewed (conflict-free) shared-buffer layout; the
    # anti-diagonal layout and the unit row-cyclic skew are equivalent here
    assert best.config["layout"] not in ("row", "col")
    assert best.metrics["conflict_factor"] < 1.1
    # the row-major buffer at the paper's block sizes conflicts heavily
    row_factors = {c.config["block"]: c.metrics["conflict_factor"]
                   for c in result.evaluations if c.config["layout"] == "row"}
    assert row_factors[16] > 2.0 and row_factors[32] > 2.0


def test_autotuner_reproduces_transpose_smem_over_naive():
    result = autotune("transpose")
    assert len(result) >= 20
    best = result.best
    assert best.config["variant"] == "smem"
    assert best.config["generator"] == "lego"  # Table V's slight LEGO-MLIR edge
    best_naive = min(c.time_seconds for c in result.evaluations
                     if c.config["variant"] == "naive")
    assert best.time_seconds < best_naive / 3
    # at the paper's tile of 32 the skewed shared layout beats the row-major one
    tile32 = {(c.config["skew"]): c.time_seconds for c in result.evaluations
              if c.config["variant"] == "smem" and c.config["tile"] == 32
              and c.config["generator"] == "lego"}
    assert tile32[1] < tile32[0]


def test_autotuner_prefers_fused_softmax():
    result = autotune("softmax")
    assert result.best.config["implementation"] == "lego"
