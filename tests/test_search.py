"""Tests for the tuning driver at scale (repro.tune.search and friends).

Covers the streaming SearchSpace on million-point products, the seeded
sampled pre-filter, the measured re-rank (in analytic order, with fault
isolation), the device zoo and the per-device tuning tables.
"""

import random
import time
from dataclasses import replace

import pytest

from repro.tune import (
    Choice,
    ResultCache,
    SearchSpace,
    TuningTable,
    autotune,
    measure_candidates,
    problem_signature,
    search,
)


def _million_point_space(constraint=None):
    return SearchSpace(
        *(Choice(f"axis{i}", tuple(range(10))) for i in range(6)),
        constraint=constraint,
    )


# -- streaming SearchSpace ----------------------------------------------------------


def test_million_point_space_counts_and_samples_fast():
    space = _million_point_space()
    started = time.perf_counter()
    assert len(space) == 10**6
    drawn = space.sample(64, random.Random(0))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"len+sample took {elapsed:.2f}s on a 10^6-point space"
    assert len(drawn) == 64
    assert len({tuple(sorted(c.items())) for c in drawn}) == 64  # no replacement


def test_million_point_constrained_space_samples_fast():
    space = _million_point_space(constraint=lambda c: c["axis0"] != c["axis1"])
    started = time.perf_counter()
    drawn = space.sample(64, random.Random(1))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"constrained sample took {elapsed:.2f}s"
    assert all(c["axis0"] != c["axis1"] for c in drawn)
    assert len(drawn) == 64


def test_decode_matches_enumeration_order():
    space = SearchSpace(Choice("a", (1, 2, 3)), Choice("b", ("x", "y")))
    assert [space.decode(i) for i in range(space.raw_size)] == list(space)
    with pytest.raises(IndexError):
        space.decode(space.raw_size)


def test_sample_is_seed_deterministic_and_subset_of_enumeration():
    space = SearchSpace(
        Choice("a", tuple(range(8))), Choice("b", tuple(range(8))),
        constraint=lambda c: (c["a"] + c["b"]) % 2 == 0,
    )
    everything = [tuple(sorted(c.items())) for c in space]
    first = space.sample(10, random.Random(7))
    second = space.sample(10, random.Random(7))
    assert first == second
    assert all(tuple(sorted(c.items())) in set(everything) for c in first)
    # results come back in enumeration order
    positions = [everything.index(tuple(sorted(c.items()))) for c in first]
    assert positions == sorted(positions)


def test_sample_count_covering_space_returns_full_enumeration():
    space = SearchSpace(
        Choice("a", (1, 2, 3)), Choice("b", (4, 5)),
        constraint=lambda c: c["a"] != 3,
    )
    assert space.sample(100, random.Random(0)) == list(space)


def test_a_constrained_space_past_the_scale_bar_counts_samples_and_searches():
    # 5 * 4^8 = 327 680 raw points, about half of them valid
    def valid(c):
        return (c["a"] + c["b"] + c["c"]) % 2 == 0

    space = SearchSpace(
        Choice("lead", tuple(range(5))),
        *(Choice(name, (0, 1, 2, 3)) for name in "abcdefgh"),
        constraint=valid,
    )
    assert space.raw_size >= 10**5
    assert len(space) == sum(1 for _ in space.candidates()) == 5 * 4**8 // 2

    order = {tuple(c.values()): i for i, c in enumerate(space)}
    drawn = space.sample(200, random.Random(3))
    positions = [order[tuple(c.values())] for c in drawn]
    assert len(set(positions)) == 200 and positions == sorted(positions)
    assert all(valid(c) for c in drawn)

    from repro.apps.registry import AppSpec

    def evaluate(config, device=None):
        return 1.0 + sum(config.values())

    spec = AppSpec(name="scale-bar", backend="triton", space=space, evaluate=evaluate)
    result = search(spec, budget=128, seed=0, measure_top_k=0, cache=ResultCache())
    assert result.strategy == "halving" and result.evaluated <= 128 + 1
    assert result.space_size == len(space)
    assert next(iter(space)) in [c.config for c in result.evaluations]


# -- the sampled pre-filter ---------------------------------------------------------


def _sampled(app, budget, seed):
    result = search(app, budget=budget, seed=seed, measure_top_k=0, cache=ResultCache())
    assert result.strategy == "halving" and result.evaluated <= budget + 1
    return [c.config for c in result.evaluations]


def test_successive_halving_is_seed_deterministic():
    first = _sampled("matmul", budget=96, seed=5)
    assert first == _sampled("matmul", budget=96, seed=5)
    assert first != _sampled("matmul", budget=96, seed=6)


def test_sampled_strategies_always_include_the_paper_config():
    from repro.apps.registry import get_app

    space = get_app("matmul").space
    pool = _sampled("matmul", budget=32, seed=11)
    assert pool[0] == next(iter(space))
    assert len(pool) < len(space)


def test_search_exhaustive_matches_autotune_winner():
    cache = ResultCache()
    result = search("nw", budget=None, measure_top_k=0, cache=cache)
    baseline = autotune("nw")
    assert result.strategy == baseline.strategy == "exhaustive"
    assert result.best.config == baseline.best.config
    assert result.evaluated == len(baseline.evaluations) == result.space_size
    # a budget that covers the space is the same exhaustive scan
    covered = search("nw", budget=result.space_size, measure_top_k=0, cache=cache)
    assert covered.strategy == "exhaustive"
    assert [c.config for c in covered.evaluations] == [c.config for c in result.evaluations]


# -- measured re-rank and fault isolation -------------------------------------------


def test_measure_top_k_larger_than_space_measures_everything():
    result = autotune("transpose", measure_top_k=1000)
    assert len(result.profiles) == len(result.evaluations) == 24
    assert result.best.measured


def test_inexecutable_candidate_is_demoted_not_fatal():
    # lud blocks >= 128 need more static shared memory than any CUDA device
    # allows, so their profiles come back "skipped"; the sweep must survive
    # and the demoted candidate must rank below every measured one
    from repro.tune.tuner import evaluate_configs
    from repro.apps.registry import get_app

    spec = get_app("lud")
    configs = [{"block": block, "cuda_block": 16} for block in (128, 64, 32)]
    candidates = evaluate_configs(spec, configs, cache=ResultCache())
    profiles = measure_candidates(spec, candidates)
    assert [p.status for p in profiles] == ["skipped", "measured", "measured"]
    demoted, ok_64, ok_32 = candidates
    assert not demoted.measured and demoted.metrics["profile_status"] == "skipped"
    assert ok_64.measured and ok_32.measured
    ranked = sorted(candidates, key=type(candidates[0]).rank_key)
    assert ranked[-1] is demoted  # analytic tier sorts below measured tier


@pytest.mark.parametrize("device", ["a100", "h100", "rtx4090"])
def test_search_keeps_walking_past_demoted_candidates(device):
    # on the H100-like spec the analytic ranking leads with inexecutable
    # block-128 configurations; the measured ladder must drain past them and
    # still crown a *measured* winner — the paper's LUD block 64 on every
    # device of the zoo slice.  On the H100 the substrate measures CUDA
    # block 8 (coarsening 8) ahead of 16 (666.6 vs 671.0 us).
    result = search("lud", device=device, budget=256, measure_top_k=4,
                    cache=ResultCache())
    assert result.measured >= 4
    assert result.best.measured
    assert result.best.config["block"] == 64
    assert result.best.config["cuda_block"] == (8 if device == "h100" else 16)


def test_the_measured_rung_measures_the_analytic_ranking_in_order():
    """One ranking: the profiled candidates are a prefix of the analytic order,
    in that order; the executable ones are measured, the demoted ones skipped
    and left at their analytic rank.  A second ranking interleaved into the
    measured budget breaks the prefix."""
    result = search("lud", device="h100", budget=256, measure_top_k=4,
                    cache=ResultCache())
    analytic = sorted(result.evaluations,
                      key=lambda c: replace(c, measured_time_seconds=None).rank_key())
    profiled = analytic[:len(result.profiles)]
    assert [p.config for p in result.profiles] == [c.config for c in profiled]
    demoted = [c for c in profiled if not c.measured]
    assert demoted, "the h100 ranking no longer leads with an inexecutable candidate"
    assert all(c.metrics["profile_status"] == "skipped" for c in demoted)
    assert sum(c.measured for c in analytic) == sum(c.measured for c in profiled) >= 4
    # measured candidates lead; everything else keeps its analytic order
    unmeasured = [id(c) for c in analytic if not c.measured]
    assert [id(c) for c in result.ranked if not c.measured] == unmeasured


@pytest.mark.parametrize("app", ["nw", "transpose"])
def test_search_winner_equals_the_exhaustive_measured_winner(app):
    # on the small spaces exhaustive measurement is the ground truth
    result = search(app, budget=512, measure_top_k=8, cache=ResultCache())
    truth = search(app, budget=None, measure_top_k=result.space_size, cache=ResultCache())
    assert result.best.config == truth.best.config
    if app == "nw":
        assert result.best.config["layout"] not in ("row", "col")
    else:
        assert result.best.config["variant"] == "smem"


# -- device zoo ---------------------------------------------------------------------


def test_device_zoo_lookup():
    from repro.gpusim import A100_80GB, DEVICE_ZOO, get_device

    assert set(DEVICE_ZOO) >= {"a100", "h100", "rtx4090", "orin"}
    assert get_device("a100") is A100_80GB
    assert get_device("H100").num_sms == 132
    assert get_device(A100_80GB) is A100_80GB
    assert get_device(A100_80GB.name) is A100_80GB
    with pytest.raises(ValueError, match="a100"):
        get_device("tpu-v5")


def test_search_winners_are_device_keyed(tmp_path):
    cache = ResultCache(tmp_path / "zoo.json")
    table = TuningTable(cache)
    for device in ("a100", "rtx4090"):
        search("matmul", device=device, budget=192, measure_top_k=2,
               cache=cache, table=table)
    entries = table.entries()
    assert len(entries) == 2
    assert len({e["device"] for e in entries}) == 2
    a100_best = table.best("matmul", "NVIDIA A100 80GB")
    assert a100_best is not None and "BM" in a100_best


# -- tuning tables and service warming ----------------------------------------------


def test_problem_signature_ignores_tuning_axes():
    assert problem_signature({"n": 2048, "block": 64}) == "n=2048"
    assert problem_signature({"block": 64, "cuda_block": 16}) == "default"
    # variant is a tuned axis (the apps search over it), not a problem key
    assert problem_signature({"M": 512, "N": 256, "variant": "nn", "BM": 128}) == (
        "M=512,N=256"
    )


def test_warm_from_table_precompiles_winners(tmp_path):
    from repro.serve import CompileService

    cache = ResultCache(tmp_path / "warm.json")
    table = TuningTable(cache)
    search("transpose", budget=64, measure_top_k=0, cache=cache, table=table)
    with CompileService(workers=2) as service:
        warmed = service.warm_from_table(table)
        assert warmed == 1
        assert service.stats().compiled == 1
        # the request a client would send for the tuned config is now a hit
        from repro.serve import CompileRequest
        from repro.apps.registry import get_app

        spec = get_app("transpose")
        config = table.best("transpose", "NVIDIA A100 80GB")
        service.compile(CompileRequest("transpose", spec.generate_config(config)))
        assert service.stats().memory_hits >= 1


# -- the vectorized LUD analytic path -----------------------------------------------


def test_lud_vectorized_matches_reference_loop_on_every_tuned_shape():
    from repro.apps.lud import LudConfig, lud_performance, lud_performance_vectorized
    from repro.apps.registry import get_app
    from repro.gpusim import DEVICE_ZOO

    shapes = [(c["block"], c["cuda_block"]) for c in get_app("lud").space]
    assert len(shapes) == 27
    for device in DEVICE_ZOO.values():
        for block, cuda_block in shapes:
            config = LudConfig(n=2048, block=block, cuda_block=cuda_block)
            reference = lud_performance(config, device)
            fast = lud_performance_vectorized(config, device)
            assert fast == pytest.approx(reference, rel=1e-9), (device.name, block, cuda_block)
