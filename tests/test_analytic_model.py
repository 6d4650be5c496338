"""The analytic model's numbers, pinned, and its pool form held to them.

``tests/golden/analytic_times.json`` records, per registered app, a digest
of ``repr(spec.evaluate(config, device))`` over every configuration of the
app's space on every :data:`~repro.gpusim.DEVICE_ZOO` device.  A change that
moves any analytic time, by one ulp or by a type, fails here.  A change that
moves a model on purpose re-records the file with
``PYTHONPATH=src python tests/test_analytic_model.py --write`` and says so.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.apps.registry import AppSpec, available_apps, get_app
from repro.gpusim import DEVICE_ZOO
from repro.tune import Choice, SearchSpace
from repro.tune.tuner import evaluate_configs

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "analytic_times.json"


def analytic_digests() -> dict:
    """``{app: {"evaluations": n, "digest": sha256}}`` over every config x zoo device."""
    out = {}
    for name in available_apps():
        spec = get_app(name)
        configs = list(spec.space)
        digest = hashlib.sha256()
        for device in DEVICE_ZOO.values():
            for config in configs:
                digest.update(repr(spec.evaluate(config, device=device)).encode())
                digest.update(b"\n")
        out[name] = {"evaluations": len(configs) * len(DEVICE_ZOO),
                     "digest": digest.hexdigest()}
    return out


def test_every_analytic_time_matches_its_recorded_digest():
    recorded = json.loads(GOLDEN_PATH.read_text())
    assert analytic_digests() == recorded


# -- the pool form ------------------------------------------------------------------


def _assert_pool_matches(spec, configs, device):
    pooled = spec.evaluate_pool(configs, device=device)
    single = [spec.evaluate(config, device=device) for config in configs]
    assert [type(t) for t in pooled] == [type(t) for t in single]
    assert [repr(t) for t in pooled] == [repr(t) for t in single]


#: the apps with a pool form
POOLED = ["matmul", "grouped_gemm", "lud"]


@pytest.mark.parametrize("app", POOLED)
@pytest.mark.parametrize("device", list(DEVICE_ZOO))
def test_the_pool_form_is_bit_identical_over_the_whole_space(app, device):
    spec = get_app(app)
    _assert_pool_matches(spec, list(spec.space), DEVICE_ZOO[device])


@pytest.mark.parametrize("app", ["matmul", "grouped_gemm"])
@pytest.mark.parametrize("device", list(DEVICE_ZOO))
def test_a_pool_mixing_problem_sizes_is_bit_identical(app, device):
    # figure harnesses and the measured profiler pass M/N/K (and groups) per
    # config; sizes below 512 reach every efficiency tier, and a tile as wide
    # as the problem floors the DRAM passes at one
    spec = get_app(app)
    rng = random.Random(11)
    configs = []
    for config in spec.space.sample(60, rng):
        for axis in ("M", "N", "K") + (("groups",) if app == "grouped_gemm" else ()):
            if rng.random() < 0.6:
                config[axis] = rng.choice((256, 512, 1024, 2048, 4096, 8192)
                                          if axis != "groups" else (1, 2, 8, 64))
        configs.append(config)
    _assert_pool_matches(spec, configs, DEVICE_ZOO[device])
    # one problem size set by every config, and by none but one
    _assert_pool_matches(spec, [{**c, "M": 512} for c in configs], DEVICE_ZOO[device])
    _assert_pool_matches(spec, configs[:1] + [dict(c) for c in spec.space.sample(8, rng)],
                         DEVICE_ZOO[device])


@pytest.mark.parametrize("device", list(DEVICE_ZOO))
def test_a_lud_pool_mixing_problem_sizes_is_bit_identical(device):
    # fig12b passes n per config, and a pool runs one pass per (n, block):
    # shuffled sizes split the space into groups of every step count, down
    # to one step (n == block: no internal step at all)
    spec = get_app("lud")
    rng = random.Random(12)
    configs = []
    for config in list(spec.space) * 3:
        sizes = [n for n in (256, 512, 1024, 4096, 8192) if n % config["block"] == 0]
        if rng.random() < 0.7:
            config = {**config, "n": rng.choice(sizes + [config["block"]])}
        configs.append(config)
    rng.shuffle(configs)
    assert {128, 256} <= {config["block"] for config in configs}
    assert any(config.get("n") == config["block"] for config in configs)
    _assert_pool_matches(spec, configs, DEVICE_ZOO[device])
    # fig12b's own pool: one size set by every config
    figure = spec.space.subspace(block=(16, 32, 64), cuda_block=(16,))
    figure = figure.extended(Choice("n", (1024,)))
    _assert_pool_matches(spec, list(figure), DEVICE_ZOO[device])


@pytest.mark.parametrize("app", POOLED)
def test_a_pool_of_one_and_of_none(app):
    spec = get_app(app)
    _assert_pool_matches(spec, [next(iter(spec.space))], DEVICE_ZOO["a100"])
    assert spec.evaluate_pool([], device=DEVICE_ZOO["a100"]) == []


def test_evaluate_all_uses_the_pool_once_and_falls_back_per_config():
    calls = []

    def pool(configs, device=None):
        calls.append(len(configs))
        return [float(c["x"]) for c in configs]

    def single(config, device=None):
        raise AssertionError("the pool form is there: no per-config call")

    space = SearchSpace(Choice("x", (1, 2, 3)))
    spec = AppSpec(name="pooled", backend="triton", space=space, evaluate=single,
                   evaluate_pool=pool)
    assert spec.evaluate_all(list(space), device=None) == [1.0, 2.0, 3.0]
    assert calls == [3]
    assert [c.time_seconds for c in evaluate_configs(spec, list(space))] == [1.0, 2.0, 3.0]
    assert calls == [3, 3]

    per_config = AppSpec(name="single", backend="triton", space=space,
                         evaluate=lambda config, device=None: 2.0 * config["x"])
    assert per_config.evaluate_all(list(space), device=None) == [2.0, 4.0, 6.0]

    short = AppSpec(name="short", backend="triton", space=space, evaluate=single,
                    evaluate_pool=lambda configs, device=None: [1.0])
    with pytest.raises(ValueError, match="1 times for 3 configurations"):
        short.evaluate_all(list(space), device=None)


def test_evaluate_all_costs_a_lud_pool_in_one_call(monkeypatch):
    from repro.apps import lud

    calls = []
    pool = lud.lud_performance_pool

    def counted(configs, device):
        calls.append(len(configs))
        return pool(configs, device)

    def single(config, device):
        raise AssertionError("LUD has a pool form: no per-config call")

    monkeypatch.setattr(lud, "lud_performance_pool", counted)
    monkeypatch.setattr(lud, "lud_performance_vectorized", single)
    spec = get_app("lud")
    configs = list(spec.space)
    times = spec.evaluate_all(configs, device=DEVICE_ZOO["a100"])
    assert calls == [27] and len(times) == 27
    assert [c.time_seconds for c in evaluate_configs(spec, configs)] == times
    assert calls == [27, 27]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_analytic_model.py --write")
    GOLDEN_PATH.write_text(json.dumps(analytic_digests(), indent=1, sort_keys=True) + "\n")
