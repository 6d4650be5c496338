"""Smoke test of the measured ladder (collected by the tier-1 pytest command).

Every workload runs once untraced and once traced at ``--smoke`` size, each
in its own subprocess, two at a time.  Nothing here asserts a speed.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7
LISTED = [w["name"] for w in SPEC["workloads"]]
WORKLOADS = LISTED + ["farm_replay"]  # runs like the others; no bound fits it (README)


def _smoke(job):
    workload, trace = job
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke",
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    suffix = "-layers" if trace else ""
    envelope = json.loads((BENCH / "out" / f"{workload}{suffix}.json").read_text())
    return result, envelope


@pytest.fixture(scope="module")
def runs():
    jobs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(_smoke, jobs)))


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = LISTED + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(LISTED) <= 8 and len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_lists_exactly_the_declared_metrics(runs, workload, trace):
    result, envelope = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"] and isinstance(reading["value"], float)
    assert envelope["unlisted"] == []  # a row the workload computed but BENCHMARK.json lacks
    if not trace:
        assert all(reading["value"] > 0 for reading in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_envelope_schema(runs, workload):
    for trace in (0, 1):
        envelope = runs[workload, trace][1]
        assert {"schema", "workload", "trace", "seed", "seconds", "smoke", "sha", "version",
                "engine", "nproc", "host_calibration_ms", "noisy", "correct", "attempted",
                "failed", "metrics", "inputs_digest", "kernels", "setup_seconds",
                "detail"} <= set(envelope)
        assert envelope["schema"] == 1 and envelope["workload"] == workload
        assert envelope["seed"] == SEED and len(envelope["host_calibration_ms"]) == 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_inputs_and_the_same_kernels(runs, workload):
    # the untraced and the traced run are two processes on one seed
    first, second = runs[workload, 0][1], runs[workload, 1][1]
    assert first["inputs_digest"] == second["inputs_digest"]
    assert first["kernels"] == second["kernels"]
    assert first["kernels"]["index_ops"] > 0 and first["kernels"]["source_bytes"] > 0


def test_zipf_trace_is_a_pure_function_of_the_seed():
    import random

    from workloads import zipf_trace

    trace = zipf_trace(17, 300, 1.1, random.Random(SEED))
    assert trace == zipf_trace(17, 300, 1.1, random.Random(SEED))
    assert trace != zipf_trace(17, 300, 1.1, random.Random(SEED + 1))
    assert len(trace) == 300 and set(trace) == set(range(17))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_the_root_wall(runs, workload):
    result, envelope = runs[workload, 1]
    check = envelope["detail"]["attribution"]
    assert check["wall_ms"] > 0
    assert abs(check["self_sum_ms"] - check["wall_ms"]) <= 0.01 * check["wall_ms"]
    rows = {name: reading["value"] for name, reading in result["metrics"].items()}
    published = sum(value for name, value in rows.items() if name.endswith("_self_ms"))
    assert abs(published - rows["bench.round_wall_ms"]) <= 0.01 * rows["bench.round_wall_ms"]


def test_compare_applies_bounds_and_directions():
    from compare import classify

    lower = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}
    higher = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}
    count = {"name": "index_ops", "unit": "count", "better": "lower", "bound": 0.001}
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert classify(steady, [v * 1.2 for v in steady], lower)[0] == "regressed"
    assert classify(steady, [v * 0.8 for v in steady], lower)[0] == "improved"
    assert classify(steady, [v * 0.8 for v in steady], higher)[0] == "regressed"
    assert classify(steady, [v * 1.02 for v in steady], lower)[0] == "unchanged"
    wild = [10.0, 14.0, 8.0, 12.5, 9.0]
    assert classify(wild, [v * 1.05 for v in wild], lower)[0] == "unresolved"
    assert classify([445.0] * 3, [446.0] * 3, count)[0] == "regressed"
    assert classify([445.0] * 3, [445.0] * 3, count)[0] == "unchanged"
