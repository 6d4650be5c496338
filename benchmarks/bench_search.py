"""Scalable-search benchmark: 10^4+-point spaces, a device zoo, bounded time.

The acceptance run for the tuning driver (:func:`repro.tune.search`):

* **scale** — the matmul and LUD spaces (each >= 10^4 valid configurations)
  are searched end to end — seeded pre-filter, analytic ranking, measured
  re-rank — on every device in a three-member zoo slice (A100, H100,
  RTX 4090), each search finishing in interactive time;
* **fidelity** — on the small spaces (NW, transpose) where exhaustive
  *measured* tuning is feasible, the search winner must equal the
  exhaustive-measured ground-truth winner;
* **learning** — a repeated LUD search on the shared store must pick up the
  cost model trained from the first run's profiles;
* **persistence** — per-device winners land in a tuning table, and
  ``CompileService.warm_from_table`` pre-compiles them so a fresh service
  answers the first tuned-kernel request without compiling.

Run standalone to emit the JSON artifact the CI job uploads::

    PYTHONPATH=src python benchmarks/bench_search.py   # writes BENCH_search.json

or under pytest for the assertions only.
"""

import json
import time
from pathlib import Path

DEVICES = ("a100", "h100", "rtx4090")
BIG_APPS = ("matmul", "lud")
GROUND_TRUTH_APPS = ("nw", "transpose")
BUDGET = 512
#: >= repro.tune.model.MIN_SAMPLES, so one measured sweep is enough to train
#: the cost model the repeat search picks up
MEASURE_TOP_K = 8
#: per-search wall budget (seconds) — generous for loaded CI workers; the
#: searches run in ~1-3 s locally
WALL_BUDGET_SECONDS = 60.0


def run_search_bench() -> dict:
    from repro.tune import ProfileStore, ResultCache, TuningTable, search

    cache = ResultCache()
    store = ProfileStore(cache)
    table = TuningTable(cache)
    report: dict = {"devices": {}, "ground_truth": {}, "total_wall_seconds": 0.0}
    started = time.perf_counter()

    # -- scale: >= 10^4-point spaces on every zoo device -----------------------
    for device in DEVICES:
        rows = {}
        for app in BIG_APPS:
            result = search(app, device=device, budget=BUDGET,
                            measure_top_k=MEASURE_TOP_K, cache=cache,
                            profile_store=store, table=table)
            rows[app] = result.summary()
        report["devices"][device] = rows

    # -- learning: the second search on a device picks up the trained model ---
    relearn = search("lud", device="a100", budget=BUDGET, seed=1,
                     measure_top_k=MEASURE_TOP_K, cache=cache,
                     profile_store=store, table=table)
    report["relearn"] = relearn.summary()

    # -- fidelity: small spaces vs exhaustive-measured ground truth -----------
    for app in GROUND_TRUTH_APPS:
        result = search(app, device="a100", budget=BUDGET,
                        measure_top_k=MEASURE_TOP_K, cache=cache,
                        profile_store=store, table=table)
        truth = search(app, device="a100", budget=None,
                       measure_top_k=result.space_size, cache=ResultCache())
        report["ground_truth"][app] = {
            "search": result.summary(),
            "exhaustive_measured": truth.summary(),
            "winner_matches": result.best.config == truth.best.config,
        }

    # -- persistence: tuning table warms a fresh service ----------------------
    from repro.serve import CompileService

    with CompileService(workers=2) as service:
        warmed = service.warm_from_table(table)
        stats = service.stats()
    report["warm_from_table"] = {
        "table_rows": len(table),
        "requests": warmed,
        "compiled": stats.compiled,
    }

    report["total_wall_seconds"] = time.perf_counter() - started
    return report


def check_report(report: dict) -> None:
    assert set(report["devices"]) == set(DEVICES)
    for device, rows in report["devices"].items():
        for app in BIG_APPS:
            summary = rows[app]
            # the tentpole scale bar: a >= 10^4-candidate space searched end
            # to end (analytic pre-filter + measured re-rank) in bounded time
            assert summary["space_size"] >= 10_000, (
                f"{app}: space shrank to {summary['space_size']}"
            )
            assert summary["candidates_measured"] >= 1
            assert summary["profiles_failed"] == 0
            assert summary["wall_seconds"] < WALL_BUDGET_SECONDS, (
                f"{app} on {device}: {summary['wall_seconds']:.1f}s "
                f"over the {WALL_BUDGET_SECONDS:.0f}s budget"
            )
            assert summary["best_measured_time_ms"], f"{app}: winner was not measured"
        # the paper's LUD winner survives the grown space on every device
        lud_best = rows["lud"]["best_config"]
        assert lud_best["block"] == 64 and lud_best["cuda_block"] == 16, (
            f"lud winner drifted on {device}: {lud_best}"
        )

    # repeated search on a shared store uses the learned cost model
    assert report["relearn"]["model_used"], "second lud search ignored the trained model"
    assert report["relearn"]["model_samples"] >= 6

    # where exhaustive measurement is feasible the search must agree with it
    for app, row in report["ground_truth"].items():
        assert row["winner_matches"], (
            f"{app}: search winner {row['search']['best_config']} != exhaustive "
            f"ground truth {row['exhaustive_measured']['best_config']}"
        )
    nw_best = report["ground_truth"]["nw"]["search"]["best_config"]
    assert nw_best["layout"] not in ("row", "col")
    assert report["ground_truth"]["transpose"]["search"]["best_config"]["variant"] == "smem"

    # the tuning table holds per-device winners and warms a fresh service
    warm = report["warm_from_table"]
    assert warm["table_rows"] >= len(DEVICES) * len(BIG_APPS)
    assert warm["requests"] >= 1
    assert report["total_wall_seconds"] < 10 * WALL_BUDGET_SECONDS


def test_search_smoke():
    check_report(run_search_bench())


if __name__ == "__main__":
    # one run serves both purposes in CI: the assertions run on the same
    # report that becomes the uploaded artifact
    artifact = Path(__file__).resolve().parent.parent / "BENCH_search.json"
    report = run_search_bench()
    check_report(report)
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {artifact}")
