"""Compilation-service benchmark: thread-service regimes plus the farm SLO gate.

Replays >= 1000 synthetic compile requests drawn from the application
registry's search spaces through :class:`repro.serve.CompileService` and
measures the three regimes the service exists for:

* **cold / 1 worker** — every request submitted one at a time against empty
  caches: the pre-service baseline (each distinct kernel pays full
  generation);
* **cold / N workers** — the same trace batch-submitted to a fresh
  multi-worker service: batching + in-flight dedup;
* **warm batch** — the trace replayed against the warm cache: the steady
  state of a long-running service.

Then the **farm burst replay** (:func:`run_farm_bench`): a real-time
Zipf/Poisson burst trace served by a 4-process :class:`CompileFarm`, warmed
from a tuning table, with one worker SIGKILLed mid-burst.  The SLOs gated
here (and by the ``farm-smoke`` CI job):

* interactive p99.9 latency under :data:`FARM_P999_BOUND_MS`,
* the replay keeps up with the burst (wall time bounded by the trace
  duration plus :data:`FARM_DRAIN_SLACK_S` of drain),
* zero lost requests, zero double compiles, zero errors, zero interactive
  sheds — and the mid-burst kill was absorbed (``restarts >= 1``).

The thread-service acceptance bar is unchanged: warm-cache batch throughput
at least 10x the cold single-request throughput, and every distinct kernel
compiled exactly once per service.

Run standalone to emit the JSON artifact the CI job uploads::

    PYTHONPATH=src python benchmarks/bench_serve.py   # writes BENCH_serve.json

or under pytest for the assertions only.
"""

import json
import time
from pathlib import Path

TOTAL_REQUESTS = 1000
DUPLICATE_FRACTION = 0.4
WORKERS = 4

#: the farm burst-replay shape: steady serving, a 4x burst, a cool-down
FARM_PHASES = (
    ("steady", 1.2, 100.0, 0.9),
    ("burst", 1.2, 400.0, 0.7),
    ("cooldown", 0.8, 80.0, 0.9),
)
FARM_WORKERS = 4
FARM_UNIQUE = 48
FARM_SEED = 7
#: SIGKILL one worker this many trace-seconds in (mid-burst)
FARM_KILL_AT = 1.6
#: interactive tail-latency SLO for the burst replay
FARM_P999_BOUND_MS = 2000.0
#: the farm must drain within this long after the last arrival
FARM_DRAIN_SLACK_S = 2.0


def run_serve_bench() -> dict:
    from repro.serve import CompileService, synthetic_requests

    requests = synthetic_requests(
        total=TOTAL_REQUESTS, duplicate_fraction=DUPLICATE_FRACTION, seed=7
    )
    distinct = len({r.local_key() for r in requests})

    # Regime 1: cold, single worker, one request at a time (the baseline an
    # inline caller experiences, minus any caching at all on first sight).
    with CompileService(workers=1) as cold_service:
        started = time.perf_counter()
        for request in requests:
            cold_service.compile(request)
        cold_seconds = time.perf_counter() - started

        # Regime 3 measured on the same service: the identical trace against
        # the fully warm cache (batch submission, steady-state serving).
        started = time.perf_counter()
        cold_service.submit_batch(requests)
        warm_seconds = time.perf_counter() - started
        # Warm p99 timed over its own samples: the service's reservoir now
        # holds cold and warm passes mixed, whose p99 is a cold compile.
        from repro.obs import percentile

        warm_samples = []
        for request in requests[:200]:
            t0 = time.perf_counter()
            cold_service.compile(request)
            warm_samples.append(time.perf_counter() - t0)
        warm_p99_ms = percentile(sorted(warm_samples), 0.99) * 1e3
        warm_stats = cold_service.stats()

    # Regime 2: cold again, but batch-submitted over N workers.
    with CompileService(workers=WORKERS) as multi_service:
        started = time.perf_counter()
        multi_service.submit_batch(requests)
        multi_seconds = time.perf_counter() - started
        multi_stats = multi_service.stats()

    cold_rps = len(requests) / cold_seconds
    warm_rps = len(requests) / warm_seconds
    return {
        "requests": len(requests),
        "distinct": distinct,
        "duplicate_fraction": DUPLICATE_FRACTION,
        "cold_single_worker": {
            "wall_seconds": cold_seconds,
            "requests_per_second": cold_rps,
        },
        "cold_multi_worker": {
            "workers": WORKERS,
            "wall_seconds": multi_seconds,
            "requests_per_second": len(requests) / multi_seconds,
            "compiled": multi_stats.compiled,
            "deduped": multi_stats.deduped,
        },
        "warm_batch": {
            "wall_seconds": warm_seconds,
            "requests_per_second": warm_rps,
            "p99_ms": warm_p99_ms,
        },
        "warm_over_cold_speedup": warm_rps / cold_rps,
        "stats": warm_stats.as_dict(),
    }


def run_farm_bench() -> dict:
    """The farm burst replay: warm start, real-time arrivals, mid-burst kill."""
    import collections

    from repro.cache import ResultCache
    from repro.serve import BurstPhase, CompileFarm, Rejected, trace_summary, traffic_trace
    from repro.tune.tables import TuningTable

    phases = tuple(
        BurstPhase(name, duration=duration, rate=rate, interactive_fraction=fraction)
        for name, duration, rate, fraction in FARM_PHASES
    )
    duration = sum(p.duration for p in phases)
    trace = traffic_trace(phases=phases, unique=FARM_UNIQUE, seed=FARM_SEED)

    # warm the farm from a tuning table holding the trace's hottest winners —
    # the popular head is exactly what a prior search would have tuned
    popularity = collections.Counter(t.request.local_key() for t in trace)
    hottest = set(key for key, _ in popularity.most_common(8))
    table = TuningTable(ResultCache(None))
    seen = set()
    for timed in trace:
        key = timed.request.local_key()
        if key in hottest and key not in seen:
            seen.add(key)
            table.put(timed.request.app, "bench-device", timed.request.config)

    with CompileFarm(workers=FARM_WORKERS, warm_table=table) as farm:
        warmed = farm.stats().warmed
        started = time.perf_counter()
        futures = []
        killed_pid = None
        for timed in trace:
            lag = timed.at - (time.perf_counter() - started)
            if lag > 0:
                time.sleep(lag)
            if killed_pid is None and timed.at >= FARM_KILL_AT:
                killed_pid = farm.kill_worker(0)
            futures.append(farm.submit(timed.request, lane=timed.lane))
        outcomes = [f.result(timeout=120.0) for f in futures]
        wall_seconds = time.perf_counter() - started
        stats = farm.stats()
        integrity = farm.store.verify_integrity()

    shed = sum(1 for o in outcomes if isinstance(o, Rejected))
    interactive = stats.lane("interactive").as_dict()
    sweep = stats.lane("sweep").as_dict()
    return {
        "phases": [
            {"name": n, "duration": d, "rate": r, "interactive_fraction": f}
            for n, d, r, f in FARM_PHASES
        ],
        "trace": trace_summary(trace),
        "trace_duration_seconds": duration,
        "workers": FARM_WORKERS,
        "warmed": warmed,
        "killed_pid": killed_pid,
        "wall_seconds": wall_seconds,
        "requests_per_second": len(trace) / wall_seconds,
        "served": len(outcomes) - shed,
        "shed": shed,
        "interactive_p999_ms": interactive["latency"]["p999_ms"],
        "interactive": interactive,
        "sweep": sweep,
        "stats": stats.as_dict(),
        "store_integrity": integrity,
        "slo": {
            "p999_bound_ms": FARM_P999_BOUND_MS,
            "drain_bound_seconds": duration + FARM_DRAIN_SLACK_S,
        },
    }


def check_farm_report(report: dict) -> None:
    stats = report["stats"]
    # correctness SLOs: nothing lost, nothing compiled twice, kill absorbed
    assert stats["lost"] == 0, f"{stats['lost']} requests were lost"
    assert stats["double_compiled"] == 0, "a kernel compiled twice farm-wide"
    assert stats["errors"] == 0
    assert stats["restarts"] >= 1, "the mid-burst kill was never absorbed"
    assert report["store_integrity"]["corrupt"] == 0
    assert report["warmed"] > 0, "the tuning table warmed nothing"
    # latency SLO: interactive tail under the burst (kill included)
    assert report["interactive_p999_ms"] <= FARM_P999_BOUND_MS, (
        f"interactive p99.9 {report['interactive_p999_ms']:.0f}ms breaches the "
        f"{FARM_P999_BOUND_MS:.0f}ms SLO"
    )
    # throughput-under-burst SLO: the farm keeps up with arrivals and drains
    assert report["wall_seconds"] <= report["slo"]["drain_bound_seconds"], (
        f"replay took {report['wall_seconds']:.1f}s for a "
        f"{report['trace_duration_seconds']:.1f}s trace: the farm fell behind"
    )
    # the interactive lane never sheds at the default caps
    assert report["interactive"]["shed"] == 0, "interactive traffic was shed"
    assert report["served"] + report["shed"] == report["trace"]["requests"]


def check_report(report: dict) -> None:
    assert report["requests"] >= 1000
    assert report["distinct"] < report["requests"], "traffic must contain duplicates"
    # the tentpole acceptance bar: warm batch serving is at least an order of
    # magnitude faster than cold one-at-a-time compilation
    assert report["warm_over_cold_speedup"] >= 10.0, (
        f"warm/cold speedup {report['warm_over_cold_speedup']:.1f}x below the 10x bar"
    )
    # each distinct kernel compiled exactly once per service, in both regimes
    assert report["stats"]["compiled"] == report["distinct"]
    assert report["cold_multi_worker"]["compiled"] == report["distinct"]
    assert report["stats"]["errors"] == 0


def test_serve_bench():
    check_report(run_serve_bench())


def test_farm_bench():
    check_farm_report(run_farm_bench())


if __name__ == "__main__":
    # one replay serves both purposes in CI: the assertions run on the same
    # report that becomes the uploaded artifact
    artifact = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    report = run_serve_bench()
    check_report(report)
    report["farm"] = run_farm_bench()
    check_farm_report(report["farm"])
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {artifact}")
