"""Per-layer metrics: what the traced run reads off ``repro.obs`` and the probes.

Three sources, all from outside the program:

* **self-times** — ``repro.obs.attribution`` over the spans the program
  already records plus the ``bench.*`` spans the workloads put around their
  calls into it.  A layer's self-time is its spans minus their children, so
  the published rows sum to the traced wall (``bench.round_wall_ms``);
* **counts** — ``REGISTRY.snapshot()`` deltas, ``record_proof_queries()``
  and the stats objects the workloads read (``FarmStats``, search results);
* **probes** — small timed loops around one layer's public functions, run
  only on the workload where that layer matters (0 elsewhere).
"""

from __future__ import annotations

import random
import shutil
import statistics
import time

from harness import nearest_rank, scratch_dir

#: span name -> the per-layer metric its self-time is published under; a span
#: not listed lands in ``bench.other_self_ms`` so the rows still sum to the wall
SPAN_METRIC = {
    "codegen.lower": "codegen.lower_self_ms",
    "codegen.render": "codegen.render_self_ms",
    # serve.execute wraps the app's generator: minus lower and render it is
    # layout construction and context building in core/apps
    "serve.execute": "codegen.build_self_ms",
    "symbolic.range": "symbolic.range_self_ms",
    # submit -> result minus the worker's spans: keys, hand-off, store put
    "bench.compile": "serve.dispatch_self_ms",
    "serve.compile": "serve.dispatch_self_ms",
    "serve.store.probe": "serve.dispatch_self_ms",
    "search.prefilter": "tune.prefilter_self_ms",
    "tune.model": "tune.model_self_ms",
    "search.model": "tune.model_self_ms",
    "search.measure": "tune.measure_self_ms",
    "tune.search": "tune.driver_self_ms",
    "tune.autotune": "tune.driver_self_ms",
    "bench.sweep": "tune.driver_self_ms",
    "perf.profile": "perf.profile_self_ms",
    "perf.resolve": "perf.resolve_self_ms",
    "perf.adapt": "perf.adapt_self_ms",
    "vm.execute": "vm.execute_self_ms",
    "bench.launch": "vm.execute_self_ms",
    "bench.farm_start": "serve.spawn_self_ms",
    "bench.farm_close": "serve.close_self_ms",
    "bench.submit": "serve.submit_self_ms",
    # the generator blocked on a future: supervisor + worker time
    "bench.wait": "serve.wait_self_ms",
    "bench.cold_pass": "bench.harness_self_ms",
    "bench.restart_pass": "bench.harness_self_ms",
    "bench.round": "bench.harness_self_ms",
    "bench.traced": "bench.harness_self_ms",
}


def self_times(events: list[dict], rounds: int) -> tuple[dict[str, float], dict]:
    """Per-round layer self-times (ms) of the traced rounds.

    The compile service's single worker thread runs strictly inside the
    generator thread's blocking call, so its spans are folded onto the
    generator's thread before nesting is rebuilt: one tree, whose self-times
    sum to the root.  Returns the metric rows and the sum check.
    """
    from repro.obs import attribution

    root = next(e for e in events if e.get("name") == "bench.traced")
    folded = [dict(e, tid=root["tid"]) for e in events if e.get("ph") == "X"]
    report = attribution(folded, root_name="bench.traced")
    rows: dict[str, float] = {}
    for name, stage in report["stages"].items():
        metric = SPAN_METRIC.get(name, "bench.other_self_ms")
        rows[metric] = rows.get(metric, 0.0) + stage["self_ms"] / rounds
    rows["bench.round_wall_ms"] = report["wall_ms"] / rounds
    stages = report["stages"]
    rows["codegen.lower_count"] = stages.get("codegen.lower", {}).get("count", 0) / rounds
    launches = stages.get("vm.execute", {}).get("count", 0) + \
        stages.get("bench.launch", {}).get("count", 0)
    rows["vm.execute_count"] = launches / rounds
    check = {
        "wall_ms": report["wall_ms"],
        "self_sum_ms": report["self_sum_ms"],
        "rounds": rounds,
        "spans": report["spans"],
        "stages": {name: {"count": s["count"], "self_ms": s["self_ms"]}
                   for name, s in stages.items()},
    }
    return rows, check


def symbolic_counts(before: dict, after: dict, queries: list, rounds: int) -> dict[str, float]:
    """Cache-hit shares, proof outcomes and intern growth over the traced rounds."""
    from repro.obs import REGISTRY

    delta = REGISTRY.delta(before, after)

    def share(kind: str) -> float:
        hits = delta.get(f"repro.symbolic.cache.{kind}_hits", 0.0)
        total = hits + delta.get(f"repro.symbolic.cache.{kind}_misses", 0.0)
        return hits / total if total else 0.0

    proven = sum(1 for _, _, ok in queries if ok)
    return {
        "symbolic.proof_queries": len(queries) / rounds,
        "symbolic.proven_share": proven / len(queries) if queries else 0.0,
        "symbolic.simplify_cache_hit_share": share("simplify"),
        "symbolic.fixpoint_cache_hit_share": share("fixpoint"),
        "symbolic.proof_cache_hit_share": share("proof"),
        "symbolic.range_cache_hit_share": share("range"),
        "symbolic.intern_nodes_per_round":
            (after.get("repro.symbolic.cache.interned_nodes", 0.0)
             - before.get("repro.symbolic.cache.interned_nodes", 0.0)) / rounds,
        "symbolic.guards_eliminated": delta.get("repro.symbolic.guards_eliminated", 0.0) / rounds,
        "symbolic.proofs_static": delta.get("repro.symbolic.proofs_static", 0.0) / rounds,
        "symbolic.proofs_fallback": delta.get("repro.symbolic.proofs_fallback", 0.0) / rounds,
        "vm.fallbacks": delta.get("repro.vm.fallbacks", 0.0),
    }


def _best_of(fn, repeats: int = 5) -> float:
    """Fastest of ``repeats`` timings of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- probes -------------------------------------------------------------------------


def probe_obs() -> dict[str, float]:
    """What one ``span()`` costs with the tracer off and on."""
    from repro.obs import Tracer, span, tracing

    calls = 50_000

    def disabled():
        with tracing(False):
            for _ in range(calls):
                with span("bench.noop", "bench"):
                    pass

    def enabled():
        tracer = Tracer(enabled=True, max_events=calls)
        for _ in range(calls // 10):
            with tracer.span("bench.noop", "bench"):
                pass

    return {
        "obs.span_disabled_ns": _best_of(disabled) / calls * 1e9,
        "obs.span_enabled_ns": _best_of(enabled) / (calls // 10) * 1e9,
    }


def probe_symbolic(seed: int) -> dict[str, float]:
    """The symbolic fuzzer's trial rate and the range-analysis gate's wall."""
    from repro.check import fuzz_symbolic
    from repro.symbolic.bench import run as range_bench

    trials = 200
    fuzz_seconds = _best_of(lambda: fuzz_symbolic(trials, seed=seed), repeats=3)
    return {
        "symbolic.fuzz_trials_per_s": trials / fuzz_seconds,
        "symbolic.range_probe_ms": _best_of(range_bench, repeats=2) * 1e3,
    }


def probe_core() -> dict[str, float]:
    """``apply``/``inv`` round trip over the Table-I layouts and the library
    permutations (every logical index of each)."""
    from repro import (GroupBy, RegP, Row, TileBy, antidiagonal, hilbert2d, morton,
                       xor_swizzle)

    layouts = [
        TileBy([2, 2], [4, 3]).OrderBy(Row(8, 6)),
        GroupBy([6, 6]).OrderBy(RegP([2, 3, 2, 3], [1, 3, 2, 4])),
        GroupBy([2, 2, 2, 2, 2]).OrderBy(RegP([2, 2, 2, 2, 2], [5, 2, 4, 3, 1])),
        GroupBy([2, 2], [4, 4]).OrderBy(Row(8, 8)),
        GroupBy([17, 17]).OrderBy(antidiagonal(17)),
        GroupBy([16, 16]).OrderBy(morton(16)),
        GroupBy([16, 16]).OrderBy(xor_swizzle(16, 16)),
        GroupBy([16, 16]).OrderBy(hilbert2d(16)),
    ]

    def round_trip():
        for layout in layouts:
            for index in layout.iter_logical_indices():
                if tuple(layout.inv(layout.apply(*index))) != tuple(index):
                    raise AssertionError(f"{layout!r} is not a bijection at {index}")

    return {"core.bijection_probe_ms": _best_of(round_trip, repeats=3) * 1e3}


def probe_cache(requests: list) -> dict[str, float]:
    """The cache tiers' primitive costs, with the corpus's real kernel payloads."""
    from repro.cache import ClaimRegistry, ResultCache, ShardedFileStore, ShardedLRUCache
    from repro.serve import default_compiler
    from repro.serve.service import kernel_payload

    root = scratch_dir("cache-probe-")
    payloads = [kernel_payload(default_compiler(r)) for r in requests]
    local_keys = [r.local_key() for r in requests]
    started = time.perf_counter()
    stable_keys = [r.stable_key() for r in requests]
    stable_key_us = (time.perf_counter() - started) / len(requests) * 1e6
    count = len(requests)

    lru = ShardedLRUCache()
    lru_put = _best_of(lambda: [lru.put(k, p) for k, p in zip(local_keys, payloads)])
    lru_get = _best_of(lambda: [lru.lookup(k) for k in local_keys])
    files = ShardedFileStore(root / "files")
    file_put = _best_of(lambda: [files.put(k, p) for k, p in zip(stable_keys, payloads)],
                        repeats=3)
    file_get = _best_of(lambda: [files.get(k) for k in stable_keys], repeats=3)
    json_store = ResultCache(root / "store.json")

    def fill_and_save():
        # a put per save: an unchanged store skips the write
        for key, payload in zip(stable_keys, payloads):
            json_store.put(key, payload)
        json_store.save()

    save = _best_of(fill_and_save, repeats=3)
    claims = ClaimRegistry(root / "claims", owner="probe")

    def take_and_release():
        for key in stable_keys:
            claim = claims.acquire(key)
            claim.release()

    claim = _best_of(take_and_release, repeats=3)
    shutil.rmtree(root, ignore_errors=True)
    return {
        "cache.lru_put_us": lru_put / count * 1e6,
        "cache.lru_get_us": lru_get / count * 1e6,
        "cache.filestore_put_us": file_put / count * 1e6,
        "cache.filestore_get_us": file_get / count * 1e6,
        "cache.resultcache_save_ms": save * 1e3,
        "cache.claim_acquire_us": claim / count * 1e6,
        "serve.stable_key_us": stable_key_us,
    }


def probe_tune(workload) -> dict[str, float]:
    """``size()`` + ``sample()`` on the sampled spaces, and what one analytic
    ``evaluate`` costs per app (the unit ``tune.model`` is made of)."""
    out = {}
    rng = random.Random(workload.seed)
    sampled = [app for app, driver, _ in workload.sweeps if driver == "search"]

    def size_and_sample():
        for app in sampled:
            space = workload.specs[app].space
            space.size()
            space.sample(workload.budget, random.Random(workload.seed))

    out["tune.space_sample_probe_ms"] = _best_of(size_and_sample, repeats=2) * 1e3
    for app, _, _ in workload.sweeps:
        spec = workload.specs[app]
        configs = workload.space_of(app).sample(16, rng)
        out[f"gpusim.evaluate_us_per_config.{app}"] = \
            _best_of(lambda: [spec.evaluate(c) for c in configs], repeats=2) / len(configs) * 1e6
    return out


# -- what each workload's rounds say about its own layer ----------------------------


def compile_rows(workload, best: dict[str, float], rounds: list) -> dict[str, float]:
    """Per-backend compile latency (median over the backend's kernels of each
    kernel's fastest compile) and the durable store's size per kernel."""
    from repro.apps.registry import get_app

    by_backend: dict[str, list[float]] = {}
    for op, request, _ in workload.ops:
        by_backend.setdefault(get_app(request.app).backend, []).append(best[op])
    rows = {f"codegen.generate_ms.{backend}": statistics.median(values) * 1e3
            for backend, values in by_backend.items()}
    rows["cache.store_bytes_per_kernel"] = rounds[-1].extra["store_bytes"] / len(workload.ops)
    return rows


def tune_rows(workload, best: dict[str, float], rounds: list) -> dict[str, float]:
    rows = {f"tune.sweep_ms.{app}": seconds * 1e3 for app, seconds in best.items()}
    rows["tune.candidates_evaluated"] = rounds[-1].extra["evaluated"]
    rows["tune.candidates_measured"] = rounds[-1].extra["measured"]
    rows["tune.best_modeled_us_geomean"] = statistics.geometric_mean(
        [winner.time_seconds * 1e6 for winner in workload.winners.values()])
    return rows


def launch_rows(workload, best: dict[str, float], rounds: list) -> dict[str, float]:
    return {f"vm.launch_ms.{app}": seconds * 1e3 for app, seconds in best.items()}


def farm_rows(workload, best: dict[str, float], rounds: list,
              inprocess_p50: float) -> dict[str, float]:
    """First-touch, restart and repeat-request latency, dedup and the ledgers."""
    restart_best: dict[str, float] = {}
    for one in rounds:
        for key, seconds in one.extra["restart_first_touch"].items():
            restart_best[key] = min(seconds, restart_best.get(key, seconds))
    first = sorted(best.values())
    restart = sorted(restart_best.values())
    hits = sorted(s for one in rounds for s in one.extra["memory_hit_latency"])
    last = rounds[-1].extra
    return {
        "serve.restart_first_touch_p50_ms": nearest_rank(restart, 0.5) * 1e3,
        "serve.restart_ops_per_s":
            rounds[0].ops / min(one.extra["restart_wall"] for one in rounds),
        "serve.memory_hit_p50_us": nearest_rank(hits, 0.5) * 1e6,
        "serve.memory_hit_p99_us": nearest_rank(hits, 0.99) * 1e6,
        # what the farm adds to a compile: first-touch p50 minus the p50 of
        # compiling the same requests in this process
        "serve.dispatch_overhead_ms": (nearest_rank(first, 0.5) - inprocess_p50) * 1e3,
        "serve.dedup_share": last["coalesced"] / last["submitted"],
        "serve.worker_spawn_s": statistics.median(one.extra["spawn_seconds"] for one in rounds),
        "serve.shed": sum(one.extra["shed"] for one in rounds),
        "serve.redriven": sum(one.extra["redriven"] for one in rounds),
        "serve.double_compiled": sum(one.extra["double_compiled"] for one in rounds),
        "serve.lost": sum(one.extra["lost"] for one in rounds),
        "cache.store_bytes_per_kernel": last["store_bytes_per_kernel"],
    }


def inprocess_compile_p50(workload) -> float:
    """p50 seconds of compiling the farm's requests in this process."""
    from repro.serve import default_compiler

    seconds = []
    for request in workload.requests:
        started = time.perf_counter()
        default_compiler(request)
        seconds.append(time.perf_counter() - started)
    return nearest_rank(sorted(seconds), 0.5)
