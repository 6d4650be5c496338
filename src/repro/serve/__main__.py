"""``python -m repro.serve`` — replay synthetic compile traffic.

Two modes share one CLI:

**Thread-service replay** (the default) drives the in-process
:class:`~repro.serve.service.CompileService` with a deterministic trace and
reports throughput plus the full ``ServiceStats`` snapshot as JSON::

    PYTHONPATH=src python -m repro.serve --requests 500 --workers 4 --passes 2

The second pass replays the identical trace against the now-warm cache,
which is the service's headline effect: warm throughput is dictionary-lookup
bound while the cold pass pays for each distinct compilation once.

**Farm replay** (``--farm``) spins up the multi-process
:class:`~repro.serve.farm.CompileFarm` and replays a timed burst trace
(Zipf popularity, Poisson arrivals, configurable phases) against it::

    PYTHONPATH=src python -m repro.serve --farm --workers 4 \\
        --phases steady:1.5:120:0.9,burst:1.5:480:0.7,cooldown:1:80:0.9

``--speed`` scales replay wall-time (2 = twice as fast; 0 = submit the
whole trace immediately — the deterministic mode the replay tests compare
across worker counts); ``--kill-worker-at T`` SIGKILLs a worker ``T``
trace-seconds in, exercising the restart/re-drive path mid-burst.  The
report's ``trace`` block is a pure function of the seed — identical between
``--workers 1`` and ``--workers 4``.

With ``--metrics`` the replay also prints the process registry
(:data:`repro.obs.REGISTRY` — the symbolic cache, proof and farm-event
counters; the service's own ledger is the report's ``stats`` / ``farm``
block) in Prometheus text exposition; set ``REPRO_TRACE=1`` (or pass
``--trace PATH``) to export the replay as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from ..obs import REGISTRY, export_trace, set_tracing, span, trace_enabled
from .admission import DEFAULT_LIMITS, LANE_INTERACTIVE, LANE_SWEEP
from .service import CompileService
from .traffic import (
    DEFAULT_PHASES,
    BurstPhase,
    generating_apps,
    synthetic_requests,
    trace_summary,
    traffic_trace,
)

__all__ = ["main", "parse_phases", "run_farm_replay", "run_replay"]


def parse_phases(text: str) -> tuple[BurstPhase, ...]:
    """Parse ``name:duration:rate[:interactive_fraction],...`` into phases."""
    phases = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"phase {chunk!r} is not name:duration:rate[:interactive_fraction]"
            )
        name, duration, rate = parts[0], float(parts[1]), float(parts[2])
        fraction = float(parts[3]) if len(parts) == 4 else 0.8
        phases.append(BurstPhase(name, duration=duration, rate=rate,
                                 interactive_fraction=fraction))
    if not phases:
        raise ValueError("no phases parsed")
    return tuple(phases)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Replay synthetic layout-compilation traffic against the service.",
    )
    parser.add_argument("--apps", default=None,
                        help="comma-separated app names (default: every app that generates kernels)")
    parser.add_argument("--requests", type=int, default=200,
                        help="requests per pass (default: 200)")
    parser.add_argument("--workers", type=int, default=4,
                        help="thread-pool size (default: 4)")
    parser.add_argument("--duplicates", type=float, default=0.5,
                        help="fraction of the trace that re-requests earlier configs (default: 0.5)")
    parser.add_argument("--passes", type=int, default=2,
                        help="replays of the same trace; pass 2+ hits a warm cache (default: 2)")
    parser.add_argument("--seed", type=int, default=0, help="traffic RNG seed (default: 0)")
    parser.add_argument("--shards", type=int, default=8,
                        help="in-memory cache shards (default: 8)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persistent kernel-store JSON path (default: memory tier only)")
    parser.add_argument("--json", default=None, metavar="PATH", dest="json_path",
                        help="also write the report to this file")
    parser.add_argument("--metrics", action="store_true",
                        help="print the unified metrics registry in Prometheus text exposition")
    parser.add_argument("--trace", default=None, metavar="PATH", dest="trace_path",
                        help="export the replay as Chrome trace-event JSON to this file "
                             "(implies tracing on)")
    farm = parser.add_argument_group("farm replay (multi-process)")
    farm.add_argument("--farm", action="store_true",
                      help="replay a timed burst trace against the multi-process "
                           "CompileFarm (--workers then means processes)")
    farm.add_argument("--phases", default=None, metavar="SPEC",
                      help="burst phases as name:duration:rate[:interactive_fraction],... "
                           "(default: the canonical steady/burst/cooldown shape)")
    farm.add_argument("--unique", type=int, default=64,
                      help="distinct configurations in the Zipf working set (default: 64)")
    farm.add_argument("--zipf", type=float, default=1.1,
                      help="Zipf popularity exponent (default: 1.1)")
    farm.add_argument("--speed", type=float, default=1.0,
                      help="replay speed multiplier; 0 submits the whole trace "
                           "immediately (default: 1.0 = trace real-time)")
    farm.add_argument("--kill-worker-at", type=float, default=None, metavar="T",
                      help="SIGKILL one worker T trace-seconds into the replay "
                           "(chaos mode; default: no kill)")
    farm.add_argument("--limit-interactive", type=int,
                      default=DEFAULT_LIMITS[LANE_INTERACTIVE],
                      help="interactive lane pending cap (default: %(default)s)")
    farm.add_argument("--limit-sweep", type=int, default=DEFAULT_LIMITS[LANE_SWEEP],
                      help="sweep lane pending cap (default: %(default)s)")
    return parser


def run_replay(args: argparse.Namespace) -> dict:
    from ..cache import ShardedLRUCache

    apps = [a.strip() for a in args.apps.split(",") if a.strip()] if args.apps else generating_apps()
    requests = synthetic_requests(
        apps=apps, total=args.requests,
        duplicate_fraction=args.duplicates, seed=args.seed,
    )
    distinct = len({r.local_key() for r in requests})
    report: dict = {
        "apps": apps,
        "requests": len(requests),
        "distinct": distinct,
        "workers": args.workers,
        "duplicate_fraction": args.duplicates,
        # the trace derives entirely from this seed (no module-level RNG
        # state anywhere in the path), so a replayed run is bit-identical
        "seed": args.seed,
        "passes": [],
    }
    with CompileService(
        workers=args.workers,
        cache=ShardedLRUCache(shards=args.shards, capacity_per_shard=max(64, distinct)),
        store=args.store,
    ) as service:
        with span("serve.replay", "serve", requests=len(requests),
                  passes=max(1, args.passes), workers=args.workers):
            for index in range(max(1, args.passes)):
                with span("serve.pass", "serve", index=index + 1):
                    started = time.perf_counter()
                    service.submit_batch(requests)
                    elapsed = time.perf_counter() - started
                report["passes"].append({
                    "pass": index + 1,
                    "wall_seconds": elapsed,
                    "requests_per_second": len(requests) / elapsed if elapsed > 0 else float("inf"),
                })
            service.flush()
        report["stats"] = service.stats().as_dict()
        report["metrics"] = REGISTRY.snapshot()
    return report


def run_farm_replay(args: argparse.Namespace) -> dict:
    """Replay a timed burst trace against a :class:`CompileFarm`.

    The ``trace`` block of the report (request/lane/phase counts and the
    sha256 sequence digest) is a pure function of ``--seed``/``--phases``/
    ``--unique``/``--zipf`` — the replay tests assert it is identical across
    worker counts.  Everything under ``farm`` is the measured outcome.
    """
    from .farm import CompileFarm
    from .admission import Rejected

    apps = [a.strip() for a in args.apps.split(",") if a.strip()] if args.apps else generating_apps()
    phases = parse_phases(args.phases) if args.phases else DEFAULT_PHASES
    trace = traffic_trace(apps=apps, phases=phases, unique=args.unique,
                          zipf_alpha=args.zipf, seed=args.seed)
    report: dict = {
        "mode": "farm",
        "apps": apps,
        "workers": args.workers,
        "seed": args.seed,
        "speed": args.speed,
        "phases": [
            {"name": p.name, "duration": p.duration, "rate": p.rate,
             "interactive_fraction": p.interactive_fraction} for p in phases
        ],
        "trace": trace_summary(trace),
    }
    limits = {LANE_INTERACTIVE: args.limit_interactive, LANE_SWEEP: args.limit_sweep}
    with CompileFarm(workers=args.workers, store=args.store,
                     admission=limits) as farm:
        with span("serve.farm_replay", "serve", requests=len(trace),
                  workers=args.workers):
            started = time.perf_counter()
            futures = []
            killed_pid = None
            for timed in trace:
                if args.speed > 0:
                    lag = timed.at / args.speed - (time.perf_counter() - started)
                    if lag > 0:
                        time.sleep(lag)
                if (args.kill_worker_at is not None and killed_pid is None
                        and timed.at >= args.kill_worker_at):
                    killed_pid = farm.kill_worker(0)
                futures.append(farm.submit(timed.request, lane=timed.lane))
            outcomes = [f.result(timeout=300.0) for f in futures]
            elapsed = time.perf_counter() - started
        shed = sum(1 for o in outcomes if isinstance(o, Rejected))
        report["replay"] = {
            "wall_seconds": elapsed,
            "requests_per_second": len(trace) / elapsed if elapsed > 0 else float("inf"),
            "shed": shed,
            "served": len(outcomes) - shed,
            "killed_pid": killed_pid,
        }
        report["farm"] = farm.stats().as_dict()
        report["metrics"] = REGISTRY.snapshot()
    return report


def main(argv: list[str] | None = None) -> dict:
    args = _build_parser().parse_args(argv)
    if args.trace_path:
        set_tracing(True)
    report = run_farm_replay(args) if args.farm else run_replay(args)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.metrics:
        print(REGISTRY.render_prometheus())
    if args.json_path:
        Path(args.json_path).write_text(text + "\n")
    if args.trace_path and trace_enabled():
        print(f"trace: {export_trace(args.trace_path)}")
    return report


if __name__ == "__main__":
    main()
