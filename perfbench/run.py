#!/usr/bin/env python3
"""The measured ladder: one command for the compile, tune, execute and farm paths.

    python3 perfbench/run.py                      # all four workloads, end to end
    python3 perfbench/run.py --trace 1            # ... plus the per-layer runs
    python3 perfbench/run.py --workload compile_cold --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke              # tiny sizes, warm-up + one round each

With ``--workload`` the process *is* the workload (so set-up time and peak
memory are its own and no cache leaks in from another workload); it prints
every metric by name and unit, writes ``perfbench/out/<workload>.json`` and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Without it, each workload runs in a subprocess of its own.  Names, units,
directions and bounds live in ``BENCHMARK.json``; README.md says what each
metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
HISTORY = BENCH_DIR / "history.jsonl"


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="every generated input derives from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracer off; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op lists, the warm-up round and one more (for the tests)")
    parser.add_argument("--append-history", nargs="?", const=str(HISTORY), default=None,
                        metavar="PATH", help="append one line per run (default %(const)s)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def end_to_end(workload, args, seconds, harness) -> tuple[dict, dict, list[float]]:
    """Tracer off: ``seconds`` of timed rounds between two host-calibration readings."""
    calibration = [harness.host_calibration_ms()]
    rounds = harness.run_rounds(workload, seconds, min_rounds=1 if args.smoke else 3)
    calibration.append(harness.host_calibration_ms())
    values, detail = harness.timing_metrics(rounds)
    values["peak_rss_mb"] = harness.peak_rss_mb()
    detail["ops_attempted"] = sum(one.ops for one in rounds)
    return values, detail, calibration


def per_layer(workload, args, seconds, harness) -> tuple[dict, dict, list[float]]:
    """A third of ``seconds`` untraced, a third traced, then the layer's probes."""
    import layers
    from repro.obs import REGISTRY, TRACER, span, tracing
    from repro.symbolic import record_proof_queries

    if workload.name == "farm_replay":
        workload.restart_every_round = True  # serve.restart_* are read off every round
    share = seconds / 3
    floor = 1 if args.smoke else 2
    calibration = [harness.host_calibration_ms()]
    untraced = harness.run_rounds(workload, share, floor)
    TRACER.clear()
    before = REGISTRY.snapshot()
    with tracing(True), record_proof_queries() as queries:
        with span("bench.traced", "bench", workload=workload.name):
            traced = harness.run_rounds(workload, share, floor)
    after = REGISTRY.snapshot()
    events = TRACER.events()
    TRACER.export(harness.OUT_DIR / f"trace-{workload.name}.json")
    TRACER.clear()
    calibration.append(harness.host_calibration_ms())

    rows, check = layers.self_times(events, len(traced))
    rows.update(layers.symbolic_counts(before, after, queries, len(traced)))
    quiet = min(one.wall for one in untraced)
    rows["obs.trace_overhead_share"] = (min(one.wall for one in traced) - quiet) / quiet
    rows.update(layers.probe_obs())

    best = harness.best_latencies(untraced)
    # every op weighs the same: a cheap op's regression shows as much as an expensive one's
    rows["bench.op_geomean_ms"] = statistics.geometric_mean(best.values()) * 1e3
    rows["bench.op_max_ms"] = max(best.values()) * 1e3
    if workload.name == "compile_cold":
        rows.update(layers.compile_rows(workload, best, untraced))
        rows.update(layers.probe_symbolic(args.seed))
        rows.update(layers.probe_core())
        rows.update(layers.probe_cache([request for _, request, _ in workload.ops]))
    elif workload.name == "tune_sweep":
        rows.update(layers.tune_rows(workload, best, untraced))
        rows.update(layers.probe_tune(workload))
    elif workload.name == "execute_launch":
        rows.update(layers.launch_rows(workload, best, untraced))
    elif workload.name == "farm_replay":
        rows.update(layers.farm_rows(workload, best, untraced,
                                     layers.inprocess_compile_p50(workload)))
        rows.update(layers.probe_cache(workload.requests))
    detail = {
        "attribution": check,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "ops_attempted": sum(one.ops for one in untraced + traced),
        "chrome_trace": f"perfbench/out/trace-{workload.name}.json",
    }
    return rows, detail, calibration


def run_workload(args) -> int:
    import harness

    if not SRC.is_dir():
        print(f"no program under test: {SRC} does not exist", file=sys.stderr)
        return 2
    harness.use_checkout_tmp()
    sys.path.insert(0, str(SRC))
    import repro
    from repro.vm import engine_mode
    from verify import verify
    from workloads import WORKLOADS

    spec = harness.benchmark_spec()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds = 0.0

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.round()  # the discarded warm-up round, charged to set-up
    setup_seconds = [time.perf_counter() - PROCESS_START]
    if args.setup_only:
        print(repr(setup_seconds[0]))
        return 0
    # Set up twice more, each in a fresh interpreter, once before the rounds
    # and once after verification: half a minute apart, so a slow stretch of
    # the host rarely covers all three.  Both come out of --seconds (the
    # rounds get what is left after this one and as much again kept back for
    # the other), so a run lasts --seconds plus its own set-up and
    # verification however slow the host makes a set-up.
    seconds = args.seconds
    more_setups = not (args.smoke or args.trace)
    if more_setups:
        began = time.perf_counter()
        setup_seconds.append(harness.child_setup_seconds(args.workload, args.seed))
        seconds = max(0.0, seconds - 2 * (time.perf_counter() - began))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, detail, calibration = per_layer(workload, args, seconds, harness)
    else:
        values, detail, calibration = end_to_end(workload, args, seconds, harness)

    started = time.perf_counter()
    checks, failures = verify(workload)
    verify_seconds = time.perf_counter() - started
    failures = workload.failures + failures
    kernels = workload.totals()
    if args.trace:
        values["check.run_ms_per_config"] = verify_seconds / checks * 1e3
        values["vm.trace_counters_ok"] = float(getattr(workload, "trace_counters_ok", False))
    else:
        if more_setups:
            setup_seconds.append(harness.child_setup_seconds(args.workload, args.seed))
        values["setup_s"] = min(setup_seconds)
        values["index_ops"] = kernels["index_ops"]
        values["source_bytes"] = kernels["source_bytes"]

    names = [metric["name"] for metric in listed]
    metrics = {metric["name"]: {"value": float(values.get(metric["name"], 0.0)),
                                "unit": metric["unit"]} for metric in listed}
    gap = abs(calibration[1] - calibration[0]) / min(calibration)
    envelope = {
        "schema": harness.SCHEMA,
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sha": harness.git_sha(),
        "version": repro.__version__,
        "engine": getattr(workload, "ENGINE", engine_mode()),
        "nproc": os.cpu_count(),
        "host_calibration_ms": calibration,
        "noisy": gap > harness.NOISY_CALIBRATION_GAP,
        "correct": not failures,
        "attempted": detail["ops_attempted"] + checks,
        "failed": len(failures),
        "metrics": metrics,
        "unlisted": sorted(set(values) - set(names)),
        "inputs_digest": workload.inputs_digest,
        "kernels": kernels,
        "setup_seconds": setup_seconds,
        "failures": failures[:20],
        "detail": detail,
    }
    suffix = "-layers" if args.trace else ""
    (harness.OUT_DIR / f"{args.workload}{suffix}.json").write_text(
        json.dumps(envelope, indent=1, sort_keys=True) + "\n")
    if args.append_history:
        with open(args.append_history, "a") as history:
            history.write(json.dumps({k: v for k, v in envelope.items() if k != "detail"},
                                     sort_keys=True) + "\n")

    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={detail['rounds']} noisy={envelope['noisy']}")
    for name in names:
        print(f"  {name:<40} {metrics[name]['value']:>16.4f} {metrics[name]['unit']}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": envelope["correct"], "attempted": envelope["attempted"],
                      "failed": envelope["failed"], "metrics": metrics}))
    return 0 if envelope["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own subprocess; their reports are passed through.

    All four: the three BENCHMARK.json lists, which the driver holds to the
    bounds, and ``farm_replay``, which no bound fits (README, *Departures*).
    """
    from workloads import WORKLOADS

    status = 0
    for trace in ((0, 1) if args.trace else (0,)):
        for workload in WORKLOADS:
            command = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--trace", str(trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.append_history:
                command += ["--append-history", args.append_history]
            out = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))  # the last line is the machine-readable twin
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not args.workload:
        return run_all(args)
    # a run that is told to stop leaves through the same door as one that ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_workload(args)
    finally:
        sys.stdout.flush()
        import harness
        harness.stop_children()


if __name__ == "__main__":
    raise SystemExit(main())
