"""Measurement plumbing shared by the four workloads.

Everything here is about *how* a number is taken, never about what the
program under test does: the round loop, the best-of-rounds estimators, the
host calibration loop, the result envelope and the set-up timer.

Why best-of-rounds and not the median of rounds: the sandbox this ladder was
built on alternates, over seconds, between a fast and a ~25% slower state
(a 2M-iteration pure-Python spin reads 165 ms or 225 ms).  Over ten 12 s
runs of that spin the *median* of rounds spread 9.0% (quartile distance over
median), the lower decile 2.3% and the *minimum* 1.3%.  Every workload here
is deterministic CPU work, so interference only ever adds time: the fastest
observation is the reading least polluted by the host, and it is the one
that repeats.  The medians are still recorded in the envelope, next to the value.
(One exception, the farm's pipelined pass: see :func:`round_wall`.)
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TMP_DIR = OUT_DIR / "tmp"
SCHEMA = 1

#: two host-calibration readings further apart than this flag the run noisy
NOISY_CALIBRATION_GAP = 0.15


def benchmark_spec() -> dict:
    """The committed contract: workloads, metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_checkout_tmp() -> None:
    """Route every temporary file (ours, the program's, its workers') into
    ``perfbench/out/tmp`` so a run reads and writes only inside its checkout."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_DIR)
    tempfile.tempdir = str(TMP_DIR)


def scratch_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_DIR))


def digest(payload) -> str:
    """sha256 of a JSON-serialisable payload (the inputs fingerprint)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited child (MB).

    The farm's workers are children; for the other workloads the children
    are the set-up timers, which never outgrow the parent.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def host_calibration_ms() -> float:
    """A fixed pure-Python spin plus one 512x512 NumPy matmul, in ms.

    Recorded in the envelope (never as a metric) before and after the timed
    section: it says how fast the *host* was, so a reader can tell a slow
    program from a slow box.
    """
    import numpy as np

    matrix = np.arange(512 * 512, dtype=np.float64).reshape(512, 512) / (512 * 512)
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i & 7
    float((matrix @ matrix).sum())
    return (time.perf_counter() - started) * 1e3


def git_sha() -> str:
    """The checkout's commit (``-dirty`` with uncommitted changes), or
    ``unknown`` — the driver's checkout is not a git repository."""
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if not sha:
        return "unknown"
    return sha + ("-dirty" if git("status", "--porcelain") else "")


# -- statistics ---------------------------------------------------------------------


def nearest_rank(ordered: list[float], q: float) -> float:
    """Ceil-based nearest-rank quantile of an ascending list (q in (0, 1])."""
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median
    (the steadiness figure the driver computes over ten runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else 0.0


# -- rounds -------------------------------------------------------------------------


@dataclass
class Round:
    """One pass over a workload's op list.

    ``wall`` is the span the throughput is computed over and ``ops`` the
    operations inside it; ``latencies`` maps each op's stable id to its
    latency in seconds; ``extra`` carries the per-layer observations the
    workload reads off the program's public counters.  ``tiled`` says the
    ops ran back to back, so their latencies (plus a little loop overhead)
    add up to ``wall``; the farm's pipelined first touches do not.
    """

    wall: float
    ops: int
    latencies: dict[str, float]
    extra: dict = field(default_factory=dict)
    tiled: bool = True


def run_rounds(workload, seconds: float, min_rounds: int) -> list[Round]:
    """Closed loop, one client: run rounds until ``seconds`` have elapsed."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(workload.round())
    return rounds


def best_latencies(rounds: list[Round]) -> dict[str, float]:
    """Each op's fastest latency over the rounds (seconds)."""
    best: dict[str, float] = {}
    for one in rounds:
        for op, seconds in one.latencies.items():
            if op not in best or seconds < best[op]:
                best[op] = seconds
    return best


def round_wall(rounds: list[Round]) -> float:
    """The one round wall the throughput is computed over.

    For back-to-back ops that is the least-disturbed round the rounds let
    us assemble: every op at its fastest observation plus the smallest
    loop overhead seen — a finer-grained minimum than the
    fastest whole round, which needs the host quiet for a full round at a
    stretch (over 20 s windows of a 5-minute compile_cold log the fastest
    whole round spread 3.5%, this 2.0%, the median round 14%).

    A pipelined round cannot be taken apart, and the farm's pass varies
    +-20% with the trace it drew, so the fastest of a dozen passes is an
    extreme value: over twelve 20 s runs it spread 10.2%, the median pass
    5.4%.  There it is the median whole round.
    """
    if all(one.tiled for one in rounds):
        overhead = min(one.wall - sum(one.latencies.values()) for one in rounds)
        return sum(best_latencies(rounds).values()) + overhead
    return statistics.median(one.wall for one in rounds)


def timing_metrics(rounds: list[Round]) -> tuple[dict[str, float], dict]:
    """The three timing metrics every workload reports, plus their medians.

    Throughput is the ops of one round over :func:`round_wall`; the
    latency figures are taken over the distinct ops, each at its fastest
    round: the median op and the op at the ninth decile (nearest rank; with
    six or eight ops that is the slowest one).
    """
    walls = [one.wall for one in rounds]
    used = round_wall(rounds)
    ordered = sorted(best_latencies(rounds).values())
    values = {
        "ops_per_s": rounds[0].ops / used,
        "op_p50_ms": nearest_rank(ordered, 0.5) * 1e3,
        "op_p90_ms": nearest_rank(ordered, 0.9) * 1e3,
    }
    pooled = sorted(s for one in rounds for s in one.latencies.values())
    detail = {
        "rounds": len(rounds),
        "ops_per_round": rounds[0].ops,
        "distinct_ops": len(ordered),
        "latency_samples": len(pooled),
        "round_wall_s": {"used": used, "best": min(walls),
                         "median": statistics.median(walls), "worst": max(walls)},
        "ops_per_s_at_median_round": rounds[0].ops / statistics.median(walls),
        "pooled_op_p50_ms": nearest_rank(pooled, 0.5) * 1e3,
        "op_geomean_ms": statistics.geometric_mean(ordered) * 1e3,
        "op_max_ms": ordered[-1] * 1e3,
    }
    return values, detail


# -- leaving nothing behind ---------------------------------------------------------


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included (Linux ``/proc``)."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            if stat.rpartition(")")[2].split()[1] == me:
                found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The farm's workers are joined by ``CompileFarm.close``; what outlives
    it is multiprocessing's resource tracker, which the ``spawn`` start
    method launches with the first worker.  It exits only once its parent
    has, so an unwaited one is still there (running, then a zombie until
    init gets round to it — over a second here) after the benchmark printed
    its result.  Closing its pipe ends it; anything else still alive on an
    error path is killed.  Every child is waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for pid in _children():
        try:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already ended and reaped


# -- set-up time --------------------------------------------------------------------


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set the workload up once more in a fresh interpreter; returns its
    set-up seconds (import + inputs + warm-up round), as that process read them."""
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=170)
    except BaseException:
        child.terminate()  # SIGTERM, not SIGKILL: it stops its own workers on the way out
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"set-up timer for {workload} failed:\n{stderr[-2000:]}")
    return float(stdout.strip().splitlines()[-1])
