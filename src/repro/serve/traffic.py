"""Synthetic compile traffic drawn from the application registry.

A realistic serving workload is not a uniform sweep: a few hot
configurations dominate while a long tail of distinct ones trickles in.
:func:`synthetic_requests` models that by drawing a unique working set from
the apps' declared search spaces and then re-drawing a duplicate fraction
from it — the same shape the CLI replays and the serve benchmark measures.

Seed discipline: the trace is a pure function of the explicit ``seed``
argument — a private :class:`random.Random` instance, never module-level RNG
state — the same end-to-end contract the verification subsystem
(:mod:`repro.check`) follows, so every report that prints its seed replays
bit-identically.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Sequence

from .admission import LANE_INTERACTIVE, LANE_SWEEP
from .service import CompileRequest

__all__ = [
    "BurstPhase",
    "DEFAULT_PHASES",
    "TimedRequest",
    "generating_apps",
    "synthetic_requests",
    "trace_summary",
    "traffic_trace",
    "zipf_requests",
]


def generating_apps() -> list[str]:
    """Registered apps whose spec can generate kernels (serviceable apps)."""
    from ..apps.registry import available_apps, get_app

    return [name for name in available_apps() if get_app(name).generate is not None]


def _unique_pools(names: Sequence[str], unique_count: int) -> dict[str, list[dict]]:
    """Per-app pools of distinct projected configurations.

    Streaming cap: each app contributes at most ``ceil(unique/apps)``
    distinct configurations, so its space (matmul's holds 2 000 points) is
    streamed just far enough instead of materialising the whole product.  Pools hold
    *projected* configurations deduplicated by kernel identity: a unique
    request should be a unique kernel, not an evaluation-axis variant of the
    previous one.
    """
    from ..apps.registry import get_app

    share = -(-unique_count // len(names))

    def _pool(name: str) -> list[dict]:
        spec = get_app(name)
        seen: set[tuple] = set()
        configs: list[dict] = []
        for config in spec.space:
            projected = spec.generate_config(config)
            key = tuple(sorted(projected.items()))
            if key in seen:
                continue
            seen.add(key)
            configs.append(projected)
            if len(configs) >= share:
                break
        return configs

    pools = {name: _pool(name) for name in names}
    for name, pool in pools.items():
        if not pool:
            raise ValueError(f"app {name!r} has an empty search space")
    return pools


def synthetic_requests(
    apps: Sequence[str] | None = None,
    total: int = 1000,
    duplicate_fraction: float = 0.5,
    seed: int = 0,
) -> list[CompileRequest]:
    """Build a deterministic traffic trace of ``total`` compile requests.

    Roughly ``total * (1 - duplicate_fraction)`` requests are unique
    configurations taken round-robin from the apps' search spaces (cycling
    when a space is smaller than its share); the rest are duplicates drawn
    uniformly from the unique working set.  The trace is shuffled, so
    duplicates interleave with first sightings the way concurrent clients
    would produce them.  Configurations are projected onto the axes each
    app's generator actually reads (``AppSpec.generate_config``) — the same
    projection a well-behaved client (the autotuner) applies — so requests
    that would compile the identical kernel share one cache identity.
    """
    if total < 1:
        raise ValueError("synthetic_requests needs a positive request count")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError("duplicate_fraction must lie in [0, 1)")
    names = list(apps) if apps else generating_apps()
    if not names:
        raise ValueError("no apps with kernel generators available")

    unique_count = max(1, int(round(total * (1.0 - duplicate_fraction))))
    pools = _unique_pools(names, unique_count)
    rng = random.Random(seed)
    unique: list[CompileRequest] = []
    cursors = {name: 0 for name in names}
    for i in range(unique_count):
        name = names[i % len(names)]
        pool = pools[name]
        config = pool[cursors[name] % len(pool)]
        cursors[name] += 1
        unique.append(CompileRequest(app=name, config=config))

    requests = list(unique)
    while len(requests) < total:
        requests.append(rng.choice(unique))
    rng.shuffle(requests)
    return requests


# -- realistic farm traffic: Zipf popularity, Poisson arrivals, burst phases --------


@dataclass(frozen=True)
class BurstPhase:
    """One phase of a replay: ``duration`` seconds of Poisson arrivals at
    ``rate`` requests/second, ``interactive_fraction`` of them on the
    interactive lane (the rest are sweep traffic)."""

    name: str
    duration: float
    rate: float
    interactive_fraction: float = 0.8

    def __post_init__(self):
        if self.duration <= 0 or self.rate <= 0:
            raise ValueError("BurstPhase needs positive duration and rate")
        if not 0.0 <= self.interactive_fraction <= 1.0:
            raise ValueError("interactive_fraction must lie in [0, 1]")


#: the canonical replay shape: steady serving, a 4x burst, a cool-down
DEFAULT_PHASES = (
    BurstPhase("steady", duration=1.5, rate=120.0, interactive_fraction=0.9),
    BurstPhase("burst", duration=1.5, rate=480.0, interactive_fraction=0.7),
    BurstPhase("cooldown", duration=1.0, rate=80.0, interactive_fraction=0.9),
)


@dataclass(frozen=True)
class TimedRequest:
    """One arrival in a traffic trace: when, on which lane, in which phase."""

    at: float
    lane: str
    phase: str
    request: CompileRequest


def zipf_requests(
    apps: Sequence[str] | None = None,
    total: int = 1000,
    unique: int = 64,
    alpha: float = 1.1,
    seed: int = 0,
) -> list[CompileRequest]:
    """``total`` requests over a ``unique``-config working set, Zipf-popular.

    Serving traffic is head-heavy: rank ``r`` in the working set is drawn
    with probability proportional to ``1 / r**alpha``, so a few hot
    configurations dominate (what a warm cache feeds on) while the long tail
    keeps trickling in cold compiles.  Popularity ranks are a seeded shuffle
    of the working set, so the hot head is not biased toward any one app.
    Deterministic: the trace is a pure function of the arguments.
    """
    if total < 1 or unique < 1:
        raise ValueError("zipf_requests needs positive total and unique counts")
    if alpha <= 0:
        raise ValueError("the Zipf exponent must be positive")
    names = list(apps) if apps else generating_apps()
    if not names:
        raise ValueError("no apps with kernel generators available")
    pools = _unique_pools(names, unique)
    working_set: list[CompileRequest] = []
    cursors = {name: 0 for name in names}
    for i in range(unique):
        name = names[i % len(names)]
        pool = pools[name]
        config = pool[cursors[name] % len(pool)]
        cursors[name] += 1
        working_set.append(CompileRequest(app=name, config=config))

    rng = random.Random(seed)
    rng.shuffle(working_set)  # rank 1 is not always the first app's config
    weights = [1.0 / (rank ** alpha) for rank in range(1, len(working_set) + 1)]
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    return [
        working_set[bisect.bisect_left(cumulative, rng.random() * acc)]
        for _ in range(total)
    ]


def traffic_trace(
    apps: Sequence[str] | None = None,
    phases: Sequence[BurstPhase] = DEFAULT_PHASES,
    unique: int = 64,
    zipf_alpha: float = 1.1,
    seed: int = 0,
) -> list[TimedRequest]:
    """A timed arrival trace: Poisson arrivals per phase over Zipf requests.

    Within each :class:`BurstPhase`, inter-arrival gaps are exponential with
    the phase's mean rate (a Poisson process — bursts inside the burst); each
    arrival draws its lane from the phase's ``interactive_fraction`` and its
    request from one shared Zipf stream, so the hot working-set head is hot
    on *both* lanes (which is what makes cross-lane caching matter).
    Deterministic end to end: one seeded :class:`random.Random` drives
    arrivals, lanes and popularity, so the same seed replays bit-identically
    regardless of how many workers later serve it.
    """
    if not phases:
        raise ValueError("traffic_trace needs at least one phase")
    names = list(apps) if apps else generating_apps()
    arrival_rng = random.Random(seed)
    # request popularity is seeded separately so adding a phase does not
    # reshuffle which configurations are hot
    total_estimate = sum(int(p.duration * p.rate) for p in phases) * 2 + 16
    popularity = zipf_requests(
        apps=names, total=total_estimate, unique=unique,
        alpha=zipf_alpha, seed=seed + 1,
    )
    trace: list[TimedRequest] = []
    clock = 0.0
    draw = 0
    for phase in phases:
        phase_end = clock + phase.duration
        t = clock
        while True:
            t += arrival_rng.expovariate(phase.rate)
            if t >= phase_end:
                break
            lane = (
                LANE_INTERACTIVE
                if arrival_rng.random() < phase.interactive_fraction
                else LANE_SWEEP
            )
            request = popularity[draw % len(popularity)]
            draw += 1
            trace.append(TimedRequest(at=t, lane=lane, phase=phase.name, request=request))
        clock = phase_end
    return trace


def trace_summary(trace: Sequence[TimedRequest]) -> dict:
    """The deterministic fingerprint of one trace.

    Every field here is a pure function of the generator's arguments — the
    replay test asserts this summary is byte-identical between a 1-worker
    and a 4-worker run of the same seed, which is what makes a farm replay
    reproducible evidence rather than a one-off.
    """
    digest = hashlib.sha256()
    per_phase: dict[str, int] = {}
    lanes: dict[str, int] = {}
    for timed in trace:
        per_phase[timed.phase] = per_phase.get(timed.phase, 0) + 1
        lanes[timed.lane] = lanes.get(timed.lane, 0) + 1
        digest.update(json.dumps(
            [round(timed.at, 9), timed.lane, timed.phase, timed.request.app,
             {k: timed.request.config[k] for k in sorted(timed.request.config)}],
            sort_keys=True, default=str,
        ).encode())
    return {
        "requests": len(trace),
        "distinct": len({t.request.local_key() for t in trace}),
        "lanes": dict(sorted(lanes.items())),
        "phases": dict(sorted(per_phase.items())),
        "digest": digest.hexdigest(),
    }
