"""Search at scale: strategies that tune 10^4+-point spaces in bounded time.

:func:`repro.tune.autotune` enumerates a space exhaustively — the right
tool up to a few thousand candidates.  The extended app spaces are past
10^4 valid points, where exhaustive *measurement* is out of the question
and even exhaustive analytic evaluation is only sometimes affordable.
This module is the scalable engine on the same contracts:

1. **Candidate selection** — :func:`successive_halving` samples a seeded,
   deterministic pool from the streaming :class:`~repro.tune.space.SearchSpace`
   (never materialising the product) and ranks it with the analytic model;
   :func:`evolutionary` grows the pool generation by generation, mutating
   the fittest configurations one axis at a time.  Both always include the
   first-enumerated (paper-preferred) configuration, so a sampled search
   can never miss the paper's winner.  Spaces small enough to enumerate
   are scanned exhaustively — then the search winner provably equals the
   :func:`~repro.tune.autotune` winner.
2. **Learned pre-filter** — a :class:`~repro.tune.model.CostModel` trained
   on accumulated measured profiles re-scores the analytic leaders; the
   measured budget is split between the analytic and learned rankings
   (interleaved, deduplicated), so a bad model adds suspects but can never
   evict the analytic leader.
3. **Parallel measured re-rank** — :func:`measure_candidates` profiles the
   survivors on their substrate through :func:`repro.perf.profile`, on a
   process pool when ``workers > 1``, with per-candidate fault isolation:
   a failed profile demotes that candidate (it keeps its analytic rank and
   records the failure in its metrics) and never kills the sweep.
4. **Persistence** — winners land in a :class:`~repro.tune.tables.TuningTable`
   and profiles in a :class:`~repro.tune.model.ProfileStore`, both in the
   durable cache tier, keyed per device: searching the zoo
   (:data:`repro.gpusim.DEVICE_ZOO`) builds per-device tuning tables that
   :func:`repro.serve.warm_from_table` pre-compiles on service start.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from ..cache import ResultCache
from ..obs.trace import span
from .model import ProfileStore
from .space import SearchSpace
from .tables import TuningTable
from .tuner import Candidate, evaluate_configs

__all__ = [
    "SearchResult",
    "search",
    "successive_halving",
    "evolutionary",
    "measure_candidates",
]


def _resolve(app):
    from ..apps.registry import AppSpec, get_app

    return app if isinstance(app, AppSpec) else get_app(app)


def _search_rng(seed: int, label: str, app: str) -> random.Random:
    from ..check.runner import stable_seed

    return random.Random(stable_seed(seed, label, app))


def _config_key(config: dict) -> tuple:
    return tuple(sorted(config.items()))


def _pool_with_paper_first(space: SearchSpace, pool: list[dict]) -> list[dict]:
    """The sampled pool with the first-enumerated configuration prepended.

    The apps list paper-preferred values first, so the first valid
    configuration *is* the paper configuration; guaranteeing its presence
    means a sampled search degrades gracefully — it can do better than the
    paper's grid but never worse.
    """
    first = next(iter(space), None)
    if first is None:
        raise ValueError("cannot search an empty space")
    seen = {_config_key(first)}
    ordered = [first]
    for config in pool:
        key = _config_key(config)
        if key not in seen:
            seen.add(key)
            ordered.append(config)
    return ordered


def successive_halving(
    app,
    space: SearchSpace | None = None,
    *,
    budget: int = 1024,
    seed: int = 0,
    cache: ResultCache | None = None,
    service=None,
    device=None,
    parallel: int | None = None,
) -> list[Candidate]:
    """Seeded sampled pool, analytically ranked (the cheap rung of the ladder).

    ``budget`` configurations are drawn without replacement from the
    streaming space (plus the paper-preferred first configuration) and
    evaluated with the analytic model.  The "halving" is the fidelity
    ladder :func:`search` applies on top: the learned model re-scores a
    prefix of this ranking and the measured stage a prefix of that —
    geometrically fewer candidates per strictly more expensive scorer.
    Deterministic for a given ``(seed, app)``.
    """
    spec = _resolve(app)
    space = spec.space if space is None else space
    cache = cache if cache is not None else ResultCache()
    rng = _search_rng(seed, "search-halving", spec.name)
    if space.raw_size <= budget:
        pool = list(space)
    else:
        pool = _pool_with_paper_first(space, space.sample(budget, rng))
    evaluations = evaluate_configs(spec, pool, cache=cache, service=service,
                                   parallel=parallel, device=device)
    return sorted(evaluations, key=Candidate.rank_key)


def _mutate(space: SearchSpace, config: dict, rng: random.Random) -> dict | None:
    """One-axis mutation respecting the space's constraint (None if stuck)."""
    for _ in range(16):
        choice = rng.choice(space.choices)
        if len(choice.values) < 2:
            continue
        child = dict(config)
        child[choice.name] = rng.choice(choice.values)
        if child == config:
            continue
        if space.constraint is None or space.constraint(child):
            return child
    return None


def evolutionary(
    app,
    space: SearchSpace | None = None,
    *,
    budget: int = 1024,
    generations: int = 4,
    seed: int = 0,
    cache: ResultCache | None = None,
    service=None,
    device=None,
    parallel: int | None = None,
) -> list[Candidate]:
    """Beam/evolutionary pre-filter: mutate the analytically fittest configs.

    Spends ``budget`` analytic evaluations across ``generations``: the
    first generation is a seeded uniform sample (paper configuration
    included), each later generation mutates the current elite one axis at
    a time toward unexplored neighbours.  Deterministic for a given
    ``(seed, app)``; returns every evaluated candidate, ranked.
    """
    spec = _resolve(app)
    space = spec.space if space is None else space
    cache = cache if cache is not None else ResultCache()
    rng = _search_rng(seed, "search-evolution", spec.name)
    generations = max(1, generations)
    per_generation = max(2, budget // generations)

    if space.raw_size <= per_generation:
        pool = list(space)
    else:
        pool = _pool_with_paper_first(space, space.sample(per_generation, rng))
    evaluated = evaluate_configs(spec, pool, cache=cache, service=service,
                                 parallel=parallel, device=device)
    seen = {_config_key(c.config) for c in evaluated}

    for _ in range(1, generations):
        elite = sorted(evaluated, key=Candidate.rank_key)[:max(2, per_generation // 4)]
        children: list[dict] = []
        attempts = 0
        while len(children) < per_generation and attempts < 8 * per_generation:
            attempts += 1
            parent = rng.choice(elite).config
            child = _mutate(space, parent, rng)
            if child is None:
                continue
            key = _config_key(child)
            if key in seen:
                continue
            seen.add(key)
            children.append(child)
        if not children:
            break  # the neighbourhood of the elite is exhausted
        evaluated.extend(evaluate_configs(spec, children, cache=cache, service=service,
                                          parallel=parallel, device=device))
    return sorted(evaluated, key=Candidate.rank_key)


def _profile_job(job: tuple):
    """Process-pool worker: profile one ``(app, config)`` in a fresh process.

    The compilation service is not picklable, so workers resolve the app by
    name and generate through the per-process default path; the profile
    itself derives everything from ``(seed, app, config)`` and reproduces
    exactly.
    """
    app_name, config, device, seed, engine = job
    from ..apps.registry import get_app
    from ..perf import profile

    return profile(get_app(app_name), config, device=device, seed=seed, engine=engine)


def _attach_profile(candidate: Candidate, kernel_profile) -> None:
    """Fold a profile's outcome into its candidate (demote on failure)."""
    if kernel_profile.ok:
        candidate.measured_time_seconds = kernel_profile.measured_seconds
        candidate.metrics = {
            **candidate.metrics,
            "analytic_error": kernel_profile.analytic_error,
            "measured_bound": kernel_profile.extrapolated.bound,
            "coalescing_efficiency": kernel_profile.metrics.get("coalescing_efficiency", 1.0),
            "bank_conflict_factor": kernel_profile.metrics.get("bank_conflict_factor", 1.0),
        }
    else:
        # fault isolation: the candidate keeps its analytic rank (below every
        # measured candidate) and carries the failure for the report
        candidate.metrics = {
            **candidate.metrics,
            "profile_status": kernel_profile.status,
            "profile_reason": kernel_profile.reason,
        }


def measure_candidates(
    app,
    candidates: list[Candidate],
    *,
    device=None,
    seed: int = 0,
    service=None,
    engine: str | None = None,
    workers: int = 0,
) -> list:
    """Profile candidates on their substrate; parallel when ``workers > 1``.

    Returns one :class:`~repro.perf.KernelProfile` per candidate (in input
    order) and folds the measured times into the candidates themselves.
    **Per-candidate fault isolation**: :func:`repro.perf.profile` never
    raises, and a worker that dies anyway (pool crash, unpicklable result)
    is synthesised into a ``failed`` profile — one bad candidate is
    demoted, the sweep always completes.  Ad-hoc specs the registry cannot
    resolve by name measure in-process regardless of ``workers``.
    """
    from ..apps.registry import _APP_MODULES
    from ..gpusim import A100_80GB
    from ..perf import KernelProfile, profile

    spec = _resolve(app)
    device = device if device is not None else A100_80GB
    if not candidates:
        return []

    poolable = workers and workers > 1 and spec.name in _APP_MODULES
    profiles: list = [None] * len(candidates)
    if poolable:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_profile_job,
                            (spec.name, candidate.config, device, seed, engine)): i
                for i, candidate in enumerate(candidates)
            }
            for future, i in futures.items():
                try:
                    profiles[i] = future.result()
                except Exception as exc:  # noqa: BLE001 — isolation is the contract
                    profiles[i] = KernelProfile(
                        app=spec.name, backend=spec.backend,
                        config=dict(candidates[i].config), seed=seed,
                        status="failed",
                        reason=f"profiling worker died: {type(exc).__name__}: {exc}",
                    )
    else:
        for i, candidate in enumerate(candidates):
            profiles[i] = profile(spec, candidate.config, device=device,
                                  seed=seed, service=service, engine=engine)
    for candidate, kernel_profile in zip(candidates, profiles):
        _attach_profile(candidate, kernel_profile)
    return profiles


@dataclass
class SearchResult:
    """The outcome of one scalable search."""

    app: str
    device: str
    strategy: str
    #: valid configurations in the space (streaming count)
    space_size: int
    #: candidates the strategy actually evaluated analytically
    evaluated: int
    #: candidates re-ranked by measured substrate cost
    measured: int
    wall_seconds: float = 0.0
    #: the substrate execution engine the measured stage ran under
    #: (``repro.vm`` mode — makes the artifact self-describing across
    #: ``REPRO_VM`` settings)
    engine: str = ""
    #: per-stage wall seconds (``prefilter`` / ``model`` / ``measure``) —
    #: the structured replacement for reading only the lone ``wall_seconds``
    stage_seconds: dict = field(default_factory=dict)
    evaluations: list[Candidate] = field(default_factory=list)
    profiles: list = field(default_factory=list)
    #: a learned cost model participated in survivor selection
    model_used: bool = False
    #: training samples behind the model that was used (0 when none)
    model_samples: int = 0

    @property
    def ranked(self) -> list[Candidate]:
        return sorted(self.evaluations, key=Candidate.rank_key)

    @property
    def best(self) -> Candidate:
        return self.ranked[0]

    def summary(self) -> dict:
        best = self.best
        measured_ok = [p for p in self.profiles if getattr(p, "ok", False)]
        failed = [p for p in self.profiles if getattr(p, "status", "") == "failed"]
        return {
            "app": self.app,
            "device": self.device,
            "strategy": self.strategy,
            "engine": self.engine,
            "space_size": self.space_size,
            "candidates_considered": self.space_size,
            "candidates_evaluated": self.evaluated,
            "candidates_measured": self.measured,
            "profiles_failed": len(failed),
            "best_config": dict(best.config),
            "best_time_ms": best.milliseconds,
            "best_measured_time_ms": (
                best.measured_time_seconds * 1e3 if best.measured else None
            ),
            "model_used": self.model_used,
            "model_samples": self.model_samples,
            "wall_seconds": self.wall_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "measured_ok": len(measured_ok),
        }


def _interleave(primary: list[Candidate], secondary: list[Candidate],
                count: int) -> list[Candidate]:
    """Merge two rankings, primary first at each rank, deduplicated by id."""
    merged: list[Candidate] = []
    seen: set[int] = set()
    for pair in zip(primary, secondary):
        for candidate in pair:
            if id(candidate) not in seen:
                seen.add(id(candidate))
                merged.append(candidate)
    for candidate in primary[len(secondary):] + secondary[len(primary):]:
        if id(candidate) not in seen:
            seen.add(id(candidate))
            merged.append(candidate)
    return merged[:count]


def search(
    app,
    *,
    device=None,
    space: SearchSpace | None = None,
    strategy: str = "auto",
    budget: int = 1024,
    measure_top_k: int = 8,
    seed: int = 0,
    cache: ResultCache | None = None,
    cache_path=None,
    service=None,
    engine: str | None = None,
    parallel: int | None = None,
    workers: int = 0,
    profile_store: ProfileStore | None = None,
    table: TuningTable | None = None,
    train: bool = True,
) -> SearchResult:
    """Search a (possibly 10^4+-point) space end to end on one device.

    The fidelity ladder: a strategy picks and analytically ranks a pool
    bounded by ``budget`` (``"auto"`` scans exhaustively whenever the valid
    space fits the budget — making the result provably the
    :func:`~repro.tune.autotune` winner — and falls back to
    ``"halving"`` otherwise; ``"evolution"`` is the mutating variant);
    a persisted learned cost model (when ``profile_store`` has one for
    this app/device) re-scores the analytic leaders; the union of both
    rankings is re-ranked by **measured** substrate cost
    (``measure_top_k`` profiles, ``workers``-wide process pool, fault
    isolated).  Measured profiles train/update the model for next time,
    and the winner is recorded in ``table`` keyed ``app x device x
    problem scale``.

    ``device`` accepts a zoo key (``"h100"``), a spec name, or a
    :class:`~repro.gpusim.DeviceSpec`; it is threaded through analytic
    evaluation, measurement, cache keys and persistence.
    """
    from ..gpusim import A100_80GB, get_device
    from ..vm.engine import resolve_mode

    spec = _resolve(app)
    space = spec.space if space is None else space
    device_spec = get_device(device) if device is not None else A100_80GB
    cache = cache if cache is not None else ResultCache(cache_path)
    store = profile_store if profile_store is not None else ProfileStore(cache)
    resolved_engine = resolve_mode(engine)

    started = time.perf_counter()
    stage_seconds: dict[str, float] = {}
    with span("tune.search", "tune", app=spec.name, device=device_spec.name,
              budget=budget, measure_top_k=measure_top_k) as root:
        space_size = len(space)
        if strategy == "auto":
            strategy = "exhaustive" if space_size <= budget else "halving"
        root.add(strategy=strategy)
        stage_started = time.perf_counter()
        with span("search.prefilter", "search", app=spec.name, strategy=strategy):
            if strategy == "exhaustive":
                evaluations = sorted(
                    evaluate_configs(spec, list(space), cache=cache, service=service,
                                     parallel=parallel, device=device_spec),
                    key=Candidate.rank_key,
                )
            elif strategy == "halving":
                evaluations = successive_halving(spec, space, budget=budget, seed=seed,
                                                 cache=cache, service=service,
                                                 device=device_spec, parallel=parallel)
            elif strategy in ("evolution", "evolutionary"):
                evaluations = evolutionary(spec, space, budget=budget, seed=seed,
                                           cache=cache, service=service,
                                           device=device_spec, parallel=parallel)
            else:
                raise ValueError(
                    f"unknown search strategy {strategy!r}; expected 'auto', "
                    f"'exhaustive', 'halving' or 'evolution'"
                )
        stage_seconds["prefilter"] = time.perf_counter() - stage_started

        # learned second filter: interleave the analytic ranking with the
        # model's, so the measured budget covers both (analytic leader first)
        stage_started = time.perf_counter()
        model = store.model(spec.name, device_spec.name)
        model_used = False
        survivors = evaluations[:measure_top_k]
        if model is not None and measure_top_k > 0 and evaluations:
            with span("search.model", "search", app=spec.name, samples=model.samples):
                window = evaluations[:max(4 * measure_top_k, 16)]
                scores = model.score_candidates(window)
                by_model = [c for _, _, c in
                            sorted(zip(scores, range(len(window)), window),
                                   key=lambda t: (t[0], t[1]))]
                survivors = _interleave(evaluations, by_model, max(measure_top_k, 1))
                model_used = True
        stage_seconds["model"] = time.perf_counter() - stage_started

        # Measured re-rank as a draining ladder: a demoted candidate (skipped —
        # e.g. its static shared memory would not launch — or failed) frees its
        # slot for the next-ranked one, so the sweep keeps walking the ranking
        # until ``measure_top_k`` candidates measured successfully or the
        # attempt cap runs out.  Skips are cheap (the case builder bails before
        # executing anything), so the cap is generous.
        stage_started = time.perf_counter()
        profiles = []
        if measure_top_k > 0:
            with span("search.measure", "search", app=spec.name, top_k=measure_top_k,
                      engine=resolved_engine):
                seen_ids = {id(c) for c in survivors}
                queue = survivors + [c for c in evaluations if id(c) not in seen_ids]
                attempt_cap = max(16 * measure_top_k, 64)
                successes, position = 0, 0
                while (successes < measure_top_k and position < len(queue)
                       and position < attempt_cap):
                    batch = queue[position:position + measure_top_k]
                    position += len(batch)
                    batch_profiles = measure_candidates(spec, batch, device=device_spec,
                                                        seed=seed, service=service,
                                                        engine=engine, workers=workers)
                    successes += sum(1 for p in batch_profiles if getattr(p, "ok", False))
                    profiles.extend(batch_profiles)
                    if train:
                        for candidate, kernel_profile in zip(batch, batch_profiles):
                            store.record(kernel_profile, candidate, device=device_spec.name)
                if train:
                    store.train(spec.name, device_spec.name)
        stage_seconds["measure"] = time.perf_counter() - stage_started

        result = SearchResult(
            app=spec.name,
            device=device_spec.name,
            strategy=strategy,
            engine=resolved_engine,
            space_size=space_size,
            evaluated=len(evaluations),
            measured=sum(1 for p in profiles if getattr(p, "ok", False)),
            evaluations=evaluations,
            profiles=profiles,
            model_used=model_used,
            model_samples=model.samples if model is not None else 0,
            stage_seconds=stage_seconds,
        )
        best = result.best
        if table is not None:
            table.put(spec.name, device_spec.name, best.config,
                      time_ms=(best.measured_time_seconds or best.time_seconds) * 1e3,
                      measured=best.measured, source=f"search:{strategy}")
        cache.save()
        result.wall_seconds = time.perf_counter() - started
    return result
