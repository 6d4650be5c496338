"""The tuning driver: one fidelity ladder from a search space to a winner.

:func:`search` is the only driver; :func:`autotune` is its exhaustive
spelling (whole space, no tuning table, nothing persisted beyond the
evaluation cache).  There is one ranking — analytic, then measured in
analytic order — and each rung scores geometrically fewer candidates with
a strictly more expensive scorer:

1. **Analytic pre-filter** — the whole space when ``budget`` is ``None`` or
   covers it, otherwise a seeded, deterministic sample drawn from the
   streaming :class:`~repro.tune.space.SearchSpace` (never materialising
   the product) that always includes the first-enumerated (paper-preferred)
   configuration, so a sampled search can never miss the paper's winner.
   Every pooled configuration is generated and evaluated by
   :func:`~repro.tune.tuner.evaluate_configs`.
2. **Draining measured re-rank** — :func:`measure_candidates` profiles the
   analytic leaders, in analytic order, on their substrate through
   :func:`repro.perf.profile` with per-candidate fault isolation: a skipped
   or failed profile — a launch that raised, or one whose output disagrees
   with the app's reference model — demotes that candidate (it keeps its
   analytic rank and records the outcome in its metrics), frees its slot
   for the next-ranked one and never kills the sweep.
3. **Verification** (``verify_top_k``) — the winners' differential verdicts
   are collected before the result is handed out: the one the measured
   rung recorded for the execution it timed, a :mod:`repro.check` launch
   only for winners it did not execute.
4. **Persistence** — winners land in a :class:`~repro.tune.tables.TuningTable`
   in the durable cache tier, keyed per device: searching the zoo
   (:data:`repro.gpusim.DEVICE_ZOO`) builds per-device tuning tables that
   :meth:`repro.serve.CompileService.warm_from_table` pre-compiles on start.
"""

from __future__ import annotations

import random
import time

from ..cache import ResultCache
from ..gpusim import A100_80GB, DeviceSpec, get_device
from ..obs.trace import span
from .space import SearchSpace
from .tables import TuningTable
from .tuner import Candidate, TuneResult, evaluate_configs

__all__ = ["search", "autotune", "measure_candidates"]


def _resolve(app):
    from ..apps.registry import AppSpec, get_app

    return app if isinstance(app, AppSpec) else get_app(app)


def _sampled_pool(spec, space: SearchSpace, budget: int, seed: int) -> list[dict]:
    """``budget`` seeded draws with the first-enumerated configuration first.

    The apps list paper-preferred values first, so the first valid
    configuration *is* the paper configuration; guaranteeing its presence
    means a sampled search degrades gracefully — it can do better than the
    paper's grid but never worse.  Deterministic for a given ``(seed, app)``.
    """
    from ..check.runner import stable_seed

    rng = random.Random(stable_seed(seed, "search-halving", spec.name))
    first = next(iter(space))
    return [first] + [config for config in space.sample(budget, rng) if config != first]


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
    device: DeviceSpec = A100_80GB,
    seed: int = 0,
    service=None,
) -> list:
    """Profile candidates on their substrate and fold the times into them.

    Returns one :class:`~repro.perf.KernelProfile` per candidate, in input
    order.  **Per-candidate fault isolation**: :func:`repro.perf.profile`
    never raises, so one bad candidate is demoted and the sweep always
    completes.
    """
    from ..perf import profile

    spec = _resolve(app)
    profiles = [
        profile(spec, candidate.config, device=device, seed=seed, service=service)
        for candidate in candidates
    ]
    for candidate, kernel_profile in zip(candidates, profiles):
        _attach_profile(candidate, kernel_profile)
    return profiles


def search(
    app,
    *,
    device=None,
    space: SearchSpace | None = None,
    budget: int | None = 1024,
    measure_top_k: int = 8,
    seed: int = 0,
    cache: ResultCache | None = None,
    service=None,
    table: TuningTable | None = None,
    verify_top_k: int = 0,
) -> TuneResult:
    """Tune one app on one device, end to end (see the module docstring).

    ``app`` is a registered app name (``"matmul"``, ``"lud"``, ...) or an
    :class:`~repro.apps.registry.AppSpec`; ``space`` defaults to the app's
    full declared space (narrow it with :meth:`SearchSpace.subspace`).
    ``budget`` bounds the analytic pre-filter: ``None``, or a budget that
    covers the valid space, scans it exhaustively (the result reports
    ``strategy == "exhaustive"``); a smaller one evaluates a seeded sample
    (``"halving"``).  ``device`` accepts a zoo key (``"h100"``), a spec name
    or a :class:`~repro.gpusim.DeviceSpec` and defaults to the A100; it is
    threaded through analytic evaluation, measurement, cache keys and
    persistence, so one persistent store serves per-device sweeps.

    ``measure_top_k`` successful profiles, taken in analytic order, re-rank
    the leaders by *measured* substrate cost; each profiled candidate
    records its analytic-vs-measured disagreement in
    ``metrics["analytic_error"]`` and the full
    :class:`~repro.perf.KernelProfile` lands in :attr:`TuneResult.profiles`.
    Candidates whose configuration selects nothing executable (external
    baselines) keep their analytic rank below every measured candidate.
    The winner is recorded in ``table`` keyed
    ``app x device x problem scale``.

    ``verify_top_k`` collects the differential verdict of the ``k``
    best-ranked (measured, when measurement ran) configurations before
    returning — a sweep must not hand out a winner whose kernel computes
    the wrong answer — and raises :class:`repro.check.CheckFailure` on the
    first mismatch.  A configuration the measured rung executed was judged
    on that execution and is not launched again; the reports (skips for
    evaluation-only baselines included) land in
    :attr:`TuneResult.verification`.  ``seed`` makes the sample and the
    measured and verified inputs reproducible.  ``service`` overrides the
    shared :func:`repro.serve.default_service` used to generate the kernels
    of registry-backed apps (ad-hoc specs always generate inline).
    """
    spec = _resolve(app)
    space = spec.space if space is None else space
    device_spec = get_device(device) if device is not None else A100_80GB
    # `cache or ...` would discard a caller-passed *empty* cache: ResultCache
    # defines __len__, so a fresh store is falsy and the warm-sweep contract
    # (pass the same cache twice, second sweep replays) would silently break
    cache = cache if cache is not None else ResultCache()
    # id(candidate) -> the verdict on the execution the measured rung timed
    verdicts: dict = {}

    started = time.perf_counter()
    with span("tune.search", "tune", app=spec.name, device=device_spec.name,
              budget=budget, measure_top_k=measure_top_k) as root:
        space_size = len(space)
        if not space_size:
            raise ValueError(f"search space for app {spec.name!r} is empty")
        exhaustive = budget is None or space_size <= budget
        result = TuneResult(
            app=spec.name, evaluations=[], device=device_spec.name,
            strategy="exhaustive" if exhaustive else "halving",
            space_size=space_size,
        )
        root.add(strategy=result.strategy)

        stage_started = time.perf_counter()
        hits_before, misses_before = cache.hits, cache.misses
        with span("search.prefilter", "search", app=spec.name, strategy=result.strategy):
            pool = list(space) if exhaustive else _sampled_pool(spec, space, budget, seed)
            result.evaluations = evaluate_configs(spec, pool, cache=cache, service=service,
                                                  device=device_spec)
        result.cache_hits = cache.hits - hits_before
        result.cache_misses = cache.misses - misses_before
        result.stage_seconds["prefilter"] = time.perf_counter() - stage_started

        result.stage_seconds["measure"] = 0.0
        if measure_top_k > 0:
            # Measured re-rank as a draining ladder over the analytic ranking: a
            # demoted candidate (skipped — e.g. its static shared memory would not
            # launch — or failed) frees its slot for the next-ranked one, so the
            # sweep keeps walking the ranking until ``measure_top_k`` candidates
            # measured successfully or the attempt cap runs out.  Skips are cheap
            # (the case builder bails before executing anything), so the cap is
            # generous.
            stage_started = time.perf_counter()
            with span("search.measure", "search", app=spec.name, top_k=measure_top_k):
                ranking = result.ranked
                end = min(len(ranking), max(16 * measure_top_k, 64))
                position = 0
                while result.measured < measure_top_k and position < end:
                    batch = ranking[position:position + measure_top_k]
                    position += len(batch)
                    batch_profiles = measure_candidates(spec, batch, device=device_spec,
                                                        seed=seed, service=service)
                    result.profiles.extend(batch_profiles)
                    for candidate, kernel_profile in zip(batch, batch_profiles):
                        if kernel_profile.check is not None:
                            verdicts[id(candidate)] = kernel_profile.check
            result.stage_seconds["measure"] = time.perf_counter() - stage_started

        if verify_top_k > 0:
            from ..check import CheckFailure, run_check

            with span("check.verify", "check", app=spec.name, top_k=verify_top_k):
                for candidate in result.ranked[:verify_top_k]:
                    report = verdicts.get(id(candidate)) or run_check(
                        spec, candidate.config, seed=seed, service=service)
                    result.verification.append(report)
                    if report.status == "failed":
                        raise CheckFailure(report)

        if table is not None:
            best = result.best
            table.put(spec.name, device_spec.name, best.config,
                      time_ms=(best.measured_time_seconds or best.time_seconds) * 1e3,
                      measured=best.measured, source=f"search:{result.strategy}")
        cache.save()
        result.wall_seconds = time.perf_counter() - started
    return result


def autotune(
    app,
    space: SearchSpace | None = None,
    cache: ResultCache | None = None,
    service=None,
    verify_top_k: int = 0,
    measure_top_k: int = 0,
    measure_seed: int = 0,
    device=None,
) -> TuneResult:
    """Sweep an app's whole configuration space and rank every candidate.

    The exhaustive spelling of :func:`search`: no budget, no tuning table —
    ``result.evaluations`` holds the full
    space in enumeration order and ``result.best.config`` is the winning
    configuration.  ``measure_top_k`` turns the sweep into two-stage tuning
    (the analytic leaders re-ranked by measured cost, inputs seeded by
    ``measure_seed``); the other arguments are :func:`search`'s.
    """
    spec = _resolve(app)
    with span("tune.autotune", "tune", app=spec.name,
              measure_top_k=measure_top_k, verify_top_k=verify_top_k) as root:
        result = search(
            spec, device=device, space=space, budget=None, measure_top_k=measure_top_k,
            seed=measure_seed, cache=cache, service=service, verify_top_k=verify_top_k,
        )
        root.add(candidates=len(result))
    return result
