"""The layout autotuner: enumerate, generate, evaluate, rank.

The paper's evaluation (Figures 11-13, Table IV) is a hand-driven sweep over
layout and tiling configurations — every figure harness used to carry its own
loop.  This module turns that sweep into a subsystem:

1. an app's declarative :class:`~repro.tune.space.SearchSpace` is enumerated
   into candidate configurations;
2. each candidate's kernel is generated through the compilation service
   (:mod:`repro.serve`), which drives the unified backend registry
   (``get_backend`` — Triton, CUDA or MLIR, whichever the app targets) on a
   worker pool: candidates that differ only in evaluation-side axes collapse
   onto one compile request (``AppSpec.generate_params``), and independent
   sweeps in one process share a warm kernel cache;
3. each candidate is evaluated with the app's analytic performance model
   (:func:`repro.gpusim.estimate_time` under the hood) and ranked by
   ``(estimated time, GPU-weighted index-op count, enumeration order)`` —
   the op-count cost model breaks performance-model ties toward cheaper
   index arithmetic, and enumeration order (paper-preferred values first)
   breaks exact ties deterministically;
4. results land in a persistent :class:`~repro.cache.ResultCache` keyed
   off the hash-consed lowered expressions (and the backend name) and
   salted by the source fingerprint, so re-running a sweep on unchanged
   code costs nothing.

Evaluation can optionally fan out over a process pool (``parallel=N``) for
trace-heavy apps; generation runs through the (thread-pooled) service
because it is cache-key material that every worker must agree on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..cache import ResultCache
from ..obs.trace import span
from ..symbolic import CostWeights
from .space import SearchSpace

__all__ = ["Candidate", "TuneResult", "autotune", "evaluate_configs", "sweep"]


@dataclass
class Candidate:
    """One evaluated configuration."""

    config: dict
    time_seconds: float
    index_ops: int = 0
    order: int = 0
    has_kernel: bool = False
    cached: bool = False
    #: measured (substrate-traced) time when ``autotune(measure_top_k=...)``
    #: profiled this candidate; ``None`` means analytic-only
    measured_time_seconds: float | None = None
    metrics: dict = field(default_factory=dict)

    @property
    def milliseconds(self) -> float:
        return self.time_seconds * 1e3

    @property
    def measured(self) -> bool:
        return self.measured_time_seconds is not None

    def rank_key(self) -> tuple:
        # Two-stage ranking: measured candidates rank by measured time and
        # strictly ahead of analytic-only ones (the measured set *is* the
        # analytic top-k, so this is the re-rank, not a demotion of the
        # rest).  Within a tier, performance ties break toward cheaper
        # generated index arithmetic; candidates without a generated kernel
        # (external baselines, layouts that patch the original kernel) lose
        # ties to ones the backend actually generated.  Enumeration order
        # (apps list paper-preferred values first) settles exact ties
        # deterministically.
        ops = self.index_ops if self.has_kernel else float("inf")
        if self.measured_time_seconds is not None:
            return (0, self.measured_time_seconds, ops, self.order)
        return (1, self.time_seconds, ops, self.order)


@dataclass
class TuneResult:
    """Every candidate of one sweep, in enumeration order, plus bookkeeping."""

    app: str
    evaluations: list[Candidate]
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: differential-check reports of the top-ranked configs, when
    #: ``autotune(verify_top_k=...)`` requested verification
    verification: list = field(default_factory=list)
    #: :class:`~repro.perf.KernelProfile` of each candidate
    #: ``autotune(measure_top_k=...)`` profiled (skips included)
    profiles: list = field(default_factory=list)

    @property
    def ranked(self) -> list[Candidate]:
        return sorted(self.evaluations, key=Candidate.rank_key)

    @property
    def best(self) -> Candidate:
        return self.ranked[0]

    def __len__(self) -> int:
        return len(self.evaluations)

    def table(self) -> list[dict]:
        """Rows (configuration + time) in enumeration order, for the harnesses."""
        return [
            {**c.config, "time_ms": c.milliseconds, "index_ops": c.index_ops}
            for c in self.evaluations
        ]

    def summary(self) -> dict:
        """Compact JSON-friendly summary (used by the benchmark artifact)."""
        best = self.best
        summary = {
            "app": self.app,
            "candidates": len(self.evaluations),
            "best_config": best.config,
            "best_time_ms": best.milliseconds,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        if self.profiles:
            measured = [c for c in self.evaluations if c.measured]
            summary["measured_candidates"] = len(measured)
            if best.measured:
                summary["best_measured_time_ms"] = best.measured_time_seconds * 1e3
            summary["max_analytic_error"] = max(
                (c.metrics.get("analytic_error", 1.0) for c in measured), default=1.0
            )
        return summary


def _normalize_result(result) -> dict:
    """An app's ``evaluate`` may return seconds or a dict of metrics."""
    if isinstance(result, Mapping):
        if "time_seconds" not in result:
            raise ValueError("evaluate() returned a mapping without 'time_seconds'")
        return dict(result)
    return {"time_seconds": float(result)}


def _accepts_device(fn) -> bool:
    """Does this evaluate callable take a ``device`` kwarg?

    The registered apps all do; ad-hoc test/notebook specs may not, and
    they keep evaluating device-free (their results are cached without a
    device component either — see :func:`_evaluate_one`).
    """
    import inspect

    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return "device" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def _evaluate_one(spec, config, device) -> dict:
    if device is not None and _accepts_device(spec.evaluate):
        return _normalize_result(spec.evaluate(config, device=device))
    return _normalize_result(spec.evaluate(config))


def _pool_evaluate(job: tuple) -> dict:
    """Process-pool worker: resolve the app by name and evaluate one config."""
    app_name, config, device = job
    from ..apps.registry import get_app

    return _evaluate_one(get_app(app_name), config, device)


def _service_backed(spec) -> bool:
    """Can the shared compile service resolve this exact spec by name?

    Ad-hoc :class:`~repro.apps.registry.AppSpec` objects (tests, notebooks)
    are not reachable through the registry — or worse, could shadow a
    registered name with a different generator — so they generate inline.
    """
    from ..apps.registry import _APP_MODULES, get_app

    if spec.name not in _APP_MODULES:
        return False
    try:
        return get_app(spec.name) is spec
    except ValueError:
        return False


def _generate_kernels(spec, configs: list[dict], service) -> list:
    """One kernel (or ``None``) per config, through the compile service.

    Registry-backed apps batch-submit one request per *projected* config
    (``AppSpec.generate_config``): candidates differing only in
    evaluation-side axes dedup onto a single compilation, and the service's
    shared cache keeps repeated sweeps warm.
    """
    if spec.generate is None:
        return [None] * len(configs)
    if not _service_backed(spec):
        return [spec.generate(config) for config in configs]
    from ..serve import CompileRequest, default_service

    service = service or default_service()
    requests = [
        CompileRequest(app=spec.name, config=spec.generate_config(config))
        for config in configs
    ]
    return service.submit_batch(requests)


def evaluate_configs(
    spec,
    configs: list[dict],
    *,
    cache: ResultCache,
    service=None,
    parallel: int | None = None,
    device=None,
) -> list["Candidate"]:
    """Analytically evaluate a list of configurations into ranked candidates.

    The shared stage behind :func:`autotune` (which evaluates a whole
    :class:`~repro.tune.space.SearchSpace`) and :func:`repro.tune.search`
    (which evaluates strategy-chosen pools of a space too large to
    enumerate).  Generation goes through the compilation service: it drives
    the unified backend, provides the expression fingerprint the cache keys
    off, and supplies the op-count half of the ranking.  Candidates that
    share a projected kernel share the rendered-expression work (memoised
    by kernel identity — on a 10^4-point space re-rendering per candidate
    would dwarf evaluation).  ``device`` is an optional
    :class:`~repro.gpusim.DeviceSpec` threaded into device-aware app
    evaluates and into every cache key.
    """
    gpu_weights = CostWeights.gpu_default()
    device_key = device.name if device is not None else ""

    keys: list[str] = []
    ops: list[int] = []
    kernels: list[bool] = []
    rendered_memo: dict[int, tuple] = {}
    with span("serve.compile", "serve", app=spec.name, configs=len(configs)):
        generated = _generate_kernels(spec, configs, service)
    for config, kernel in zip(configs, generated):
        expressions = None
        index_ops = 0
        # Ad-hoc specs may generate objects that are not GeneratedKernels
        # (plain source text, say); they degrade to config-only cache keys.
        renderer = getattr(kernel, "rendered_expressions", None)
        if renderer is not None:
            memo = rendered_memo.get(id(kernel))
            if memo is None:
                rendered = renderer()
                memo = (rendered, kernel.binding_ops(gpu_weights) if rendered else 0)
                rendered_memo[id(kernel)] = memo
            rendered, rendered_ops = memo
            if rendered:
                expressions = rendered
                index_ops = rendered_ops
        keys.append(ResultCache.key(spec.name, config, expressions,
                                    backend=spec.backend, device=device_key))
        ops.append(index_ops)
        kernels.append(kernel is not None)

    cached_results: list[dict | None] = [cache.get(key) for key in keys]
    missing = [i for i, entry in enumerate(cached_results) if entry is None]

    # Pool workers re-resolve the spec by name from a fresh process, which
    # only works for the module-backed apps; ad-hoc AppSpecs evaluate serially.
    from ..apps.registry import _APP_MODULES

    with span("tune.model", "tune", app=spec.name,
              configs=len(configs), cached=len(configs) - len(missing)):
        if missing and parallel and parallel > 1 and spec.name in _APP_MODULES:
            from concurrent.futures import ProcessPoolExecutor

            jobs = [(spec.name, configs[i], device) for i in missing]
            chunksize = max(1, len(jobs) // (parallel * 8))
            with ProcessPoolExecutor(max_workers=parallel) as pool:
                fresh = list(pool.map(_pool_evaluate, jobs, chunksize=chunksize))
        else:
            fresh = [_evaluate_one(spec, configs[i], device) for i in missing]

    for i, result in zip(missing, fresh):
        cache.put(keys[i], result)
        cached_results[i] = result

    freshly_evaluated = set(missing)
    evaluations = []
    for order, (config, entry, index_ops, has_kernel) in enumerate(
        zip(configs, cached_results, ops, kernels)
    ):
        assert entry is not None
        metrics = {k: v for k, v in entry.items() if k != "time_seconds"}
        evaluations.append(
            Candidate(
                config=config,
                time_seconds=entry["time_seconds"],
                index_ops=index_ops,
                order=order,
                has_kernel=has_kernel,
                cached=order not in freshly_evaluated,
                metrics=metrics,
            )
        )
    return evaluations


def autotune(
    app,
    space: SearchSpace | None = None,
    cache: ResultCache | None = None,
    cache_path=None,
    parallel: int | None = None,
    service=None,
    verify_top_k: int = 0,
    verify_seed: int = 0,
    measure_top_k: int = 0,
    measure_seed: int = 0,
    measure_workers: int = 0,
    device=None,
    engine: str | None = None,
) -> TuneResult:
    """Sweep an app's configuration space and rank every candidate.

    ``app`` is a registered app name (``"matmul"``, ``"lud"``, ...) or an
    :class:`~repro.apps.registry.AppSpec`; ``space`` defaults to the app's
    full declared space (narrow it with :meth:`SearchSpace.subspace`).
    ``cache``/``cache_path`` enable the persistent result cache, and
    ``parallel`` evaluates cache misses on a process pool of that many
    workers.  ``service`` overrides the shared
    :func:`repro.serve.default_service` used for candidate generation of
    registry-backed apps; ad-hoc specs the registry cannot resolve always
    generate inline (their ``generate`` callable is unreachable through a
    service compiler).  Returns a :class:`TuneResult`;
    ``result.best.config`` is the winning configuration.

    ``measure_top_k`` turns the sweep into **two-stage tuning**: the full
    space is still pre-filtered by the analytic model, then the ``k``
    best-ranked configurations are executed on their substrate through
    :func:`repro.perf.profile` (reusing ``service`` for generation) and
    re-ranked by their *measured* cost; each profiled candidate records its
    analytic-vs-measured disagreement in ``metrics["analytic_error"]`` and
    the full :class:`~repro.perf.KernelProfile` lands in
    :attr:`TuneResult.profiles`.  Candidates whose configuration selects
    nothing executable (external baselines) keep their analytic rank below
    every measured candidate.  ``measure_workers`` fans the measured stage
    out over a process pool (:func:`repro.tune.search.measure_candidates` —
    a candidate whose profile fails is demoted, never fatal); ``0`` keeps
    the stage in-process.  ``device`` selects the
    :class:`~repro.gpusim.DeviceSpec` *both* stages are costed against — a
    zoo key (``"h100"``) or a spec — and is part of the evaluation cache
    key, so one persistent store serves per-device sweeps.  ``engine``
    overrides the substrate execution engine the measurements run under
    (vectorized by default — pass ``"treewalk"`` to force the interpreters;
    see :mod:`repro.vm`).

    ``verify_top_k`` differentially checks the ``k`` best-ranked
    configurations through :mod:`repro.check` before returning — a sweep
    must not hand out a winner whose kernel computes the wrong answer — and
    raises :class:`repro.check.CheckFailure` on the first mismatch; the
    reports (including skips for evaluation-only baselines) land in
    :attr:`TuneResult.verification`.  With both stages requested,
    verification runs after measurement, so it checks the *measured*
    winners.  ``verify_seed`` / ``measure_seed`` make the stages' inputs
    reproducible.
    """
    from ..apps.registry import AppSpec, get_app
    from ..gpusim import get_device

    spec: AppSpec = app if isinstance(app, AppSpec) else get_app(app)
    space = spec.space if space is None else space
    # `cache or ...` would discard a caller-passed *empty* cache: ResultCache
    # defines __len__, so a fresh store is falsy and the warm-sweep contract
    # (pass the same cache twice, second sweep replays) would silently break
    cache = cache if cache is not None else ResultCache(cache_path)
    eval_device = get_device(device) if device is not None else None

    started = time.perf_counter()
    with span("tune.autotune", "tune", app=spec.name,
              measure_top_k=measure_top_k, verify_top_k=verify_top_k) as root:
        configs = list(space)
        if not configs:
            raise ValueError(f"search space for app {spec.name!r} is empty")
        root.add(candidates=len(configs))

        hits_before, misses_before = cache.hits, cache.misses
        # the exhaustive analytic sweep is autotune's pre-filter: it selects
        # the measured stage's survivors exactly as the sampled strategies
        # do for spaces too large to enumerate
        with span("search.prefilter", "search", app=spec.name, strategy="exhaustive"):
            evaluations = evaluate_configs(
                spec, configs, cache=cache, service=service,
                parallel=parallel, device=eval_device,
            )
        cache.save()
        result = TuneResult(
            app=spec.name,
            evaluations=evaluations,
            cache_hits=cache.hits - hits_before,
            cache_misses=cache.misses - misses_before,
        )
        if measure_top_k > 0:
            from ..gpusim import A100_80GB
            from .search import measure_candidates

            measure_device = eval_device or A100_80GB
            with span("search.measure", "search", app=spec.name, top_k=measure_top_k):
                result.profiles.extend(measure_candidates(
                    spec, result.ranked[:measure_top_k],
                    device=measure_device, seed=measure_seed, service=service,
                    engine=engine, workers=measure_workers,
                ))
        if verify_top_k > 0:
            from ..check import CheckFailure, run_check

            with span("check.verify", "check", app=spec.name, top_k=verify_top_k):
                for candidate in result.ranked[:verify_top_k]:
                    report = run_check(spec, candidate.config, seed=verify_seed, service=service)
                    result.verification.append(report)
                    if report.status == "failed":
                        raise CheckFailure(report)
        result.wall_seconds = time.perf_counter() - started
    return result


#: alias: the figure harnesses read better as "sweep the paper's grid"
sweep = autotune
