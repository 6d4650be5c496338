"""Candidates, the analytic evaluation stage and the one tuning result.

The first rung of the tuning ladder (:mod:`repro.tune.search` drives the
rest): each configuration's kernel is generated through the compilation
service (:mod:`repro.serve`), which drives the unified backend registry
(``get_backend`` — Triton, CUDA or MLIR, whichever the app targets) —
candidates that differ only in evaluation-side axes collapse onto one
compile request (``AppSpec.generate_params``), and independent sweeps in
one process share a warm kernel cache — and evaluated with the app's
analytic performance model (:func:`repro.gpusim.estimate_time` under the
hood).  Candidates rank by ``(estimated time, GPU-weighted index-op count,
enumeration order)``: the op-count cost model breaks performance-model ties
toward cheaper index arithmetic, and enumeration order (paper-preferred
values first) breaks exact ties deterministically.  Evaluations land in a
persistent :class:`~repro.cache.ResultCache` keyed off the hash-consed
lowered expressions, the backend and the device, and salted by the source
fingerprint, so re-running a sweep on unchanged code costs nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..cache import ResultCache
from ..gpusim import A100_80GB, DeviceSpec
from ..obs.trace import span
from ..symbolic import CostWeights

__all__ = ["Candidate", "TuneResult", "evaluate_configs"]


@dataclass
class Candidate:
    """One evaluated configuration."""

    config: dict
    time_seconds: float
    index_ops: int = 0
    order: int = 0
    has_kernel: bool = False
    cached: bool = False
    #: measured (substrate-traced) time when the measured stage profiled
    #: this candidate; ``None`` means analytic-only
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
    """The outcome of one tuning run: every candidate plus bookkeeping."""

    app: str
    #: every evaluated candidate, in evaluation order (enumeration order
    #: when the whole space was scanned)
    evaluations: list[Candidate]
    device: str = ""
    #: ``"exhaustive"`` (the whole space was evaluated) or ``"halving"``
    #: (a seeded sample of it, bounded by the budget)
    strategy: str = "exhaustive"
    #: valid configurations in the space
    space_size: int = 0
    wall_seconds: float = 0.0
    #: per-stage wall seconds (``prefilter`` / ``measure``)
    stage_seconds: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: :class:`~repro.perf.KernelProfile` of each candidate the measured
    #: stage profiled (skips and failures included)
    profiles: list = field(default_factory=list)
    #: differential-check reports of the top-ranked configs (``verify_top_k``)
    verification: list = field(default_factory=list)

    @property
    def ranked(self) -> list[Candidate]:
        return sorted(self.evaluations, key=Candidate.rank_key)

    @property
    def best(self) -> Candidate:
        return self.ranked[0]

    @property
    def evaluated(self) -> int:
        """Candidates evaluated analytically."""
        return len(self.evaluations)

    @property
    def measured(self) -> int:
        """Candidates re-ranked by measured substrate cost."""
        return sum(1 for p in self.profiles if p.ok)

    def __len__(self) -> int:
        return len(self.evaluations)

    def table(self) -> list[dict]:
        """Rows (configuration + time) in evaluation order, for the harnesses."""
        return [
            {**c.config, "time_ms": c.milliseconds, "index_ops": c.index_ops}
            for c in self.evaluations
        ]

    def summary(self) -> dict:
        """Compact JSON-friendly summary of the sweep and its winner."""
        best = self.best
        return {
            "app": self.app,
            "device": self.device,
            "strategy": self.strategy,
            "space_size": self.space_size,
            "candidates_evaluated": self.evaluated,
            "candidates_measured": self.measured,
            "profiles_failed": sum(1 for p in self.profiles if p.status == "failed"),
            "best_config": dict(best.config),
            "best_time_ms": best.milliseconds,
            "best_measured_time_ms": (
                best.measured_time_seconds * 1e3 if best.measured else None
            ),
            "max_analytic_error": max(
                (c.metrics.get("analytic_error", 1.0) for c in self.evaluations if c.measured),
                default=1.0,
            ),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": self.wall_seconds,
            "stage_seconds": dict(self.stage_seconds),
        }


def _normalize_result(result) -> dict:
    """An app's ``evaluate`` may return seconds or a dict of metrics."""
    if isinstance(result, Mapping):
        if "time_seconds" not in result:
            raise ValueError("evaluate() returned a mapping without 'time_seconds'")
        return dict(result)
    return {"time_seconds": float(result)}


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

    Registry-backed apps request each *projected* config
    (``AppSpec.generate_config``) once: the pool is grouped by
    ``CompileRequest.local_key()``, the distinct requests go to
    ``submit_batch``, and every candidate of a group gets its one kernel
    object back — candidates differing only in evaluation-side axes share a
    compilation and pay no submission of their own.  The service's shared
    cache keeps repeated sweeps warm.
    """
    if spec.generate is None:
        return [None] * len(configs)
    if not _service_backed(spec):
        return [spec.generate(config) for config in configs]
    from ..serve import CompileRequest, default_service

    service = service or default_service()
    distinct: dict[tuple, CompileRequest] = {}
    keys = []
    for config in configs:
        request = CompileRequest(app=spec.name, config=spec.generate_config(config))
        key = request.local_key()
        distinct.setdefault(key, request)
        keys.append(key)
    kernels = dict(zip(distinct, service.submit_batch(distinct.values())))
    return [kernels[key] for key in keys]


def evaluate_configs(
    spec,
    configs: list[dict],
    *,
    cache: ResultCache,
    service=None,
    device: DeviceSpec = A100_80GB,
) -> list["Candidate"]:
    """Analytically evaluate a list of configurations into candidates.

    Generation goes through the compilation service: it drives the unified
    backend, provides the expression fingerprint the cache keys off, and
    supplies the op-count half of the ranking.  Candidates that share a
    projected kernel share the rendered-expression work and the kernel half
    of their cache key (:meth:`~repro.cache.ResultCache.kernel_digest`,
    memoised by kernel identity — matmul's 2 000 configurations share four
    kernels, and re-rendering or re-serialising per candidate would dwarf
    evaluation).  ``device`` is the :class:`~repro.gpusim.DeviceSpec` every
    app ``evaluate`` is costed against and a component of every cache key.
    """
    gpu_weights = CostWeights.gpu_default()

    keys: list[str] = []
    ops: list[int] = []
    kernels: list[bool] = []
    # id(kernel) -> (kernel digest, index ops); the generated list keeps every id live
    rendered_memo: dict[int, tuple] = {}
    with span("serve.compile", "serve", app=spec.name, configs=len(configs)):
        generated = _generate_kernels(spec, configs, service)
    for config, kernel in zip(configs, generated):
        memo = rendered_memo.get(id(kernel))
        if memo is None:
            expressions = None
            index_ops = 0
            # Ad-hoc specs may generate objects that are not GeneratedKernels
            # (plain source text, say); they degrade to config-only cache keys.
            renderer = getattr(kernel, "rendered_expressions", None)
            if renderer is not None:
                rendered = renderer()
                if rendered:
                    expressions = rendered
                    index_ops = kernel.binding_ops(gpu_weights)
            memo = (ResultCache.kernel_digest(spec.name, expressions, backend=spec.backend,
                                              device=device.name), index_ops)
            rendered_memo[id(kernel)] = memo
        digest, index_ops = memo
        keys.append(ResultCache.candidate_key(digest, config))
        ops.append(index_ops)
        kernels.append(kernel is not None)

    cached_results: list[dict | None] = [cache.get(key) for key in keys]
    missing = [i for i, entry in enumerate(cached_results) if entry is None]
    with span("tune.model", "tune", app=spec.name,
              configs=len(configs), cached=len(configs) - len(missing)):
        fresh = [_normalize_result(spec.evaluate(configs[i], device=device)) for i in missing]
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
