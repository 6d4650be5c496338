"""The evidence pass: execute a generated kernel once, judge it, measure it.

The golden-kernel tests pin correctness by byte-identical kernel *text*; a
rewrite-engine or backend bug that changes semantics while the goldens stay
untouched (a new simplify rule, a cost-weight variant flip) would ship
silently.  This module is the executable net beside them, and the
measurement the tuner ranks by is read off the same run.  Every registered
application carries a NumPy **reference model** and one **case** builder
(:class:`~repro.apps.registry.AppSpec.reference` / ``case``), and one pass
over an ``(app, config)`` pair

1. builds a small *full-launch* case from the configuration (kernel
   -determining axes intact, problem sizes shrunk), its inputs drawn from
   a generator seeded by ``(seed, app, configuration)``,
2. resolves the kernel through the app's generator — or the compilation
   service when one is passed — regenerating at the case size when the
   downsizing changed a kernel-determining axis,
3. executes it on the matching substrate (Triton -> ``minitriton.launch``,
   CUDA -> ``minicuda``, MLIR -> ``mlir.interp``) — every launch runs its
   whole grid, so the output is always complete,
4. compares the output with the reference within per-dtype tolerances, and
5. when the pass measures (:func:`profile`, :func:`sweep`), turns the trace
   of that same run into a measured :class:`~repro.gpusim.KernelCost`
   (:func:`~repro.check.adapters.trace_to_cost`), extrapolates it to the
   app's full-size problem and sets the analytic estimate beside it.

The outcome is one :class:`CheckReport` row.  :func:`run_check` and
:func:`check_kernel` stop after step 4, so a verdict costs no trace->cost
conversion and no analytic model; a wrong output is a ``failed`` row that
is never measured, so no wrong kernel is ranked by its speed.

Every case derives its inputs from ``(seed, app, configuration)`` through
SHA-256 — *never* from interpreter hash randomisation or module-level RNG
state — so any reported failure reproduces from the printed seed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..apps.registry import AppSpec, available_apps, get_app
from ..cache import stable_digest
from ..gpusim import A100_80GB, DeviceSpec, TimeBreakdown, estimate_time
from ..obs.trace import span
from .adapters import trace_summary, trace_to_cost

__all__ = [
    "CheckFailure",
    "CheckReport",
    "Tolerance",
    "TOLERANCES",
    "tolerance_for",
    "stable_seed",
    "sample_configs",
    "resolve_case_kernel",
    "run_check",
    "check_kernel",
    "profile",
    "sweep",
    "differential_verifier",
]


@dataclass(frozen=True)
class Tolerance:
    """Element-wise comparison bounds for one dtype family."""

    rtol: float
    atol: float
    #: integer outputs compare exactly; the error fields must be zero
    exact: bool = False


#: per-dtype comparison tolerances.  FP16 kernels accumulate in FP32 and the
#: reference models mirror that dtype path, so the bounds only need to absorb
#: reduction-order differences, not precision loss.
TOLERANCES: dict[str, Tolerance] = {
    "float16": Tolerance(rtol=1e-2, atol=1e-2),
    "float32": Tolerance(rtol=1e-4, atol=1e-5),
    "float64": Tolerance(rtol=1e-8, atol=1e-9),
}


def tolerance_for(dtype: np.dtype) -> Tolerance:
    """The comparison tolerance for one output dtype (integers: exact)."""
    dtype = np.dtype(dtype)
    if dtype.kind in "iub":
        return Tolerance(rtol=0.0, atol=0.0, exact=True)
    try:
        return TOLERANCES[dtype.name]
    except KeyError:
        raise ValueError(f"no differential-check tolerance registered for dtype {dtype.name!r}") from None


def stable_seed(*parts) -> int:
    """A process-stable 60-bit seed derived from JSON-serialisable parts.

    ``random.Random(obj)`` and ``hash(str)`` are randomised per interpreter;
    this routes through the project's canonical :func:`repro.cache.stable_digest`
    instead, so a printed seed reproduces the exact inputs anywhere.
    """
    return int(stable_digest({"seed_parts": parts})[:15], 16)


@dataclass
class CheckReport:
    """One ``(app, config)`` row: the verdict on one execution and its cost.

    The verdict fields are always set; the measured ones (from
    ``target_config`` down) stay empty unless the pass measured
    (:func:`profile`, :func:`sweep`) and the output passed.
    """

    app: str
    backend: str = ""
    #: the configuration the row was asked about (as sampled/submitted)
    config: dict = field(default_factory=dict)
    #: the resolved small full-launch configuration actually executed
    case_config: dict = field(default_factory=dict)
    status: str = "skipped"  # "passed" | "failed" | "skipped"
    reason: str = ""
    dtype: str = ""
    elements: int = 0
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    rtol: float = 0.0
    atol: float = 0.0
    seed: int = 0
    kernel: str = ""
    #: device-zoo name of the device model a measuring pass ran against
    device: str = ""
    #: counters and memory behaviour of the substrate trace
    #: (:func:`~repro.check.adapters.trace_summary`; empty when none was produced)
    trace: dict = field(default_factory=dict)
    #: the full-size configuration the analytic model was evaluated at
    target_config: dict = field(default_factory=dict)
    #: device-model breakdown of the case as executed
    measured: TimeBreakdown | None = None
    #: breakdown extrapolated to the full-size problem (what the tuner ranks by)
    extrapolated: TimeBreakdown | None = None
    #: the app's analytic estimate at ``target_config`` (seconds)
    analytic_seconds: float = 0.0
    #: ``max(measured, analytic) / min(measured, analytic)`` (>= 1)
    analytic_error: float = 1.0
    #: extrapolation bookkeeping (see :class:`~repro.apps.registry.Case`)
    scale: float = 1.0
    launches: int = 1

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"

    @property
    def measured_seconds(self) -> float:
        """The extrapolated full-size measured time (0.0 when not measured)."""
        return self.extrapolated.total if self.extrapolated is not None else 0.0

    def as_dict(self) -> dict:
        row = asdict(self)
        row.update(measured_ms=self.measured_seconds * 1e3,
                   analytic_ms=self.analytic_seconds * 1e3,
                   bound=self.extrapolated.bound if self.extrapolated is not None else "")
        return row

    def summary(self) -> str:
        """One log line: outcome, errors, measured vs analytic and the seed."""
        if self.status == "skipped":
            return f"{self.app} {self.config}: skipped ({self.reason})"
        detail = (
            f"max_abs={self.max_abs_error:.3g} max_rel={self.max_rel_error:.3g} "
            f"elements={self.elements} dtype={self.dtype} seed={self.seed}"
        )
        if self.status == "failed" and self.reason:
            detail = f"{self.reason}; {detail}"
        if self.extrapolated is not None:
            detail += (f" measured={self.measured_seconds * 1e3:.4g}ms "
                       f"analytic={self.analytic_seconds * 1e3:.4g}ms "
                       f"error={self.analytic_error:.2f}x bound={self.extrapolated.bound}")
        return f"{self.app} {self.config}: {self.status.upper()} ({detail})"


class CheckFailure(AssertionError):
    """A differential check failed; carries the :class:`CheckReport`."""

    def __init__(self, report: CheckReport):
        super().__init__(report.summary())
        self.report = report


def _resolve(app) -> AppSpec:
    return app if isinstance(app, AppSpec) else get_app(app)


def sample_configs(spec: AppSpec, samples: int, seed: int) -> list[dict]:
    """``samples`` random valid configs, the paper-preferred one always included.

    Random sampling alone could land every pick on evaluation-only baseline
    rows (e.g. the eager-framework implementations), and a sweep that
    executes zero kernels for an app verifies and measures nothing — so the
    first-enumerated configuration (apps list paper-preferred values first)
    is *prepended* when absent, never swapped in for a sampled config, so
    the randomized coverage stays at ``samples``.
    """
    configs = spec.space.sample(samples, random.Random(stable_seed(seed, spec.name, "configs")))
    preferred = next(iter(spec.space), None)
    if preferred is not None and preferred not in configs:
        configs = [preferred, *configs]
    return configs


def resolve_case_kernel(spec: AppSpec, case, config: Mapping, *, kernel=None, service=None):
    """Resolve the kernel a case executes with.

    ``kernel`` is an already-compiled candidate (the service's
    first-compilation hook passes one); it is used directly when the case
    preserves its kernel-determining axes and regenerated otherwise — e.g.
    an MLIR module with the problem size baked into its memref types cannot
    execute a downsized case.  Fresh generation goes through ``service``
    when one is given (batching/dedup/caching), else inline through the
    app's generator; MLIR kernels restored from a durable cache tier carry
    only printed text, so a live twin is regenerated for the interpreter.
    """
    use = kernel
    if use is not None and spec.generate_config(case.config) != spec.generate_config(dict(config)):
        # the downsized case changed a kernel-determining axis: the supplied
        # kernel cannot execute it, regenerate a twin at the case size
        use = None
    if use is None and spec.generate is not None:
        if service is not None:
            from ..serve import CompileRequest

            use = service.compile(
                CompileRequest(app=spec.name, config=spec.generate_config(case.config))
            )
        else:
            use = spec.generate(case.config)
    if use is not None and spec.backend == "mlir" and getattr(use, "module", None) is None:
        # a kernel restored from the service's durable tier carries only its
        # printed text — no live module the interpreter can execute
        use = spec.generate(case.config) if spec.generate is not None else use
    return use


def _compare(report: CheckReport, actual, reference) -> None:
    actual = np.asarray(actual)
    reference = np.asarray(reference)
    if actual.shape != reference.shape:
        report.status = "failed"
        report.reason = f"shape mismatch: kernel {actual.shape} vs reference {reference.shape}"
        return
    tolerance = tolerance_for(actual.dtype)
    report.dtype = actual.dtype.name
    report.elements = int(actual.size)
    report.rtol, report.atol = tolerance.rtol, tolerance.atol
    a64 = actual.astype(np.float64)
    r64 = reference.astype(np.float64)
    if actual.size:
        difference = np.abs(a64 - r64)
        report.max_abs_error = float(difference.max())
        denominator = np.maximum(np.abs(r64), np.finfo(np.float64).tiny)
        report.max_rel_error = float((difference / denominator).max())
    if tolerance.exact:
        ok = bool(np.array_equal(actual, reference))
    else:
        ok = bool(np.allclose(a64, r64, rtol=tolerance.rtol, atol=tolerance.atol))
    if ok:
        report.status = "passed"
    else:
        report.status = "failed"
        report.reason = "output disagrees with the reference model"


def _measure(report: CheckReport, spec: AppSpec, case, trace, device: DeviceSpec) -> None:
    """Cost the trace of the run just judged; fields are set only on success.

    The measured breakdown is the case as executed; the extrapolated one
    scales the cost's extensive counters by ``case.scale`` (the intensive
    measurements — coalescing, conflict degree, flops per byte — ride along)
    and charges ``case.launches``.  The analytic estimate is the app's
    ``evaluate`` at the case's target configuration on the same device.
    """
    if trace is None:
        report.reason = "substrate records no trace for this app"
        return
    with span("perf.adapt", "perf", app=spec.name):
        cost = trace_to_cost(trace, device, name=report.kernel or spec.name,
                             dtype=case.dtype, tensor_core=case.tensor_core)
        measured = estimate_time(cost, device)
        extrapolated = estimate_time(replace(cost.scaled(case.scale), launches=case.launches),
                                     device)
    target = dict(case.target_config or case.config)
    analytic = spec.evaluate(dict(target), device=device)
    analytic = float(analytic["time_seconds"] if isinstance(analytic, Mapping) else analytic)
    report.target_config, report.scale, report.launches = target, float(case.scale), int(case.launches)
    report.measured, report.extrapolated, report.analytic_seconds = measured, extrapolated, analytic
    if extrapolated.total > 0 and analytic > 0:
        report.analytic_error = max(extrapolated.total, analytic) / min(extrapolated.total, analytic)


def _run(spec: AppSpec, config: Mapping, *, seed: int, device: DeviceSpec | None = None,
         kernel=None, service=None, measure: bool = False) -> CheckReport:
    """The one pass (see the module docstring); never raises on a bad kernel.

    ``device`` is the :class:`~repro.gpusim.DeviceSpec` the case is sized
    for and the substrate records at (``None`` keeps the CUDA defaults).
    The measuring pass keeps the ``perf.*`` span names the ladder attributes.
    """
    report = CheckReport(app=spec.name, backend=spec.backend, config=dict(config), seed=seed,
                         device=device.name if device is not None else "")
    name, category = ("perf.profile", "perf") if measure else ("check.run", "check")
    with span(name, category, app=spec.name, seed=seed) as root:
        try:
            _execute(report, spec, config, device=device, kernel=kernel, service=service,
                     measure=measure)
        except Exception as exc:  # noqa: BLE001 - a config the app cannot build, execute or cost is a failed row
            report.status = "failed"
            report.reason = f"{type(exc).__name__}: {exc}"
        root.add(status=report.status)
    return report


def _execute(report: CheckReport, spec: AppSpec, config: Mapping, *, device, kernel, service,
             measure: bool) -> None:
    if spec.case is None or spec.reference is None:
        report.reason = "app registers no reference model / case builder"
        return
    rng = np.random.default_rng(
        stable_seed(report.seed, spec.name, {k: config[k] for k in sorted(config)}))
    case = spec.case(dict(config), rng, device=device)
    if case is None:
        report.reason = "configuration selects no executable kernel"
        return
    with span("perf.resolve", "perf", app=spec.name):
        use = resolve_case_kernel(spec, case, config, kernel=kernel, service=service)
    report.kernel = getattr(use, "name", "") or ""
    with span("vm.execute", "vm", app=spec.name, kernel=report.kernel or spec.name):
        output, trace = case.execute(use, device=device)
    report.case_config = dict(case.config)
    if trace is not None:
        report.trace = trace_summary(trace, device or A100_80GB)
    _compare(report, output, spec.reference(case.config, case.inputs))
    if measure and report.passed:
        _measure(report, spec, case, trace, device)


def run_check(app, config: Mapping, *, seed: int = 0, service=None) -> CheckReport:
    """The verdict on one ``(app, config)`` pair, end to end.

    Generates the kernel (through ``service`` when given, else inline),
    executes the app's case on its substrate and compares against the
    NumPy reference model.  Never raises on a mismatch — the outcome is the
    returned :class:`CheckReport` (use :func:`differential_verifier` for the
    raising form the compilation service hooks into).
    """
    return _run(_resolve(app), config, seed=seed, service=service)


def check_kernel(app, config: Mapping, kernel, *, seed: int = 0) -> CheckReport:
    """The verdict on an already-compiled kernel for ``config``.

    Used by the service's first-compilation hook: the freshly compiled
    kernel is executed directly when the case preserves its
    kernel-determining axes, and a downsized twin is regenerated through the
    same generator otherwise.
    """
    return _run(_resolve(app), config, seed=seed, kernel=kernel)


def profile(app, config: Mapping, *, device: DeviceSpec = A100_80GB, seed: int = 0,
            service=None) -> CheckReport:
    """Verify and measure one ``(app, config)`` pair in one execution.

    The row of :func:`run_check` on ``device``, plus — when the output
    passed — the measured and extrapolated breakdowns of the same run and
    the analytic estimate beside them.  Never raises on a substrate, model
    or verification failure.
    """
    return _run(_resolve(app), config, seed=seed, device=device, service=service, measure=True)


def sweep(apps: Sequence[str] | None = None, samples: int = 3, *, seed: int = 0,
          device: DeviceSpec = A100_80GB, service=None) -> dict[str, list[CheckReport]]:
    """Verify and measure each app's :func:`sample_configs` draw; rows grouped by app."""
    results = {}
    for name in list(apps) if apps else available_apps():
        spec = get_app(name)
        results[name] = [profile(spec, config, device=device, seed=seed, service=service)
                         for config in sample_configs(spec, samples, seed)]
    return results


def differential_verifier(seed: int = 0):
    """A ``CompileService(verify=...)`` hook enforcing differential checks.

    Runs on the *first* compilation of each distinct kernel (cache hits and
    durable-tier restores were verified when first compiled); raises
    :class:`CheckFailure` so the offending request's future — and every
    deduplicated follower — surfaces the failure instead of a wrong kernel.
    Apps without a registered reference model pass through unchecked.
    """

    def verify(request, kernel) -> None:
        report = check_kernel(request.app, request.config, kernel, seed=seed)
        if report.status == "failed":
            raise CheckFailure(report)

    return verify
