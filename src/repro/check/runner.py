"""The differential runner: execute a generated kernel, prove it correct.

The golden-kernel tests pin correctness by byte-identical kernel *text*; a
rewrite-engine or backend bug that changes semantics while the goldens stay
untouched (a new simplify rule, a cost-weight variant flip) would ship
silently.  This module converts that textual safety net into an executable
one: every registered application carries a NumPy **reference model** and
one **case** builder (:class:`~repro.apps.registry.AppSpec.reference` /
``case``), and :func:`run_check`

1. builds a small *full-launch* case from a configuration (kernel
   -determining axes intact, problem sizes shrunk),
2. generates the kernel through the app's generator — or the compilation
   service when one is passed — regenerating at the case size when the
   downsizing changed a kernel-determining axis,
3. executes it on the matching substrate (Triton -> ``minitriton.launch``,
   CUDA -> ``minicuda``, MLIR -> ``mlir.interp``) — every launch runs its
   whole grid, so the output is always complete,
4. asserts the output matches the reference within per-dtype tolerances and
   returns a structured :class:`CheckReport`.

Steps 1-3 are :func:`run_case` and step 4 is :func:`judge_case`;
:func:`repro.perf.profile` calls the same two on the one execution it
measures, so a measured configuration needs no second launch to be verified.

Every case derives its inputs from ``(seed, app, configuration)`` through
SHA-256 — *never* from interpreter hash randomisation or module-level RNG
state — so any reported failure reproduces from the printed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..apps.registry import AppSpec, available_apps, get_app
from ..cache import stable_digest

__all__ = [
    "CheckFailure",
    "CheckReport",
    "Tolerance",
    "TOLERANCES",
    "tolerance_for",
    "stable_seed",
    "sample_configs",
    "resolve_case_kernel",
    "run_case",
    "judge_case",
    "run_check",
    "check_kernel",
    "check_app",
    "check_all",
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
    """The structured outcome of one differential check."""

    app: str
    backend: str = ""
    #: the configuration the check was asked about (as sampled/submitted)
    config: dict = field(default_factory=dict)
    #: the resolved small full-launch configuration actually executed
    check_config: dict = field(default_factory=dict)
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
    #: extensive counters of the substrate trace (empty when none was produced)
    trace: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "backend": self.backend,
            "config": dict(self.config),
            "check_config": dict(self.check_config),
            "status": self.status,
            "reason": self.reason,
            "dtype": self.dtype,
            "elements": self.elements,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
            "rtol": self.rtol,
            "atol": self.atol,
            "seed": self.seed,
            "kernel": self.kernel,
            "trace": dict(self.trace),
        }

    def summary(self) -> str:
        """One log line: outcome, errors and the reproducing seed."""
        if self.status == "skipped":
            return f"{self.app} {self.config}: skipped ({self.reason})"
        detail = (
            f"max_abs={self.max_abs_error:.3g} max_rel={self.max_rel_error:.3g} "
            f"elements={self.elements} dtype={self.dtype} seed={self.seed}"
        )
        if self.status == "failed" and self.reason:
            detail = f"{self.reason}; {detail}"
        return f"{self.app} {self.config}: {self.status.upper()} ({detail})"


class CheckFailure(AssertionError):
    """A differential check failed; carries the :class:`CheckReport`."""

    def __init__(self, report: CheckReport):
        super().__init__(report.summary())
        self.report = report


#: trace attributes copied into the report, when the substrate provides them
_TRACE_COUNTERS = (
    "programs",
    "blocks",
    "load_elements",
    "store_elements",
    "load_bytes",
    "store_bytes",
    "flops",
)


def _trace_counters(trace) -> dict:
    counters = {}
    for name in _TRACE_COUNTERS:
        value = getattr(trace, name, None)
        if value is not None:
            counters[name] = float(value)
    return counters


def _resolve(app) -> AppSpec:
    return app if isinstance(app, AppSpec) else get_app(app)


def sample_configs(spec: AppSpec, samples: int, seed: int, label: str) -> list[dict]:
    """``samples`` random valid configs, the paper-preferred one always included.

    Random sampling alone could land every pick on evaluation-only baseline
    rows (e.g. the eager-framework implementations), and a sweep that
    executes zero kernels for an app verifies/measures nothing — so the
    first-enumerated configuration (apps list paper-preferred values first)
    is *prepended* when absent, never swapped in for a sampled config, so
    the randomized coverage stays at ``samples``.  ``label`` keeps the
    verification and profiling subsystems' draws independent under one seed.
    """
    configs = spec.space.sample(samples, random.Random(stable_seed(seed, spec.name, label)))
    preferred = next(iter(spec.space), None)
    if preferred is not None and preferred not in configs:
        configs = [preferred, *configs]
    return configs


def resolve_case_kernel(spec: AppSpec, case, config: Mapping, *, kernel=None, service=None):
    """Resolve the kernel a case executes with (shared with :mod:`repro.perf`).

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


def _compare(report: CheckReport, actual, reference) -> CheckReport:
    actual = np.asarray(actual)
    reference = np.asarray(reference)
    if actual.shape != reference.shape:
        report.status = "failed"
        report.reason = f"shape mismatch: kernel {actual.shape} vs reference {reference.shape}"
        return report
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
    return report


def run_case(spec: AppSpec, config: Mapping, *, seed: int,
             device=None, kernel=None, service=None):
    """Build the case of ``config`` and execute it on its substrate.

    The prefix :func:`run_check` and :func:`repro.perf.profile` share: seed
    a NumPy generator from ``(seed, app, configuration)``, build the case
    with ``spec.case``, resolve the kernel (:func:`resolve_case_kernel`)
    and execute under the ambient :mod:`repro.vm` engine mode.  ``device``
    is the :class:`~repro.gpusim.DeviceSpec` the builder sizes the case for
    and the substrate records its trace at; ``None`` keeps the CUDA
    defaults.  Returns ``(case, kernel, output, trace)``, or ``None`` when
    the configuration selects nothing executable (an external baseline);
    whatever the builder, the generator or the substrate raises propagates.
    """
    from ..obs.trace import span
    from ..vm.engine import engine_mode

    rng = np.random.default_rng(
        stable_seed(seed, spec.name, {k: config[k] for k in sorted(config)})
    )
    case = spec.case(dict(config), rng, device=device)
    if case is None:
        return None
    with span("perf.resolve", "perf", app=spec.name):
        use = resolve_case_kernel(spec, case, config, kernel=kernel, service=service)
    with span("vm.execute", "vm", app=spec.name, engine=engine_mode(),
              kernel=getattr(use, "name", "") or spec.name):
        output, trace = case.execute(use, device=device)
    return case, use, output, trace


def judge_case(spec: AppSpec, config: Mapping, run, *, seed: int) -> CheckReport:
    """The verdict on one executed case: its output against ``spec.reference``.

    ``run`` is what :func:`run_case` returned for ``config`` under ``seed``.
    """
    case, use, output, trace = run
    report = CheckReport(app=spec.name, backend=spec.backend, config=dict(config), seed=seed,
                         check_config=dict(case.config), kernel=getattr(use, "name", "") or "")
    if trace is not None:
        report.trace = _trace_counters(trace)
    return _compare(report, output, spec.reference(case.config, case.inputs))


def _check(spec: AppSpec, config: Mapping, *, seed: int, kernel, service) -> CheckReport:
    from ..obs.trace import span

    with span("check.run", "check", app=spec.name, seed=seed) as root:
        report = _check_inner(spec, config, seed=seed, kernel=kernel, service=service)
        root.add(status=report.status)
    return report


def _check_inner(spec: AppSpec, config: Mapping, *, seed: int, kernel, service) -> CheckReport:
    report = CheckReport(app=spec.name, backend=spec.backend, config=dict(config), seed=seed)
    if spec.case is None or spec.reference is None:
        report.reason = "app registers no reference model / case builder"
        return report
    try:
        run = run_case(spec, config, seed=seed, kernel=kernel, service=service)
        if run is None:
            report.reason = "configuration selects no executable kernel"
            return report
        return judge_case(spec, config, run, seed=seed)
    except Exception as exc:  # noqa: BLE001 - a config the app cannot build or execute is a failure
        report.status = "failed"
        report.reason = f"{type(exc).__name__}: {exc}"
        return report


def run_check(app, config: Mapping, *, seed: int = 0, service=None) -> CheckReport:
    """Differentially check one ``(app, config)`` pair end to end.

    Generates the kernel (through ``service`` when given, else inline),
    executes the app's case on its substrate and compares against the
    NumPy reference model.  Never raises on a mismatch — the outcome is the
    returned :class:`CheckReport` (use :func:`differential_verifier` for the
    raising form the compilation service hooks into).
    """
    return _check(_resolve(app), config, seed=seed, kernel=None, service=service)


def check_kernel(app, config: Mapping, kernel, *, seed: int = 0) -> CheckReport:
    """Differentially check an already-compiled kernel for ``config``.

    Used by the service's first-compilation hook: the freshly compiled
    kernel is executed directly when the case preserves its
    kernel-determining axes, and a downsized twin is regenerated through the
    same generator otherwise.
    """
    return _check(_resolve(app), config, seed=seed, kernel=kernel, service=None)


def check_app(app, samples: int = 3, *, seed: int = 0, service=None) -> list[CheckReport]:
    """Check ``samples`` randomly drawn valid configurations of one app
    (:func:`sample_configs` keeps the paper-preferred one in the draw)."""
    spec = _resolve(app)
    configs = sample_configs(spec, samples, seed, "configs")
    return [_check(spec, config, seed=seed, kernel=None, service=service) for config in configs]


def check_all(
    apps: Sequence[str] | None = None,
    samples: int = 3,
    *,
    seed: int = 0,
    service=None,
) -> dict[str, list[CheckReport]]:
    """Sweep apps x sampled configs; returns reports grouped by app name."""
    names = list(apps) if apps else available_apps()
    return {name: check_app(name, samples, seed=seed, service=service) for name in names}


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
