"""Measured profiling: execute a kernel on its substrate, return its cost.

:func:`profile` is to performance what :func:`repro.check.run_check` is to
correctness — and it is the same execution: the app's one case builder
(:attr:`~repro.apps.registry.AppSpec.case`) produces a small full-launch
problem, the kernel is resolved and the case executed by
:func:`repro.check.run_case`, the prefix both subsystems share (so a
:class:`~repro.serve.CompileService` provides batching/dedup/caching when
one is passed), the output is compared against the app's reference model
(:func:`repro.check.judge_case` — a disagreeing output is a ``failed``
profile, so no wrong kernel is ever ranked by its speed) and the recorded
trace becomes a measured :class:`~repro.gpusim.KernelCost` through
:func:`repro.perf.adapters.trace_to_cost`.

Two time figures come out of every profile:

* the **measured** :class:`~repro.gpusim.TimeBreakdown` of the case as
  executed, and
* the **extrapolated** breakdown at the app's full-size problem, obtained
  by scaling the cost's extensive counters (:meth:`KernelCost.scaled`) by
  the case's declared ``scale`` while the *intensive* measurements — the
  coalescing efficiency baked into the moved bytes, the bank-conflict
  factor, flops per byte — ride along unchanged.  This is what the
  two-stage tuner ranks by.

Each profile also records the **analytic** estimate of the same problem
(``AppSpec.evaluate`` at the case's target configuration) and the
disagreement ratio between the two, which is the model-sanity signal the
``perf-smoke`` CI tripwire watches.

Everything derives from ``(seed, app, config)`` through the same SHA-256
path as the verification subsystem, so a profile reproduces exactly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from ..apps.registry import AppSpec, available_apps, get_app
from ..check.runner import CheckReport, judge_case, run_case, sample_configs
from ..gpusim import A100_80GB, DeviceSpec, KernelCost, TimeBreakdown, estimate_time
from ..obs.trace import span
from .adapters import trace_metrics, trace_to_cost

__all__ = ["KernelProfile", "profile", "profile_app", "profile_all"]


@dataclass
class KernelProfile:
    """The structured outcome of one measured profile."""

    app: str
    backend: str = ""
    #: the configuration the profile was asked about (as sampled/submitted)
    config: dict = field(default_factory=dict)
    #: the resolved small full-launch configuration actually executed
    case_config: dict = field(default_factory=dict)
    #: the full-size configuration the analytic model was evaluated at
    target_config: dict = field(default_factory=dict)
    status: str = "skipped"  # "measured" | "failed" | "skipped"
    reason: str = ""
    seed: int = 0
    kernel: str = ""
    #: device-zoo name of the device model the profile ran against
    device: str = ""
    #: measured cost of the case as executed (extensive counters at case size)
    measured_cost: KernelCost | None = None
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
    #: the differential verdict on the output of the measured execution
    #: (``None``: nothing executed, or the app registers no reference model)
    check: CheckReport | None = None
    #: measured memory behaviour (coalescing efficiency, conflict factor, ...)
    metrics: dict = field(default_factory=dict)

    @property
    def measured_seconds(self) -> float:
        """The extrapolated full-size measured time (0.0 when not measured)."""
        return self.extrapolated.total if self.extrapolated is not None else 0.0

    @property
    def ok(self) -> bool:
        return self.status == "measured"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"

    def as_dict(self) -> dict:
        check = self.check
        return {
            "app": self.app,
            "backend": self.backend,
            "config": dict(self.config),
            "case_config": dict(self.case_config),
            "target_config": dict(self.target_config),
            "status": self.status,
            "reason": self.reason,
            "seed": self.seed,
            "kernel": self.kernel,
            "device": self.device,
            "measured": self.measured.as_dict() if self.measured is not None else None,
            "extrapolated": self.extrapolated.as_dict() if self.extrapolated is not None else None,
            "measured_ms": self.measured_seconds * 1e3,
            "analytic_ms": self.analytic_seconds * 1e3,
            "analytic_error": self.analytic_error,
            "bound": self.extrapolated.bound if self.extrapolated is not None else "",
            "scale": self.scale,
            "launches": self.launches,
            "metrics": dict(self.metrics),
            "check": None if check is None else {
                "status": check.status,
                "max_abs_error": check.max_abs_error,
                "max_rel_error": check.max_rel_error,
            },
        }

    def summary(self) -> str:
        """One log line: measured vs analytic and the reproducing seed."""
        if self.status != "measured":
            return f"{self.app} {self.config}: {self.status} ({self.reason})"
        return (
            f"{self.app} {self.config}: measured={self.measured_seconds * 1e3:.4g}ms "
            f"analytic={self.analytic_seconds * 1e3:.4g}ms "
            f"error={self.analytic_error:.2f}x bound={self.extrapolated.bound} "
            f"seed={self.seed}"
        )


def _resolve(app) -> AppSpec:
    return app if isinstance(app, AppSpec) else get_app(app)


def _analytic_seconds(spec: AppSpec, config: Mapping, device: DeviceSpec) -> float:
    """The app's analytic estimate (``evaluate`` may return seconds or a dict).

    Costed against the profile's own device, so the measured-vs-analytic
    disagreement compares two models of the *same* device.
    """
    result = spec.evaluate(dict(config), device=device)
    if isinstance(result, Mapping):
        return float(result["time_seconds"])
    return float(result)


def profile(
    app,
    config: Mapping,
    *,
    device: DeviceSpec = A100_80GB,
    seed: int = 0,
    service=None,
) -> KernelProfile:
    """Measure — and verify — one ``(app, config)`` pair in one execution.

    Builds the app's case, resolves the kernel (through ``service`` when
    given), executes on the matching substrate (:func:`repro.check.run_case`),
    compares the output against the app's reference model
    (:attr:`KernelProfile.check`) and converts the trace into a measured
    cost + breakdown.  Never raises on a substrate, model or verification
    failure — the outcome is the returned :class:`KernelProfile`.
    """
    spec = _resolve(app)
    report = KernelProfile(app=spec.name, backend=spec.backend, config=dict(config),
                           seed=seed, device=device.name)
    with span("perf.profile", "perf", app=spec.name, device=device.name) as root:
        _profile_inner(spec, config, report, device=device, seed=seed, service=service)
        root.add(status=report.status)
    return report


def _profile_inner(spec: AppSpec, config: Mapping, report: KernelProfile, *,
                   device: DeviceSpec, seed: int, service) -> None:
    if spec.case is None:
        report.reason = "app registers no case builder"
        return
    try:
        run = run_case(spec, config, seed=seed, device=device, service=service)
        if run is None:
            report.reason = "configuration selects no executable kernel"
            return
        case, kernel, _, trace = run
        report.case_config = dict(case.config)
        report.kernel = getattr(kernel, "name", "") or ""
        report.target_config = dict(case.target_config or case.config)
        report.scale = float(case.scale)
        report.launches = int(case.launches)
        if spec.reference is not None:
            report.check = judge_case(spec, config, run, seed=seed)
            if report.check.status == "failed":
                report.status = "failed"
                report.reason = report.check.reason
                return
        if trace is None:
            report.reason = "substrate records no trace for this app"
            return
        with span("perf.adapt", "perf", app=spec.name):
            cost = trace_to_cost(trace, device, name=report.kernel or spec.name,
                                 dtype=case.dtype, tensor_core=case.tensor_core)
            report.measured_cost = cost
            report.measured = estimate_time(cost, device)
            full_cost = replace(cost.scaled(report.scale), launches=report.launches)
            report.extrapolated = estimate_time(full_cost, device)
            report.metrics = trace_metrics(trace, device)
        report.analytic_seconds = _analytic_seconds(spec, report.target_config, device)
    except Exception as exc:  # noqa: BLE001 - fault isolation: a failed profile is a returned status
        report.status = "failed"
        report.reason = f"{type(exc).__name__}: {exc}"
        return
    measured = report.extrapolated.total
    if measured > 0 and report.analytic_seconds > 0:
        high, low = max(measured, report.analytic_seconds), min(measured, report.analytic_seconds)
        report.analytic_error = high / low
    report.status = "measured"


def profile_app(
    app,
    samples: int = 3,
    *,
    device: DeviceSpec = A100_80GB,
    seed: int = 0,
    service=None,
) -> list[KernelProfile]:
    """Profile ``samples`` randomly drawn valid configurations of one app.

    As for :func:`repro.check.check_app`, the first-enumerated (paper
    -preferred) configuration is prepended when the draw misses it, so a
    sweep can never measure zero kernels for an app whose baseline rows
    happen to dominate the sample.
    """
    spec = _resolve(app)
    configs = sample_configs(spec, samples, seed, "perf-configs")
    return [profile(spec, config, device=device, seed=seed, service=service) for config in configs]


def profile_all(
    apps: Sequence[str] | None = None,
    samples: int = 3,
    *,
    device: DeviceSpec = A100_80GB,
    seed: int = 0,
    service=None,
) -> dict[str, list[KernelProfile]]:
    """Sweep apps x sampled configs; profiles grouped by app name."""
    names = list(apps) if apps else available_apps()
    return {
        name: profile_app(name, samples, device=device, seed=seed, service=service)
        for name in names
    }
