"""The application registry: a uniform ``AppSpec`` per benchmark app.

Every paper application (matmul, grouped GEMM, softmax, LayerNorm, NW, LUD,
stencil, transpose) registers one :class:`AppSpec` that exposes, uniformly:

* ``space`` — the declarative configuration search space the layout
  autotuner sweeps (tile sizes, orderings, coarsening factors, skew/layout
  selections); every axis reaches the program — a ``generate_params`` key,
  a field of the launcher's configuration, or a parameter of the run the
  case executes — never only the cost model,
* ``generate(config)`` — produce the kernel for one configuration through
  the unified backend registry (``get_backend``); ``None`` for apps whose
  candidates share a single kernel text,
* ``evaluate(config, device=A100_80GB)`` — the analytic performance
  estimate in seconds on one :class:`~repro.gpusim.DeviceSpec` (every app's
  model bottoms out in :func:`repro.gpusim.estimate_time`), optionally a
  dict carrying extra metrics next to ``time_seconds``,
* ``paper_config`` — the axis values of the configuration the paper's
  evaluation prefers, which the tuner tests assert the sweep reproduces.

Specs live next to the app code (each app module defines an ``app_spec()``
factory); this module resolves names lazily so ``import repro`` stays light.

One calling convention, which the tuner, the checker and the profiler call
without inspecting signatures: ``evaluate(config, device=A100_80GB)``, the
one case builder ``case(config, rng, device=None) -> Case | None`` and
every case's ``execute(kernel, device=None)`` — ``device=None`` sizes the
case and records its trace at the CUDA defaults.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Mapping

from ..tune.space import SearchSpace

__all__ = ["AppSpec", "Case", "register_app", "get_app", "available_apps"]


@dataclass(frozen=True)
class Case:
    """One executable instance of an app configuration.

    Built by :attr:`AppSpec.case` and executed once by
    :func:`repro.check.run_case`; :mod:`repro.check` compares the output
    element-wise against the app's NumPy reference model and
    :mod:`repro.perf` does the same *and* turns the trace of that same
    execution into a measured cost.

    ``config`` is the resolved case configuration — the sampled
    configuration with problem sizes shrunk to something the Python
    substrates execute in milliseconds, but with every axis that determines
    the generated kernel left intact.  ``inputs`` are the named NumPy input
    buffers (also what :attr:`AppSpec.reference` consumes);
    ``execute(kernel, device=None)`` runs the whole launch on the app's
    substrate and returns ``(output array, trace or None)``.

    The remaining fields relate the small run to the app's full-size
    problem, so the measured :class:`~repro.gpusim.KernelCost` can be
    extrapolated (the defaults measure the case as executed):

    * ``scale`` — factor the extensive counters (bytes, flops, blocks) are
      multiplied by to represent the full-size run.  Intensive per-block
      properties — coalescing efficiency, bank-conflict degree, flops per
      byte — are exactly what the measurement is for and survive scaling
      unchanged.
    * ``launches`` — kernel launches of the full-size run (launch overhead
      is extensive in launches, not in blocks, so it scales separately).
    * ``target_config`` — the configuration the app's *analytic* model is
      evaluated at when computing the measured-vs-analytic disagreement
      (default: the case's own configuration, i.e. no extrapolation).
    * ``dtype`` / ``tensor_core`` — the arithmetic contract of the measured
      kernel, forwarded into the cost.
    """

    config: dict
    inputs: dict
    execute: Callable
    scale: float = 1.0
    launches: int = 1
    target_config: dict | None = None
    dtype: str = "fp32"
    tensor_core: bool = False


@dataclass(frozen=True)
class AppSpec:
    """One benchmark application, described uniformly for the autotuner."""

    name: str
    backend: str
    space: SearchSpace
    evaluate: Callable[..., object]
    generate: Callable[[Mapping], object] | None = None
    paper_config: Mapping = field(default_factory=dict)
    description: str = ""
    #: the config keys ``generate`` actually reads, or ``None`` when unknown
    #: (= every key).  Declaring them lets the compilation service collapse
    #: configurations that differ only in evaluation-side axes onto one
    #: compile request — e.g. every matmul tiling shares the kernel of its
    #: operand-layout variant — which is where batch dedup gets its leverage.
    generate_params: tuple[str, ...] | None = None
    #: NumPy ground-truth model ``reference(config, inputs) -> array``:
    #: given a resolved case configuration and the named input buffers of a
    #: :class:`Case`, produce the expected output.  Every execution of a case
    #: (:mod:`repro.check`, :mod:`repro.perf`) is compared against it within
    #: per-dtype tolerances.
    reference: Callable[[Mapping, Mapping], object] | None = None
    #: the one case builder: ``case(config, rng, device=None) -> Case | None``
    #: (``None`` when the configuration selects nothing executable — an
    #: external baseline, a shape whose static shared memory would not
    #: launch on ``device``).  ``rng`` is a ``numpy.random.Generator`` —
    #: inputs must come from it so every run reproduces from its printed seed.
    case: Callable[..., "Case | None"] | None = None

    def generate_config(self, config: Mapping) -> dict:
        """Project ``config`` onto the axes that determine the generated kernel."""
        if self.generate_params is None:
            return dict(config)
        return {key: config[key] for key in self.generate_params if key in config}


_APPS: dict[str, AppSpec] = {}

#: app name -> defining module (imported on first ``get_app``)
_APP_MODULES = {
    "matmul": "repro.apps.matmul",
    "grouped_gemm": "repro.apps.grouped_gemm",
    "softmax": "repro.apps.softmax",
    "layernorm": "repro.apps.layernorm",
    "nw": "repro.apps.nw",
    "lud": "repro.apps.lud",
    "stencil": "repro.apps.stencil",
    "transpose": "repro.apps.transpose",
}


def register_app(spec: AppSpec) -> AppSpec:
    """Add one spec to the registry (apps call this at import time)."""
    _APPS[spec.name] = spec
    return spec


#: serialises first-use resolution so concurrent service workers racing on
#: the same app import/register it exactly once
_RESOLVE_LOCK = threading.Lock()


def get_app(name: str) -> AppSpec:
    """Resolve an app by name, importing its module on first use."""
    if name not in _APPS:
        module_name = _APP_MODULES.get(name)
        if module_name is None:
            raise ValueError(
                f"unknown app {name!r}; available apps: {', '.join(available_apps())}"
            )
        with _RESOLVE_LOCK:
            if name not in _APPS:
                module = import_module(module_name)
                if name not in _APPS:
                    # app modules register via their app_spec() factory
                    register_app(module.app_spec())
    return _APPS[name]


def available_apps() -> list[str]:
    """Names of every registrable application."""
    return sorted(set(_APPS) | set(_APP_MODULES))
