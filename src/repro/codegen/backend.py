"""The unified code-generation backend protocol and registry.

Before this module existed the Triton, CUDA and MLIR generators each
reimplemented the same lower-render-validate sequence with drifting behaviour
(the MLIR path, for example, raised a bare ``KeyError`` for an unbound SSA
name while the template paths raised a named ``ValueError``).  Everything
now flows through one abstraction:

* :class:`GeneratedKernel` — the common result type: source text plus the
  lowered bindings and generation metadata.  The per-backend kernel classes
  (``TritonKernel``, ``CudaKernel``, ``MlirKernel``) subclass it, so existing
  call sites keep their familiar fields while new code (the autotuner) can
  treat every backend uniformly.
* :class:`Backend` — the protocol: ``generate(name, template, context)``
  returns a :class:`GeneratedKernel`.
* :class:`TemplateBackend` — the shared lower-render-validate implementation
  used by the Triton and CUDA template paths (they differ only in printer
  and result class).
* :func:`register_backend` / :func:`get_backend` /
  :func:`available_backends` — the registry.  The MLIR backend registers
  lazily so the MLIR substrate stays optional at import time.
* :func:`validate_bound` / :func:`raise_unbound` — the shared unbound-name
  validation used by every backend (template placeholders for Triton/CUDA,
  SSA values for MLIR).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from importlib import import_module
from typing import Iterable, Mapping, Sequence

from ..symbolic import CostWeights, PythonPrinter, operation_count
from .context import CodegenContext, KernelFamily, LoweredBinding
from .template import extract_placeholders, render_template

__all__ = [
    "GeneratedKernel",
    "Backend",
    "TemplateBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "raise_unbound",
    "validate_bound",
]


@dataclass
class GeneratedKernel:
    """A generated kernel, independent of the backend that produced it."""

    name: str
    source: str
    bindings: dict[str, LoweredBinding] = field(default_factory=dict)
    backend: str = ""
    generation_seconds: float = 0.0
    #: verdicts of the context's ``require_in_bounds`` obligations: binding
    #: name -> True when the access was proven in-bounds statically.  Launch
    #: code consults this to drop runtime bounds guards.
    proven_bounds: dict[str, bool] = field(default_factory=dict)

    def binding_ops(self, weights: CostWeights | None = None) -> int:
        """Total arithmetic operations across the generated index expressions."""
        return operation_count([b.expr for b in self.bindings.values()], weights)

    def rendered_expressions(self) -> dict[str, str]:
        """Canonical printed form of each lowered index expression.

        This is the cross-process-stable fingerprint of the kernel's index
        arithmetic: the autotuner keys its evaluation cache on it, and the
        compilation service persists it so a kernel restored from the durable
        cache tier keeps the same fingerprint as a freshly generated one.
        """
        return {name: str(binding.expr) for name, binding in self.bindings.items()}

    def evaluate_bindings(self, env: Mapping[str, int]) -> dict[str, int]:
        """Evaluate every lowered index expression under integer bindings.

        This is how the verification subsystem (:mod:`repro.check`) executes
        a kernel's generated index arithmetic numerically without a substrate
        — e.g. proving that a coarsened thread layout enumerates each element
        of its block exactly once.  Only meaningful on freshly generated
        kernels: cache-restored :class:`~repro.serve.service.PersistedKernel`
        objects carry no live expression nodes and return ``{}``.
        """
        return {name: binding.expr.evaluate(dict(env)) for name, binding in self.bindings.items()}


def raise_unbound(kernel_name: str, missing: Sequence[str], what: str = "placeholders") -> None:
    """Raise the shared unbound-name error every backend uses.

    ``what`` names the kind of binding that is missing: ``"placeholders"``
    for the Triton/CUDA template paths, ``"SSA values"`` for MLIR emission.
    """
    raise ValueError(
        f"kernel {kernel_name!r} has unbound {what}: {', '.join(missing)}"
    )


def validate_bound(kernel_name: str, required: Iterable[str], provided: Mapping[str, object] | set,
                   what: str = "placeholders") -> None:
    """Check that every required name is provided, else :func:`raise_unbound`."""
    missing = [name for name in required if name not in provided]
    if missing:
        raise_unbound(kernel_name, missing, what)


class Backend(abc.ABC):
    """One code-generation target (Triton, CUDA, MLIR, ...)."""

    #: registry key (``get_backend(name)``)
    name: str = "?"

    @abc.abstractmethod
    def generate(
        self,
        name: str,
        template,
        context: CodegenContext | KernelFamily,
        extra_bindings: Mapping[str, object] | None = None,
        *,
        cost_weights: CostWeights | None = None,
        **options,
    ) -> GeneratedKernel:
        """Lower ``context``, instantiate ``template`` and return the kernel.

        ``cost_weights`` optionally overrides the operation-count weights used
        for expanded-vs-unexpanded variant selection (see
        :meth:`CodegenContext.lower`).  Backend-specific ``options`` carry
        metadata such as Triton ``constants`` or CUDA ``launch_bounds``.
        """


class TemplateBackend(Backend):
    """Shared lower-render-validate path for template-driven backends.

    Subclasses set :attr:`printer_cls` (how expressions print),
    :attr:`kernel_cls` (the result dataclass) and implement
    :meth:`kernel_kwargs` to map backend options onto result fields.
    """

    printer_cls = PythonPrinter
    kernel_cls = GeneratedKernel

    def kernel_kwargs(self, options: dict) -> dict:
        if options:
            raise TypeError(f"{self.name} backend got unexpected options: {sorted(options)}")
        return {}

    def generate(
        self,
        name: str,
        template: str,
        context: CodegenContext | KernelFamily,
        extra_bindings: Mapping[str, object] | None = None,
        *,
        cost_weights: CostWeights | None = None,
        **options,
    ) -> GeneratedKernel:
        from ..obs.trace import span

        lowered = context.lower(cost_weights=cost_weights)
        with span("codegen.render", "codegen", kernel=name, backend=self.name):
            printer = self.printer_cls()
            rendered: dict[str, object] = {
                binding_name: binding.render(printer) for binding_name, binding in lowered.items()
            }
            if extra_bindings:
                for key, value in extra_bindings.items():
                    rendered.setdefault(key, value)
            validate_bound(name, extract_placeholders(template), rendered)
            source = render_template(template, rendered)
        return self.kernel_cls(
            name=name,
            source=source,
            bindings=lowered,
            backend=self.name,
            generation_seconds=context.generation_seconds or 0.0,
            proven_bounds=dict(context.proven_bounds),
            **self.kernel_kwargs(dict(options)),
        )


_REGISTRY: dict[str, Backend] = {}

#: backends registered on first use so optional substrates stay import-light
_LAZY_BACKENDS = {"mlir": "repro.codegen.mlir"}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    instance = cls()
    if instance.name in ("?", ""):
        raise ValueError(f"backend class {cls.__name__} must set a registry name")
    _REGISTRY[instance.name] = instance
    return cls


def get_backend(name: str) -> Backend:
    """Look up a backend by name, importing lazily-registered ones on demand."""
    if name not in _REGISTRY and name in _LAZY_BACKENDS:
        import_module(_LAZY_BACKENDS[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        known = sorted(set(_REGISTRY) | set(_LAZY_BACKENDS))
        raise ValueError(f"unknown backend {name!r}; available backends: {', '.join(known)}") from None


def available_backends() -> list[str]:
    """Names of every registered (or lazily registrable) backend."""
    return sorted(set(_REGISTRY) | set(_LAZY_BACKENDS))
