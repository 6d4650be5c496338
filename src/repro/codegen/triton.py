"""Triton template instantiation (Section IV-A of the paper).

The user supplies a Triton kernel template with ``{{ placeholder }}`` markers
for every index expression, plus layouts for data and computation; LEGO lowers
the layouts to simplified symbolic expressions and substitutes them into the
template.  The result is an ordinary Triton kernel (Figure 10 of the paper).

In this reproduction the generated kernels are strings of *mini-Triton*
source: syntactically the same ``tl.*`` calls as real Triton, executed by the
NumPy-backed interpreter in :mod:`repro.minitriton` (the substitution for a
GPU + the Triton compiler documented in DESIGN.md).

The actual lower-render-validate sequence lives in the shared
:class:`~repro.codegen.backend.TemplateBackend`; this module contributes the
Triton printer, the :class:`TritonKernel` result type and the registry entry
(``get_backend("triton")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..symbolic import TritonPrinter
from .backend import GeneratedKernel, TemplateBackend, register_backend

__all__ = ["TritonKernel", "TritonBackend"]


@dataclass
class TritonKernel(GeneratedKernel):
    """A generated Triton kernel: source text plus lowering metadata."""

    constants: dict[str, int] = field(default_factory=dict)


@register_backend
class TritonBackend(TemplateBackend):
    """Template instantiation printed with Triton syntax (``//``, ``tl.arange``)."""

    name = "triton"
    printer_cls = TritonPrinter
    kernel_cls = TritonKernel

    def kernel_kwargs(self, options: dict) -> dict:
        constants = options.pop("constants", None)
        super().kernel_kwargs(options)
        return {"constants": dict(constants or {})}
