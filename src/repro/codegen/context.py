"""The code-generation context: layouts -> named, simplified index expressions.

A :class:`CodegenContext` collects

* the kernel's symbols and their assumptions (sizes are positive, indices are
  bounded by their extents, user constraints such as ``BK | K``),
* named bindings — each binding is a layout slice (``DL_a[pid_m, k, :, :]``),
  a layout inverse (``CL.inv(pid)``), or a plain symbolic expression,

and lowers every binding to simplified source text for a chosen printer.  The
lowering of each binding follows Section IV-A of the paper: both the
unexpanded and the pre-expanded forms are simplified and the variant with the
lower operation count wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..core.slicing import LayoutSlice
from ..symbolic import (
    CostWeights,
    Expr,
    PythonPrinter,
    SymbolicEnv,
    SymInterval,
    Var,
    as_expr,
    expand,
    operation_count,
    simplify_fixpoint,
)
from ..symbolic.memo import MEMO, memo_put

__all__ = ["LoweredBinding", "CodegenContext", "lower_expression", "KernelFamily", "SpecialisationError"]


@dataclass
class LoweredBinding:
    """One named index expression after simplification."""

    name: str
    expr: Expr
    variant: str  # "unexpanded" | "expanded"
    ops: int
    raw: Expr  # before simplification; ``sizes`` are substituted on first read
    substitutions: dict[str, str] = field(default_factory=dict)
    weights: CostWeights = field(default_factory=CostWeights)
    sizes: Mapping[str, int] = field(default_factory=dict)

    @property
    def raw_ops(self) -> int:
        return operation_count(self.raw.subs(self.sizes), self.weights)

    def render(self, printer: PythonPrinter | None = None, extra_substitutions: Mapping[str, str] | None = None) -> str:
        printer = printer or PythonPrinter()
        subs = dict(self.substitutions)
        if extra_substitutions:
            subs.update(extra_substitutions)
        merged = type(printer)(substitutions={**printer.substitutions, **subs})
        return merged.doprint(self.expr)


#: Ties on total op count are broken towards the variant with fewer integer
#: divisions/modulos, which are the expensive operations on GPUs.
_DIVMOD_WEIGHTS = CostWeights(add=0, mul=0, floordiv=1, mod=1, minmax=0, cmp=0, boolean=0)


def lower_expression(
    expr: Expr,
    env: SymbolicEnv,
    pre_expand: str = "auto",
    weights: CostWeights | None = None,
) -> tuple[Expr, str, int]:
    """Simplify ``expr`` under ``env`` choosing the expansion strategy.

    ``pre_expand`` is ``"auto"`` (generate both variants, keep the cheaper —
    the paper's cost model), ``"never"`` or ``"always"``.  Returns
    ``(simplified, variant, op_count)``.
    """
    weights = weights or CostWeights()
    candidates: list[tuple[str, Expr]] = []
    if pre_expand in ("auto", "never"):
        candidates.append(("unexpanded", simplify_fixpoint(expr, env)))
    if pre_expand in ("auto", "always"):
        candidates.append(("expanded", simplify_fixpoint(expand(expr), env)))
    best_variant, best_expr, best_cost = None, None, None
    for variant, simplified in candidates:
        cost = (operation_count(simplified, weights), operation_count(simplified, _DIVMOD_WEIGHTS))
        if best_cost is None or cost < best_cost:
            best_variant, best_expr, best_cost = variant, simplified, cost
    assert best_expr is not None and best_variant is not None and best_cost is not None
    return best_expr, best_variant, best_cost[0]


class CodegenContext:
    """Collects symbols, assumptions and named bindings for one kernel."""

    def __init__(self, name: str = "kernel", pre_expand: str = "auto", weights: CostWeights | None = None):
        self.name = name
        self.env = SymbolicEnv()
        self.pre_expand = pre_expand
        self.weights = weights or CostWeights()
        self._bindings: dict[str, object] = {}
        self._substitutions: dict[str, str] = {}
        self.generation_seconds: float | None = None
        self._lowered: dict[str, LoweredBinding] | None = None
        self._lowered_key: tuple | None = None
        #: access-in-bounds obligations: binding name -> (lo, hi), inclusive
        self._obligations: dict[str, tuple[Expr, Expr]] = {}
        #: obligation verdicts from the last :meth:`lower`: name -> bool
        self.proven_bounds: dict[str, bool] = {}

    # -- symbol declarations -----------------------------------------------------

    def size(self, *names) -> tuple[Var, ...]:
        """Declare positive size symbols and return them as variables."""
        out = []
        for name in names:
            var = name if isinstance(name, Var) else Var(str(name))
            self.env.declare_size(var)
            out.append(var)
        return tuple(out)

    def index(self, name, extent) -> Var:
        """Declare an index symbol with range ``[0, extent - 1]``."""
        return self.env.declare_index(name, extent)

    def nonneg(self, *names) -> tuple[Var, ...]:
        out = []
        for name in names:
            var = name if isinstance(name, Var) else Var(str(name))
            self.env.declare_nonneg(var)
            out.append(var)
        return tuple(out)

    def divisible(self, dividend, divisor) -> None:
        """Record the user constraint that ``divisor`` divides ``dividend``."""
        self.env.declare_divisible(dividend, divisor)

    def substitute(self, **renders: str) -> None:
        """Override how particular variables render in the generated source."""
        self._substitutions.update(renders)

    # -- bindings -----------------------------------------------------------------

    def bind(self, name: str, value) -> None:
        """Bind a name to an expression, a layout slice or a sequence of expressions."""
        self._bindings[name] = value

    def require_in_bounds(self, name: str, lo, hi) -> None:
        """Register the obligation ``lo <= binding <= hi`` (inclusive).

        Obligations are discharged during :meth:`lower`: each is handed to the
        stride-aware prover and the verdict recorded in :attr:`proven_bounds`.
        Backends surface the verdicts on the generated kernel so launch code
        can drop bounds guards for statically proven accesses.
        """
        self._obligations[name] = (as_expr(lo), as_expr(hi))

    def bind_inverse(self, names: Sequence[str], layout, flat_expr) -> None:
        """Bind the components of ``layout.inv(flat_expr)`` to ``names``."""
        coords = layout.inv(as_expr(flat_expr))
        if len(coords) != len(names):
            raise ValueError(
                f"layout.inv produced {len(coords)} coordinates but {len(names)} names were given"
            )
        for name, coord in zip(names, coords):
            self.bind(name, as_expr(coord))

    # -- lowering -----------------------------------------------------------------

    def _lowering_key(self, weights: CostWeights) -> tuple:
        """Identity key of the inputs that determine the lowering result."""
        binding_ids = []
        for name, value in self._bindings.items():
            if isinstance(value, Expr):
                binding_ids.append((name, value._id))
            elif isinstance(value, LayoutSlice):
                # slices are mutable: include the offset expression identity
                # so reassigning it invalidates the cached lowering
                binding_ids.append((name, id(value), value.offset._id))
            else:
                binding_ids.append((name, id(value)))
        return (
            tuple(binding_ids),
            tuple((name, lo._id, hi._id) for name, (lo, hi) in self._obligations.items()),
            tuple(sorted(self._substitutions.items())),
            self.pre_expand,
            weights,
            self.env.fact_token,
        )

    def lower(self, cost_weights: CostWeights | None = None) -> dict[str, LoweredBinding]:
        """Simplify every binding; records the wall-clock generation time.

        ``cost_weights`` optionally overrides the context's operation-count
        weights for this lowering — pass :meth:`CostWeights.gpu_default` to
        make the expanded-vs-unexpanded variant selection use GPU-realistic
        division/modulo costs instead of the paper's flat counts.

        The result is cached: as long as no binding, substitution,
        environment fact or weighting changed since the previous call, the
        previously lowered bindings are returned without re-simplifying
        anything (``render`` calls ``lower``).
        """
        weights = cost_weights or self.weights
        if self._lowered is not None and self._lowered_key == self._lowering_key(weights):
            return self._lowered
        from ..obs.trace import span

        started = time.perf_counter()
        lowered: dict[str, LoweredBinding] = {}
        with span("codegen.lower", "codegen", kernel=self.name, bindings=len(self._bindings)):
            for name, value in self._bindings.items():
                lowered[name] = self._lower_one(name, value, weights)
            if self._obligations:
                self.proven_bounds = self._discharge_obligations(lowered)
        self.generation_seconds = time.perf_counter() - started
        self._lowered = lowered
        # Key computed after lowering: contribute_env may have added facts on
        # the first pass, and the key must reflect the settled environment.
        self._lowered_key = self._lowering_key(weights)
        return lowered

    def _discharge_obligations(self, lowered: Mapping[str, LoweredBinding]) -> dict[str, bool]:
        """Discharge every registered in-bounds obligation against ``lowered``."""
        from .guards import discharge_in_bounds

        verdicts: dict[str, bool] = {}
        for name, (lo, hi) in self._obligations.items():
            binding = lowered.get(name)
            if binding is None:
                raise KeyError(f"in-bounds obligation on unbound name {name!r}")
            verdicts[name] = discharge_in_bounds(
                binding.expr, lo, hi, self.env, kernel=self.name
            )
        return verdicts

    def _lower_one(self, name: str, value, weights: CostWeights | None = None) -> LoweredBinding:
        weights = weights or self.weights
        substitutions = dict(self._substitutions)
        if isinstance(value, LayoutSlice):
            value.contribute_env(self.env)
            substitutions.update(value.substitutions())
            expr = value.offset
        else:
            expr = as_expr(value)
        simplified, variant, ops = lower_expression(expr, self.env, self.pre_expand, weights)
        return LoweredBinding(name, simplified, variant, ops, expr, substitutions, weights)

    def render(self, printer: PythonPrinter | None = None) -> dict[str, str]:
        """Lower all bindings and render them to source text."""
        printer = printer or PythonPrinter()
        return {name: binding.render(printer) for name, binding in self.lower().items()}


class SpecialisationError(ValueError):
    """Sizes that break a fact a :class:`KernelFamily` was lowered under."""


@dataclass(frozen=True)
class KernelFamily:
    """A context lowered once with its extents as size symbols (see DESIGN.md);
    a member is a family with no sizes left, read by backends as a lowered context."""

    name: str
    sizes: tuple[str, ...]
    divisibility: tuple[tuple[Expr, Expr], ...]
    bindings: tuple[LoweredBinding, ...]
    proven_bounds: tuple[tuple[str, bool], ...]
    generation_seconds: float

    @classmethod
    def of(cls, build: Callable[..., CodegenContext], *args) -> "KernelFamily":
        """The family of ``build(*args)``, lowered once into the symbolic memo table."""
        key = ("kernel_family", build, *args)
        family = MEMO.get(key)
        if family is None:
            ctx = build(*args)
            lowered = ctx.lower()
            sizes = tuple(name for name, r in ctx.env.variables().items() if r == SymInterval.positive())
            family = cls(ctx.name, sizes, tuple(ctx.env.divisibility_facts()), tuple(lowered.values()),
                         tuple(ctx.proven_bounds.items()), ctx.generation_seconds or 0.0)
            memo_put(key, family)
        return family

    def specialise(self, **sizes: int) -> "KernelFamily":
        """The member at ``sizes``, after checking every fact the family was lowered under."""
        started = time.perf_counter()
        if set(sizes) != set(self.sizes) or any(type(v) is not int or v < 1 for v in sizes.values()):
            raise SpecialisationError(f"family {self.name!r} takes int sizes >= 1 {self.sizes}, got {sizes}")
        for dividend, divisor in self.divisibility:
            if dividend.evaluate(sizes) % divisor.evaluate(sizes):
                raise SpecialisationError(f"family {self.name!r} needs {divisor} | {dividend}, got {sizes}")
        bindings = tuple(LoweredBinding(b.name, e, b.variant, operation_count(e, b.weights), b.raw,
                                        dict(b.substitutions), b.weights, sizes)
                         for b in self.bindings for e in (b.expr.subs(sizes),))
        return KernelFamily(self.name, (), (), bindings, self.proven_bounds, time.perf_counter() - started)

    def lower(self, cost_weights: CostWeights | None = None) -> dict[str, LoweredBinding]:
        if cost_weights is not None:
            raise TypeError("a family member keeps the weights its family was lowered with")
        return {binding.name: binding for binding in self.bindings}
