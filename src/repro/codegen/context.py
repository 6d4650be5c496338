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
from ..obs.trace import span
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
    print_text,
    simplify_fixpoint,
)
from ..symbolic.expr import _substitution
from ..symbolic.memo import MEMO, memo_put
from .guards import discharge_in_bounds

__all__ = ["LoweredBinding", "CodegenContext", "lower_expression", "KernelFamily", "SpecialisationError"]


@dataclass(frozen=True, init=False)
class LoweredBinding:
    """One named index expression after simplification.

    Frozen: one instance serves every kernel generated from its family."""

    name: str
    expr: Expr
    variant: str  # "unexpanded" | "expanded"
    ops: int
    raw: Expr  # before simplification; ``sizes`` are substituted on first read
    substitutions: Mapping[str, str] = field(default_factory=dict)
    sizes: Mapping[str, int] = field(default_factory=dict)

    def __init__(self, name: str, expr: Expr, variant: str, ops: int, raw: Expr,
                 substitutions: Mapping[str, str] | None = None,
                 sizes: Mapping[str, int] | None = None):
        # one dict update, not the frozen __init__'s object.__setattr__ per field
        vars(self).update(name=name, expr=expr, variant=variant, ops=ops, raw=raw,
                          substitutions={} if substitutions is None else substitutions,
                          sizes={} if sizes is None else sizes)

    @property
    def raw_ops(self) -> int:
        return operation_count(self.raw.subs(self.sizes))

    def render(self, printer_cls: type[PythonPrinter] = PythonPrinter) -> str:
        """The text of :attr:`expr` under ``printer_cls`` with the binding's substitutions."""
        return print_text(self.expr, printer_cls, self.substitutions)


#: Ties on total op count are broken towards the variant with fewer integer
#: divisions/modulos, which are the expensive operations on GPUs.
_DIVMOD_WEIGHTS = CostWeights(add=0, mul=0, floordiv=1, mod=1, minmax=0, cmp=0, boolean=0)


def lower_expression(expr: Expr, env: SymbolicEnv, pre_expand: str = "auto") -> tuple[Expr, str, int]:
    """Simplify ``expr`` under ``env`` choosing the expansion strategy.

    ``pre_expand`` is ``"auto"`` (generate both variants, keep the cheaper —
    the paper's cost model: a flat operation count), ``"never"`` or
    ``"always"``.  Returns ``(simplified, variant, op_count)``.
    """
    candidates: list[tuple[str, Expr]] = []
    if pre_expand in ("auto", "never"):
        candidates.append(("unexpanded", simplify_fixpoint(expr, env)))
    if pre_expand in ("auto", "always"):
        candidates.append(("expanded", simplify_fixpoint(expand(expr), env)))
    best_variant, best_expr, best_cost = None, None, None
    for variant, simplified in candidates:
        cost = (operation_count(simplified), operation_count(simplified, _DIVMOD_WEIGHTS))
        if best_cost is None or cost < best_cost:
            best_variant, best_expr, best_cost = variant, simplified, cost
    assert best_expr is not None and best_variant is not None and best_cost is not None
    return best_expr, best_variant, best_cost[0]


class CodegenContext:
    """Collects symbols, assumptions and named bindings for one kernel."""

    def __init__(self, name: str = "kernel", pre_expand: str = "auto"):
        self.name = name
        self.env = SymbolicEnv()
        self.pre_expand = pre_expand
        self._bindings: dict[str, object] = {}
        self._substitutions: dict[str, str] = {}
        self.generation_seconds: float | None = None
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

    def lower(self) -> dict[str, LoweredBinding]:
        """Simplify every binding and discharge every obligation; records the wall-clock
        generation time.  Each call lowers afresh: a kernel lowers once as a :class:`KernelFamily`."""
        started = time.perf_counter()
        lowered: dict[str, LoweredBinding] = {}
        with span("codegen.lower", "codegen", kernel=self.name, bindings=len(self._bindings)):
            for name, value in self._bindings.items():
                lowered[name] = self._lower_one(name, value)
            if self._obligations:
                self.proven_bounds = self._discharge_obligations(lowered)
        self.generation_seconds = time.perf_counter() - started
        return lowered

    def _discharge_obligations(self, lowered: Mapping[str, LoweredBinding]) -> dict[str, bool]:
        """Discharge every registered in-bounds obligation against ``lowered``."""
        verdicts: dict[str, bool] = {}
        for name, (lo, hi) in self._obligations.items():
            binding = lowered.get(name)
            if binding is None:
                raise KeyError(f"in-bounds obligation on unbound name {name!r}")
            verdicts[name] = discharge_in_bounds(
                binding.expr, lo, hi, self.env, kernel=self.name
            )
        return verdicts

    def _lower_one(self, name: str, value) -> LoweredBinding:
        substitutions = dict(self._substitutions)
        if isinstance(value, LayoutSlice):
            value.contribute_env(self.env)
            substitutions.update(value.substitutions())
            expr = value.offset
        else:
            expr = as_expr(value)
        simplified, variant, ops = lower_expression(expr, self.env, self.pre_expand)
        return LoweredBinding(name, simplified, variant, ops, expr, substitutions)


class SpecialisationError(ValueError):
    """Sizes that break a fact a :class:`KernelFamily` was lowered under."""


@dataclass(frozen=True)
class KernelFamily:
    """A context lowered once with its extents as size symbols (see DESIGN.md), and
    what every backend takes.  A Triton family goes to its backend as it is (its
    sizes are launch arguments); CUDA and MLIR take a member, a family with no
    sizes left."""

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
                         tuple(ctx.proven_bounds.items()), ctx.generation_seconds)
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
        table, pairs = _substitution(sizes)
        bindings = tuple(LoweredBinding(b.name, e, b.variant, operation_count(e), b.raw,
                                        b.substitutions, sizes)
                         for b in self.bindings for e in (b.expr._subs_keyed(table, pairs),))
        return KernelFamily(self.name, (), (), bindings, self.proven_bounds, time.perf_counter() - started)

    def lower(self) -> dict[str, LoweredBinding]:
        """The lowered bindings by name."""
        return {binding.name: binding for binding in self.bindings}
