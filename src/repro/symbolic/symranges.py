"""Symbolic interval ranges and the assumption environment.

Layout lowering produces index expressions whose validity conditions involve
*symbolic* bounds: an index atom produced by ``tl.arange(0, BK)`` lies in
``[0, BK - 1]`` where ``BK`` is a compile-time-constant *symbol*, not a
number.  The paper propagates such ranges through the layout and discharges
the side conditions of its simplification rules (Table II) with Z3.  This
module provides the reproduction's equivalent machinery:

* :class:`SymInterval` — the one range domain: an interval whose ends are
  symbolic expressions, literal constants, or ``None`` (unbounded),
* :class:`SymbolicEnv` — the assumption environment: per-variable ranges,
  divisibility facts (``BK`` divides ``K``) and helper constructors for the
  common "size symbol" (positive) and "index symbol" (``0 <= i < extent``)
  declarations,
* :meth:`SymbolicEnv.range_of` — the one expression walker: a sound interval
  for an arbitrary expression.  Operands whose ends are all literal go
  through the integer transfer functions of :class:`~repro.symbolic.ranges.
  Interval` (no expression node is built); anything else through the
  symbolic rules below,
* :func:`constant_interval` — the literal ends of ``range_of``.

The structural non-negativity / positivity checks that make symbolic bound
comparisons possible live in :mod:`repro.symbolic.prover`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Mapping, Optional, Sequence

from .expr import (
    Add,
    Const,
    Expr,
    ExprLike,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
    as_expr,
)
from .memo import MEMO, intern_facts, memo_put
from .ranges import Interval
from .stats import RANGE_HITS, RANGE_MISSES, rule_counter

__all__ = ["SymInterval", "SymbolicEnv", "constant_interval"]


def _opt_expr(value) -> Optional[Expr]:
    if value is None:
        return None
    return as_expr(value)


@dataclass(frozen=True)
class SymInterval:
    """An integer interval whose endpoints may be symbolic expressions."""

    lo: Optional[Expr] = None
    hi: Optional[Expr] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", _opt_expr(self.lo))
        object.__setattr__(self, "hi", _opt_expr(self.hi))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def point(value: ExprLike) -> "SymInterval":
        e = as_expr(value)
        return SymInterval(e, e)

    @staticmethod
    def index(extent: ExprLike) -> "SymInterval":
        """Range of an index into a dimension of symbolic size ``extent``."""
        if isinstance(extent, int):
            return SymInterval(Const(0), Const(extent - 1))
        return SymInterval(Const(0), as_expr(extent) - 1)

    @staticmethod
    def positive() -> "SymInterval":
        return SymInterval(Const(1), None)

    @staticmethod
    def nonneg() -> "SymInterval":
        return SymInterval(Const(0), None)

    @staticmethod
    def top() -> "SymInterval":
        return SymInterval(None, None)

    @staticmethod
    def of(interval: Interval) -> "SymInterval":
        """Wrap an integer interval (the one place literal ends become nodes)."""
        return SymInterval(interval.lo, interval.hi)

    # -- queries --------------------------------------------------------------

    def constant_bounds(self) -> tuple[Optional[int], Optional[int]]:
        """Return the bounds as plain ints where they are literal constants."""
        lo = self.lo.value if isinstance(self.lo, Const) else None
        hi = self.hi.value if isinstance(self.hi, Const) else None
        return lo, hi

    def is_literal(self) -> bool:
        """Are both ends literal constants (the integer kernel's exact case)?"""
        return isinstance(self.lo, Const) and isinstance(self.hi, Const)

    def literal_ends(self) -> Interval:
        """The literal ends as an integer interval; a symbolic or missing end
        widens to unbounded, so the result is sound wherever this one is."""
        return Interval(*self.constant_bounds())

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


#: an environment keeps up to this many witness valuations, found in at most
#: this many draws; an unbounded range end is drawn within this span of the
#: other (small sizes are what make ``x < BN``-shaped obligations fail)
_WITNESS_COUNT, _WITNESS_ATTEMPTS, _WITNESS_SPAN = 6, 24, 6

#: environments whose draws found no witness at all
_NO_WITNESS = rule_counter("witness:none")


class SymbolicEnv:
    """Assumption environment for symbolic simplification.

    The environment records, for each variable name:

    * a :class:`SymInterval` range (possibly with symbolic bounds), and

    separately a set of divisibility facts ``divisor | dividend`` supplied by
    the user (the paper's "users can provide their own constraints" hook) —
    these license rewrites such as ``(K // BK) * BK -> K``.

    Environments are mutated in place by the ``declare_*`` helpers; the
    layout-lowering context builds one environment per kernel.

    An environment owns no cache: every answer derived under it lives in the
    process-wide table of :mod:`repro.symbolic.memo` under :attr:`fact_token`,
    so environments holding the same facts share their answers and a
    ``declare_*`` that changes a fact moves this one to another token.  The
    table is safe to share between threads; an environment is an ordinary
    mutable object (do not declare on one while another thread queries it).
    """

    def __init__(self):
        self._ranges: dict[str, SymInterval] = {}
        self._divisibility: set[tuple[Expr, Expr]] = set()
        self._positive_exprs: set[Expr] = set()
        self._le_facts: list[tuple[Expr, Expr]] = []
        self._max_depth = 16
        #: the valuations of :meth:`witnesses` (``None`` until asked for)
        self._witnesses: Optional[tuple[dict[str, int], ...]] = None
        self._range_cutoff_events = 0

    def _fact_key(self) -> tuple:
        """The whole fact set, by node id (``==`` ignores ``Var.meta``, which
        ranges read); ``<=`` facts in order: the prover takes the first fit."""
        return (
            frozenset(
                (name, None if r.lo is None else r.lo._id, None if r.hi is None else r.hi._id)
                for name, r in self._ranges.items()
            ),
            frozenset((x._id, d._id) for x, d in self._divisibility),
            frozenset(e._id for e in self._positive_exprs),
            tuple((a._id, b._id) for a, b in self._le_facts),
        )

    @cached_property
    def fact_token(self) -> int:
        """The interned fact set: equal for environments holding the same
        facts, different otherwise (recomputed after a fact changes)."""
        return intern_facts(self._fact_key())

    def _invalidate(self) -> None:
        """A fact changed: forget the token and the witnesses."""
        self.__dict__.pop("fact_token", None)
        self._witnesses = None

    # -- declarations ---------------------------------------------------------

    def declare_size(self, *names_or_vars) -> None:
        """Declare positive "size" symbols (tile sizes, problem sizes, ...)."""
        for item in names_or_vars:
            name = item.name if isinstance(item, Var) else str(item)
            if self._ranges.get(name) != SymInterval.positive():
                self._ranges[name] = SymInterval.positive()
                self._invalidate()

    def declare_index(self, name_or_var, extent: ExprLike) -> Var:
        """Declare an index symbol with range ``[0, extent - 1]``.

        Declaring an index over ``extent`` implicitly asserts the index space
        is non-empty, so the extent itself is recorded as a positive fact
        (needed e.g. for ``K // BK`` extents, whose positivity cannot be
        derived from ``K >= 1`` and ``BK >= 1`` alone).
        """
        if isinstance(name_or_var, Var):
            var = name_or_var
        else:
            var = Var(str(name_or_var))
        interval = SymInterval.index(extent)
        if self._ranges.get(var.name) != interval:
            self._ranges[var.name] = interval
            self._invalidate()
        extent_expr = as_expr(extent)
        if not isinstance(extent_expr, (Const, Var)) and extent_expr not in self._positive_exprs:
            self._positive_exprs.add(extent_expr)
            self._invalidate()
        return var

    def declare_positive(self, *exprs: ExprLike) -> None:
        """Record that each (possibly compound) expression is ``>= 1``."""
        for expr in exprs:
            expr = as_expr(expr)
            if isinstance(expr, Var):
                if expr.name not in self._ranges:
                    self._ranges[expr.name] = SymInterval.positive()
                    self._invalidate()
            elif expr not in self._positive_exprs:
                self._positive_exprs.add(expr)
                self._invalidate()

    def declare_le(self, lhs: ExprLike, rhs: ExprLike) -> None:
        """Record the user constraint ``lhs <= rhs`` (a relational fact).

        This is the paper's "users can provide their own constraints" hook;
        the prover uses these facts to cancel terms that pure interval
        reasoning cannot bound (e.g. ``min(GM, nt_m) * max(1, nt_m // GM) <=
        nt_m`` for the grouped thread-block layout of Figure 1).
        """
        fact = (as_expr(lhs), as_expr(rhs))
        if fact not in self._le_facts:
            self._le_facts.append(fact)
            self._invalidate()

    def is_declared_positive(self, expr: ExprLike) -> bool:
        """Was ``expr`` declared positive (directly or as an index extent)?"""
        return as_expr(expr) in self._positive_exprs

    def le_facts(self) -> tuple[tuple[Expr, Expr], ...]:
        """The declared relational ``lhs <= rhs`` facts."""
        return tuple(self._le_facts)

    def declare_range(self, name_or_var, lo, hi) -> Var:
        """Declare an arbitrary (possibly symbolic) range for a variable."""
        if isinstance(name_or_var, Var):
            var = name_or_var
        else:
            var = Var(str(name_or_var))
        interval = SymInterval(_opt_expr(lo), _opt_expr(hi))
        if self._ranges.get(var.name) != interval:
            self._ranges[var.name] = interval
            self._invalidate()
        return var

    def declare_nonneg(self, *names_or_vars) -> None:
        for item in names_or_vars:
            name = item.name if isinstance(item, Var) else str(item)
            if self._ranges.get(name) != SymInterval.nonneg():
                self._ranges[name] = SymInterval.nonneg()
                self._invalidate()

    def declare_divisible(self, dividend: ExprLike, divisor: ExprLike) -> None:
        """Record the fact ``divisor | dividend`` (divisor divides dividend)."""
        fact = (as_expr(dividend), as_expr(divisor))
        if fact not in self._divisibility:
            self._divisibility.add(fact)
            self._invalidate()

    def copy(self) -> "SymbolicEnv":
        new = SymbolicEnv()
        new._ranges = dict(self._ranges)
        new._divisibility = set(self._divisibility)
        new._positive_exprs = set(self._positive_exprs)
        new._le_facts = list(self._le_facts)
        new._witnesses = self._witnesses  # same facts, same valuations
        return new

    # -- lookups --------------------------------------------------------------

    def range_of_var(self, name: str) -> SymInterval:
        bound = self._ranges.get(name)
        if bound is not None:
            return bound
        return SymInterval.top()

    def variables(self) -> Mapping[str, SymInterval]:
        return dict(self._ranges)

    def divisibility_facts(self) -> Iterable[tuple[Expr, Expr]]:
        return tuple(self._divisibility)

    def divides(self, divisor: Expr, dividend: Expr) -> bool:
        """Can we show that ``divisor`` evenly divides ``dividend``?"""
        divisor = as_expr(divisor)
        dividend = as_expr(dividend)
        if divisor == dividend:
            return True
        if isinstance(divisor, Const) and divisor.value in (1, -1):
            return True
        if isinstance(dividend, Const) and dividend.value == 0:
            return True
        if isinstance(divisor, Const) and isinstance(dividend, Const):
            return divisor.value != 0 and dividend.value % divisor.value == 0
        if (dividend, divisor) in self._divisibility:
            return True
        if isinstance(dividend, Mul):
            # d | (a * b * ...) when d divides one of the factors or d appears
            # literally among the factors.
            for factor in dividend.args:
                if factor == divisor or self.divides(divisor, factor):
                    return True
        if isinstance(dividend, Add):
            return all(self.divides(divisor, term) for term in dividend.args)
        return False

    # -- witness valuations ---------------------------------------------------

    def witnesses(self) -> tuple[dict[str, int], ...]:
        """Concrete valuations of the declared variables at which *every*
        declared fact holds (memoised until the next ``declare_*``).

        Each is a model of the assumptions, so a statement false at one cannot
        follow from them (:func:`repro.symbolic.prover.refuted`).  Candidates
        are drawn from a fixed seed and kept only when :meth:`_satisfies_facts`
        confirms them; facts nobody can satisfy, or over undeclared variables,
        leave the tuple empty, which refutes nothing.
        """
        points = self._witnesses
        if points is None:
            rng = random.Random(0)
            repairs = sorted(  # ``d | x`` facts on a plain variable, in a fixed order
                (f for f in self._divisibility if isinstance(f[0], Var)),
                key=lambda f: (f[0].name, f[1].sort_key()),
            )
            found: list[dict[str, int]] = []
            for _ in range(_WITNESS_ATTEMPTS):
                point = self._sample_point(rng, repairs)
                if point is not None and point not in found and self._satisfies_facts(point):
                    found.append(point)
                    if len(found) == _WITNESS_COUNT:
                        break
            if not found:
                _NO_WITNESS.inc()
            points = self._witnesses = tuple(found)
        return points

    def _sample_point(self, rng: random.Random, repairs) -> Optional[dict[str, int]]:
        """Draw one candidate valuation, layer by layer: variables whose bounds
        the point can already evaluate get a value inside them, then every
        ``d | x`` fact of ``repairs`` on a freshly valued ``x`` rounds ``x`` up
        to a multiple, before anything bounded by ``x`` is drawn."""
        point: dict[str, int] = {}
        pending = list(self._ranges.items())
        while pending:
            fresh: dict[str, int] = {}
            deferred = []
            for name, bound in pending:
                try:
                    lo = None if bound.lo is None else bound.lo.evaluate(point)
                    hi = None if bound.hi is None else bound.hi.evaluate(point)
                except (KeyError, ZeroDivisionError):
                    deferred.append((name, bound))  # not yet (or never) evaluable
                    continue
                if lo is None:
                    lo = -_WITNESS_SPAN // 2 if hi is None else hi - _WITNESS_SPAN
                if hi is None:
                    hi = lo + _WITNESS_SPAN
                if lo > hi:
                    return None
                fresh[name] = rng.randint(lo, hi)
            if not fresh:
                return None  # a bound mentions a variable nobody declared
            point.update(fresh)
            for dividend, divisor in repairs:
                if dividend.name in fresh:
                    try:
                        step = divisor.evaluate(point)
                    except (KeyError, ZeroDivisionError):
                        continue
                    if step > 0:
                        point[dividend.name] = -(-point[dividend.name] // step) * step
            pending = deferred
        return point

    def _satisfies_facts(self, point: Mapping[str, int]) -> bool:
        """Does every declared range, divisibility, positivity and ``<=`` fact
        hold at ``point``?  (By evaluation; a fact that cannot be evaluated
        there does not hold.)"""
        try:
            for name, bound in self._ranges.items():
                value = point[name]
                if bound.lo is not None and bound.lo.evaluate(point) > value:
                    return False
                if bound.hi is not None and bound.hi.evaluate(point) < value:
                    return False
            return (
                all(x.evaluate(point) % d.evaluate(point) == 0 for x, d in self._divisibility)
                and all(e.evaluate(point) >= 1 for e in self._positive_exprs)
                and all(a.evaluate(point) <= b.evaluate(point) for a, b in self._le_facts)
            )
        except (KeyError, ZeroDivisionError):
            return False

    # -- range analysis -------------------------------------------------------

    def range_of(self, expr: Expr, _depth: int = 0) -> SymInterval:
        """Compute a sound symbolic interval for ``expr`` (memoised).

        Results are cached per (expression id, fact token); a result computed
        under a depth cutoff (which conservatively widens to ``top``) is *not*
        cached so that a later shallow query is not poisoned by a deep one.
        """
        key = ("range", expr._id, self.fact_token)
        cached = MEMO.get(key)
        if cached is not None:
            RANGE_HITS.inc()
            return cached
        cutoffs_before = self._range_cutoff_events
        result = self._range_of_dispatch(expr, _depth)
        if self._positive_exprs and expr in self._positive_exprs:
            lo = result.lo
            if lo is None or (isinstance(lo, Const) and lo.value < 1):
                result = SymInterval(Const(1), result.hi)
        if self._range_cutoff_events == cutoffs_before:
            RANGE_MISSES.inc()
            memo_put(key, result)
        return result

    def _range_of_dispatch(self, expr: Expr, _depth: int = 0) -> SymInterval:
        """The one expression walker: pick the node's integer transfer
        function and symbolic rule, then let the operand ranges decide."""
        if _depth > self._max_depth:
            self._range_cutoff_events += 1
            return SymInterval.top()
        depth = _depth + 1

        if isinstance(expr, Const):
            return SymInterval.point(expr)
        if isinstance(expr, Var):
            bound = self._ranges.get(expr.name)
            if bound is not None:
                return bound
            meta_range = expr.meta.get("range")
            if isinstance(meta_range, tuple) and len(meta_range) == 2:
                return SymInterval(*meta_range)
            return SymInterval.top()
        if isinstance(expr, Add):
            kernel, rule = Interval.__add__, self._add_rule
        elif isinstance(expr, Mul):
            kernel, rule = Interval.__mul__, self._mul_rule
        elif isinstance(expr, FloorDiv):
            kernel, rule = Interval.floordiv, self._floordiv_rule
        elif isinstance(expr, Mod):
            kernel, rule = Interval.mod, self._mod_rule
        elif isinstance(expr, Min):
            kernel, rule = Interval.min, self._min_rule
        elif isinstance(expr, Max):
            kernel, rule = Interval.max, self._max_rule
        else:
            # comparisons / boolean nodes take values in {0, 1}
            return SymInterval(Const(0), Const(1))

        ranges = [self.range_of(arg, depth) for arg in expr.args]
        literal = reduce(kernel, (r.literal_ends() for r in ranges))
        if all(r.is_literal() for r in ranges):
            # constant bounds throughout: exact integer arithmetic, wrapped once
            return SymInterval.of(literal)
        result = rule(expr, ranges, depth)
        if result.lo is not None and result.hi is not None:
            return result
        # where the symbolic rule abstains, the operands' literal ends alone
        # may still bound the value (negative or half-bounded div/mod)
        return SymInterval(
            literal.lo if result.lo is None else result.lo,
            literal.hi if result.hi is None else result.hi,
        )

    # Symbolic rules, one per node type; ``ranges`` are the operands' ranges
    # in ``expr.args`` order.  An operand end that is unknown is bounded by
    # the operand itself, so relational reasoning can still cancel it.

    def _add_rule(self, expr: Add, ranges: Sequence[SymInterval], depth: int) -> SymInterval:
        return SymInterval(
            Add(*(arg if r.lo is None else r.lo for arg, r in zip(expr.args, ranges))),
            Add(*(arg if r.hi is None else r.hi for arg, r in zip(expr.args, ranges))),
        )

    def _mul_rule(self, expr: Mul, ranges: Sequence[SymInterval], depth: int) -> SymInterval:
        from .prover import is_nonneg

        # Pull out the literal coefficient to handle negation cleanly.
        coeff = 1
        rest: list[tuple[Expr, SymInterval]] = []
        for arg, r in zip(expr.args, ranges):
            if isinstance(arg, Const):
                coeff *= arg.value
            else:
                rest.append((arg, r))
        if all(is_nonneg(factor, self) for factor, _ in rest):
            # non-negative factors: the product is monotone in each of them
            los = [r.lo for _, r in rest]
            lo = Const(0) if any(b is None for b in los) else Mul(coeff, *los)
            hi = Mul(coeff, *(factor if r.hi is None else r.hi for factor, r in rest))
        elif len(rest) == 1:
            # c * f is monotone in f whatever the sign of f
            factor, r = rest[0]
            lo = Mul(coeff, factor if r.lo is None else r.lo)
            hi = Mul(coeff, factor if r.hi is None else r.hi)
        else:
            return SymInterval.top()
        return SymInterval(lo, hi) if coeff >= 0 else SymInterval(hi, lo)

    def _floordiv_rule(self, expr: FloorDiv, ranges: Sequence[SymInterval], depth: int) -> SymInterval:
        from .prover import is_nonneg, is_positive
        from .simplify import simplify

        num, den = expr.args
        num_range, den_range = ranges
        if not (is_nonneg(num, self) and is_positive(den, self)):
            return SymInterval.top()
        hi: Optional[Expr] = None
        if num_range.hi is not None:
            # x <= hi  and  d >= 1  imply  x // d <= hi // d
            hi = simplify(FloorDiv(num_range.hi, den), self, _depth=depth)
        lo: Expr = Const(0)
        if num_range.lo is not None and den_range.hi is not None:
            lo = simplify(FloorDiv(num_range.lo, den_range.hi), self, _depth=depth)
        return SymInterval(lo, hi)

    def _mod_rule(self, expr: Mod, ranges: Sequence[SymInterval], depth: int) -> SymInterval:
        from .prover import is_nonneg, is_positive, prove_le

        value, modulus = expr.args
        value_range = ranges[0]
        if not is_positive(modulus, self):
            return SymInterval.top()
        if (
            value_range.hi is not None
            and is_nonneg(value, self)
            and prove_le(value_range.hi, modulus - 1, self)
        ):
            # the value never wraps: the mod is the identity on its range
            return SymInterval(value_range.lo or Const(0), value_range.hi)
        return SymInterval(Const(0), modulus - 1)

    def _min_rule(self, expr: Min, ranges: Sequence[SymInterval], depth: int) -> SymInterval:
        from .prover import is_nonneg

        # Min(args) <= Min of per-argument upper bounds; an argument without
        # a known bound is its own (trivial) upper bound, so e.g. Min(GM, nt_m)
        # with unbounded size symbols stays bounded by the Min expression
        # itself — which the relational prover can then use.
        hi = Min(*(arg if r.hi is None else r.hi for arg, r in zip(expr.args, ranges)))
        los = [r.lo for r in ranges]
        if all(isinstance(b, Const) for b in los):
            return SymInterval(min(b.value for b in los), hi)
        return SymInterval(Const(0) if all(is_nonneg(a, self) for a in expr.args) else None, hi)

    def _max_rule(self, expr: Max, ranges: Sequence[SymInterval], depth: int) -> SymInterval:
        los = [r.lo for r in ranges if r.lo is not None]
        # Symmetric to Min: an argument with an unknown upper bound is its own.
        his = [arg if r.hi is None else r.hi for arg, r in zip(expr.args, ranges)]
        if all(isinstance(b, Const) for b in his):
            hi: Expr = Const(max(b.value for b in his))
        else:
            hi = Max(*his)
        return SymInterval(Max(*los) if los else None, hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{k}: {v}" for k, v in sorted(self._ranges.items())]
        divs = [f"{d} | {x}" for (x, d) in self._divisibility]
        return "SymbolicEnv(" + "; ".join(parts + divs) + ")"


def constant_interval(expr: ExprLike, env: SymbolicEnv) -> Interval:
    """The literal ends of ``env.range_of(expr)`` as an integer interval
    (an end that stayed symbolic, or is unknown, reads as unbounded)."""
    return env.range_of(as_expr(expr)).literal_ends()
