"""Range-aware simplification of layout index expressions.

This module implements the paper's Table II integer division and modulo
rewrite rules, together with the supporting algebraic clean-ups that layout
lowering relies on.  Each rule fires only when its side condition is proven by
:mod:`repro.symbolic.prover` under the assumption environment
(:class:`repro.symbolic.symranges.SymbolicEnv`), mirroring the paper's use of
index ranges plus an SMT solver.

Table II rules (pattern -> result, condition):

1. ``(d*q + r) % d -> r % d``                      (``d != 0``)
2. ``(d*q + r) / d -> q``  or ``q + r / d``        (``d != 0``; first form when ``0 <= r < d``)
3. ``(x % d) / d -> 0``                            (``d > 0``)
4. ``x / a -> 0``                                  (``a > 0``, ``0 <= x < a``)
5. ``x % a -> x``                                  (``a > 0``, ``0 <= x < a``)
6. ``(n + y) / 1 -> n + (y / 1)``                  (``n`` integer; handled by the ``//1`` constructor fold)
7. ``a*(x/a) + x%a -> x``                          (``a != 0``)

Additional (documented) rules beyond Table II that the paper's generated code
requires (cf. Figure 10):

* nested modulo: ``(x % m) % d -> x % d`` when ``d`` divides ``m``;
* divisibility folding: ``(x // d) * d -> x`` and ``x % d -> 0`` when the user
  declared ``d | x`` (e.g. ``BK | K`` for full-tile matmul configurations);
* ``min``/``max`` collapsing when one side is provably dominant.

Architecture
------------

The rules live in an explicit registry (:data:`RULE_REGISTRY`): each is a
:class:`RewriteRule` — a named, documented pattern function attached to one
node type — rather than a branch in a nested if-chain.  The engine applies
them through a **memoised bottom-up rewriter**: expression nodes are
hash-consed (:mod:`repro.symbolic.expr`), so one single-pass rewrite result
per ``(node id, fact token)`` is kept in :mod:`repro.symbolic.memo` — shared
by every environment that declares the same facts, never served under others.
:func:`simplify_fixpoint` additionally files the final fixpoint per root
expression, making repeated lowering of the same index expressions — sibling
kernels, repeat compiles, the hot path of Tables III/IV — a dictionary lookup.

``expand`` distributes products over sums; the code-generation pipeline
generates both the expanded and unexpanded simplified forms and picks the one
with the lower operation count (Section IV-A's cost model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .expr import (
    Add,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
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
from .memo import MEMO, NO_FACTS, memo_put
from .prover import is_nonzero, is_positive, prove_le, prove_lt, prove_nonneg, refuted
from .stats import CACHE_STATS
from .symranges import SymbolicEnv, constant_interval

__all__ = [
    "simplify",
    "expand",
    "simplify_fixpoint",
    "RewriteRule",
    "RULE_REGISTRY",
    "rules_for",
]

_MAX_PASSES = 8
_MAX_DEPTH = 24


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteRule:
    """One named rewrite: a pattern function attached to a node type.

    ``fn(expr, env, rw)`` returns the rewritten expression, or ``None`` when
    the rule does not fire.  ``rw`` is the active :class:`_Rewriter`; rules
    use it to re-enter the engine on freshly built sub-terms (e.g. rule 2
    collapses the remainder division it emits).
    """

    name: str
    node_type: type
    description: str
    fn: Callable[[Expr, SymbolicEnv, "_Rewriter"], Optional[Expr]]


#: all rules, in registration (= application) order
RULE_REGISTRY: list[RewriteRule] = []

_RULES_BY_TYPE: dict[type, tuple[RewriteRule, ...]] = {}


def rules_for(node_type: type) -> tuple[RewriteRule, ...]:
    """The registered rules for one node type, in application order."""
    return _RULES_BY_TYPE.get(node_type, ())


def _rule(node_type: type, name: str, description: str):
    """Class decorator registering a pattern function as a :class:`RewriteRule`."""

    def register(fn):
        rule = RewriteRule(name=name, node_type=node_type, description=description, fn=fn)
        RULE_REGISTRY.append(rule)
        _RULES_BY_TYPE[node_type] = _RULES_BY_TYPE.get(node_type, ()) + (rule,)
        return fn

    return register


# ---------------------------------------------------------------------------
# the memoised rewrite engine
# ---------------------------------------------------------------------------


class _Rewriter:
    """One simplification pass: bottom-up, memoised on the fact set.

    The single-pass result for a node is a pure function of the node identity
    and the environment's facts, so it is filed under ``("simplify", expr_id,
    env.fact_token)``.  Results whose computation ran into the depth cutoff
    are not cached (they would poison shallower queries).
    """

    __slots__ = ("env", "_token", "_cutoff_hit")

    def __init__(self, env: SymbolicEnv):
        self.env = env
        self._token = env.fact_token
        self._cutoff_hit = False

    def rewrite(self, expr: Expr, depth: int = 0) -> Expr:
        if isinstance(expr, (Const, Var)):
            return expr
        key = ("simplify", expr._id, self._token)
        cached = MEMO.get(key)
        if cached is not None:
            CACHE_STATS.simplify_hits += 1
            return cached
        if depth > _MAX_DEPTH:
            self._cutoff_hit = True
            return expr
        outer_cutoff = self._cutoff_hit
        self._cutoff_hit = False
        new = expr.map_children(lambda child: self.rewrite(child, depth + 1))
        result = self.apply_rules(type(new), new)
        subtree_clean = not self._cutoff_hit
        self._cutoff_hit = self._cutoff_hit or outer_cutoff
        if subtree_clean:
            CACHE_STATS.simplify_misses += 1
            memo_put(key, result)
        return result

    def apply_rules(self, node_type: type, expr: Expr) -> Expr:
        """Apply ``node_type``'s rules to ``expr``, restarting after each hit.

        Mirrors the historical recursive structure: a rule that produces a
        node of the same type re-enters the rule list from the top (e.g. the
        modulo-split rule re-examines its own output); a different node type
        is returned as-is, constructor canonicalisation included.
        """
        rules = _RULES_BY_TYPE.get(node_type)
        if not rules:
            return expr
        for _ in range(64):  # structural-termination backstop
            if not isinstance(expr, node_type):
                return expr
            for rule in rules:
                out = rule.fn(expr, self.env, self)
                if out is not None and out is not expr:
                    CACHE_STATS.count_rule(rule.name)
                    expr = out
                    break
            else:
                return expr
        return expr


def simplify(expr: ExprLike, env: SymbolicEnv | None = None, _depth: int = 0) -> Expr:
    """Simplify ``expr`` under the assumptions in ``env`` (single pass, bottom-up)."""
    expr = as_expr(expr)
    env = env or SymbolicEnv()
    return _Rewriter(env).rewrite(expr, _depth)


def simplify_fixpoint(expr: ExprLike, env: SymbolicEnv | None = None) -> Expr:
    """Apply :func:`simplify` repeatedly until the expression stops changing.

    Fixpoints are memoised per (root expression, fact token): every
    intermediate form seen along the way maps to the same final result, so
    re-simplifying either the original or an already-simplified expression,
    under any environment holding the same facts, is a dictionary lookup.
    """
    expr = as_expr(expr)
    env = env or SymbolicEnv()
    token = env.fact_token
    cached = MEMO.get(("fixpoint", expr._id, token))
    if cached is not None:
        CACHE_STATS.fixpoint_hits += 1
        return cached
    CACHE_STATS.fixpoint_misses += 1
    chain = [expr]
    current = expr
    converged = False
    for _ in range(_MAX_PASSES):
        rewriter = _Rewriter(env)
        new = rewriter.rewrite(current, 0)
        if new is current or new == current:
            current = new
            converged = True
            break
        current = new
        chain.append(new)
    if converged:
        # Every intermediate form reaches the same fixpoint, so all of them
        # map to it.  A chain that exhausted the pass budget is NOT cached:
        # querying an intermediate directly would run further passes, and the
        # cache must never return a less-simplified answer than a cold call.
        for seen in chain:
            memo_put(("fixpoint", seen._id, token), current)
    return current


# ---------------------------------------------------------------------------
# modulo rules
# ---------------------------------------------------------------------------


@_rule(Mod, "mod-divisible-zero", "x % d -> 0 when d | x (declared or structural)")
def _mod_divisible_zero(expr: Mod, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    if env.divides(expr.modulus, expr.value_expr):
        return Const(0)
    return None


@_rule(Mod, "mod-split-multiple", "Table II rule 1: (d*q + r) % d -> r % d when d != 0")
def _mod_split_multiple(expr: Mod, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    value, modulus = expr.value_expr, expr.modulus
    if not is_nonzero(modulus, env):
        return None
    multiple, rest = _split_multiple_of(value, modulus, env)
    if multiple is None:
        return None
    if isinstance(rest, Const) and rest.value == 0:
        return Const(0)
    return rw.apply_rules(Mod, Mod(rest, modulus))


@_rule(Mod, "mod-range-identity", "Table II rule 5: x % a -> x when a > 0 and 0 <= x < a")
def _mod_range_identity(expr: Mod, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    value, modulus = expr.value_expr, expr.modulus
    if refuted(value, modulus, env, gap=1):
        return None  # value < modulus fails at a witness: so would either test below
    if not (is_positive(modulus, env) and prove_nonneg(value, env)):
        return None
    value_hi = env.range_of(value).hi
    if value_hi is not None and prove_lt(value_hi, modulus, env):
        return value
    if prove_lt(value, modulus, env):
        return value
    return None


@_rule(Mod, "mod-nested", "(x % m) % d -> x % d when d | m")
def _mod_nested(expr: Mod, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    value, modulus = expr.value_expr, expr.modulus
    if isinstance(value, Mod) and env.divides(modulus, value.modulus):
        return rw.apply_rules(Mod, Mod(value.value_expr, modulus))
    return None


# ---------------------------------------------------------------------------
# floor-division rules
# ---------------------------------------------------------------------------


@_rule(FloorDiv, "div-exact", "(c*d*rest) // d -> c*rest when the division is provably exact")
def _div_exact(expr: FloorDiv, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    return _exact_quotient(expr.numerator, expr.denominator, env)


@_rule(FloorDiv, "div-mod-zero", "Table II rule 3: (x % d) / d -> 0 when d > 0")
def _div_mod_zero(expr: FloorDiv, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    num, den = expr.numerator, expr.denominator
    if isinstance(num, Mod) and num.modulus == den and is_positive(den, env):
        return Const(0)
    return None


@_rule(FloorDiv, "div-range-zero", "Table II rule 4: x / a -> 0 when a > 0 and 0 <= x < a")
def _div_range_zero(expr: FloorDiv, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    num, den = expr.numerator, expr.denominator
    if refuted(num, den, env, gap=1):
        return None  # num < den fails at a witness: so would either test below
    if not (is_positive(den, env) and prove_nonneg(num, env)):
        return None
    num_hi = env.range_of(num).hi
    if num_hi is not None and prove_lt(num_hi, den, env):
        return Const(0)
    if prove_lt(num, den, env):
        return Const(0)
    return None


@_rule(FloorDiv, "div-negative-const", "c // d -> -1 when -d <= c < 0 and d > 0")
def _div_negative_const(expr: FloorDiv, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    # Needed so symbolic range bounds such as (mn*ntn - 1)//mn collapse to
    # ntn - 1, which in turn lets rules 4 and 5 fire on grouped thread layouts.
    num, den = expr.numerator, expr.denominator
    if isinstance(num, Const) and num.value < 0 and is_positive(den, env):
        if prove_le(Const(-num.value), den, env):
            return Const(-1)
    return None


@_rule(
    FloorDiv,
    "div-interval-collapse",
    "x // c -> q when the constant range of x lies within [q*c, (q+1)*c)",
)
def _div_interval_collapse(expr: FloorDiv, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    # Range analysis carries exact constant bounds through negative
    # coefficients, so this subsumes div-range-zero (q == 0, x >= 0)
    # and additionally collapses negative-range and shifted numerators.
    den = expr.denominator
    if not isinstance(den, Const) or den.value <= 0:
        return None
    bounds = constant_interval(expr.numerator, env)
    if not bounds.bounded():
        return None
    quotient = bounds.lo // den.value
    if bounds.hi // den.value != quotient:
        return None
    return Const(quotient)


@_rule(
    Mod,
    "mod-interval-collapse",
    "x % c -> x - q*c when the constant range of x lies within [q*c, (q+1)*c)",
)
def _mod_interval_collapse(expr: Mod, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    mod = expr.modulus
    if not isinstance(mod, Const) or mod.value <= 0:
        return None
    bounds = constant_interval(expr.value_expr, env)
    if not bounds.bounded():
        return None
    quotient = bounds.lo // mod.value
    if bounds.hi // mod.value != quotient:
        return None
    if quotient == 0:
        return expr.value_expr
    return Add(expr.value_expr, Const(-quotient * mod.value))


@_rule(FloorDiv, "div-split-multiple", "Table II rule 2: (d*q + r) / d -> q + r/d when d != 0")
def _div_split_multiple(expr: FloorDiv, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    num, den = expr.numerator, expr.denominator
    if not is_nonzero(den, env):
        return None
    multiple, rest = _split_multiple_of(num, den, env)
    if multiple is None:
        return None
    quotient = multiple
    if isinstance(rest, Const) and rest.value == 0:
        return quotient
    # The split identity (d*q + r)//d == q + r//d requires floor semantics,
    # which hold unconditionally for d != 0 only when the remainder term's
    # floor division is kept; emit q + r//d and let the re-entrant rewrite
    # collapse r//d when 0 <= r < d.
    rest_div = rw.apply_rules(FloorDiv, FloorDiv(rest, den))
    return Add(quotient, rest_div)


def _exact_quotient(num: Expr, den: Expr, env: SymbolicEnv) -> Optional[Expr]:
    """Return ``num / den`` when the division is provably exact and removable."""
    if num == den:
        return Const(1)
    if isinstance(num, Mul):
        factors = list(num.args)
        # literal factor equal to the denominator
        for i, factor in enumerate(factors):
            if factor == den:
                rest = factors[:i] + factors[i + 1 :]
                return Mul(*rest) if rest else Const(1)
        # constant // constant folding with a constant coefficient
        if isinstance(den, Const):
            for i, factor in enumerate(factors):
                if isinstance(factor, Const) and den.value != 0 and factor.value % den.value == 0:
                    rest = factors[:i] + factors[i + 1 :]
                    coeff = Const(factor.value // den.value)
                    return Mul(coeff, *rest) if rest else coeff
    if isinstance(num, Const) and isinstance(den, Const) and den.value != 0:
        if num.value % den.value == 0:
            return Const(num.value // den.value)
    return None


def _split_multiple_of(
    value: Expr, divisor: Expr, env: SymbolicEnv
) -> tuple[Optional[Expr], Expr]:
    """Split ``value`` into ``divisor * quotient + rest``.

    Returns ``(quotient, rest)`` when at least one additive term of ``value``
    is a provable multiple of ``divisor`` (structurally, through a literal
    factor, constant divisibility, or a user-declared divisibility fact);
    otherwise ``(None, value)``.
    """
    terms = list(value.args) if isinstance(value, Add) else [value]
    quotient_terms: list[Expr] = []
    rest_terms: list[Expr] = []
    for term in terms:
        q = _term_quotient(term, divisor, env)
        if q is not None:
            quotient_terms.append(q)
        else:
            rest_terms.append(term)
    if not quotient_terms:
        return None, value
    quotient = Add(*quotient_terms) if len(quotient_terms) > 1 else quotient_terms[0]
    rest = Add(*rest_terms) if rest_terms else Const(0)
    return quotient, rest


def _term_quotient(term: Expr, divisor: Expr, env: SymbolicEnv) -> Optional[Expr]:
    """If ``term`` is a multiple of ``divisor``, return ``term / divisor``."""
    if term == divisor:
        return Const(1)
    if isinstance(term, Const) and isinstance(divisor, Const):
        if divisor.value != 0 and term.value % divisor.value == 0:
            return Const(term.value // divisor.value)
        return None
    if isinstance(term, Mul):
        factors = list(term.args)
        # a literal occurrence of the divisor among the factors
        for i, factor in enumerate(factors):
            if factor == divisor:
                rest = factors[:i] + factors[i + 1 :]
                return Mul(*rest) if rest else Const(1)
        # a constant coefficient divisible by a constant divisor
        if isinstance(divisor, Const) and divisor.value != 0:
            for i, factor in enumerate(factors):
                if isinstance(factor, Const) and factor.value % divisor.value == 0:
                    rest = factors[:i] + factors[i + 1 :]
                    coeff = Const(factor.value // divisor.value)
                    return Mul(coeff, *rest) if rest else coeff
        # a factor pair (d, x // d) whose product is exactly the divisor x
        # (requires d | x, e.g. BK * (K // BK) == K for the matmul layouts)
        for i, factor in enumerate(factors):
            if not isinstance(factor, FloorDiv):
                continue
            x, d = factor.numerator, factor.denominator
            if x != divisor or not env.divides(d, x):
                continue
            for j, other in enumerate(factors):
                if j != i and other == d:
                    rest = [f for k, f in enumerate(factors) if k not in (i, j)]
                    return Mul(*rest) if rest else Const(1)
        # a factor the user declared divisible by the divisor (e.g. K with BK | K)
        for i, factor in enumerate(factors):
            if not isinstance(factor, Const) and factor != divisor and env.divides(divisor, factor):
                rest = factors[:i] + factors[i + 1 :]
                quotient_factor = FloorDiv(factor, divisor)
                return Mul(quotient_factor, *rest) if rest else quotient_factor
    # whole-term divisibility fact (e.g. K with BK | K)
    if not isinstance(term, (Const, Mul)) and env.divides(divisor, term) and term != divisor:
        return FloorDiv(term, divisor)
    return None


# ---------------------------------------------------------------------------
# addition: rule 7 and divisibility folding
# ---------------------------------------------------------------------------


@_rule(Add, "add-recompose", "Table II rule 7: a*(x/a) + x%a -> x when a != 0")
def _add_recompose(expr: Add, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    terms = list(expr.args)

    # Match pairs of terms with equal integer coefficients where one is
    # c*Mod(x, a) and the other is c*a*FloorDiv(x, a).
    changed_any = False
    changed = True
    while changed:
        changed = False
        mod_positions: list[tuple[int, int, Expr, Expr]] = []  # (idx, coeff, x, a)
        for i, term in enumerate(terms):
            coeff, body = _coeff_and_body(term)
            if isinstance(body, Mod):
                mod_positions.append((i, coeff, body.value_expr, body.modulus))
        for (i, coeff, x, a) in mod_positions:
            if not is_nonzero(a, env):
                continue
            for j, other in enumerate(terms):
                if j == i:
                    continue
                if _matches_div_times_divisor(other, coeff, x, a):
                    replacement = Mul(coeff, x) if coeff != 1 else x
                    new_terms = [t for k, t in enumerate(terms) if k not in (i, j)]
                    new_terms.append(replacement)
                    terms = new_terms
                    changed = True
                    changed_any = True
                    break
            if changed:
                break
    if not changed_any:
        return None
    return Add(*terms) if len(terms) > 1 else (terms[0] if terms else Const(0))


def _coeff_and_body(term: Expr) -> tuple[int, Expr]:
    """Split a term into an integer coefficient and the remaining factor."""
    if isinstance(term, Mul):
        coeff = 1
        rest: list[Expr] = []
        for factor in term.args:
            if isinstance(factor, Const):
                coeff *= factor.value
            else:
                rest.append(factor)
        if len(rest) == 1:
            return coeff, rest[0]
        if rest:
            return coeff, Mul(*rest)
        return coeff, Const(1)
    if isinstance(term, Const):
        return term.value, Const(1)
    return 1, term


def _matches_div_times_divisor(term: Expr, coeff: int, x: Expr, a: Expr) -> bool:
    """Does ``term`` equal ``coeff * a * (x // a)``?"""
    expected = Mul(coeff, a, FloorDiv(x, a))
    return term == expected


# ---------------------------------------------------------------------------
# multiplication: divisibility folding
# ---------------------------------------------------------------------------


@_rule(Mul, "mul-div-cancel", "(x // d) * d -> x when d | x")
def _mul_div_cancel(expr: Mul, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    factors = list(expr.args)
    changed_any = False
    changed = True
    while changed:
        changed = False
        for i, factor in enumerate(factors):
            if not isinstance(factor, FloorDiv):
                continue
            x, d = factor.numerator, factor.denominator
            if not env.divides(d, x):
                continue
            for j, other in enumerate(factors):
                if j != i and other == d:
                    new_factors = [f for k, f in enumerate(factors) if k not in (i, j)]
                    new_factors.append(x)
                    factors = new_factors
                    changed = True
                    changed_any = True
                    break
            if changed:
                break
    if not changed_any:
        return None
    if len(factors) == 1:
        return factors[0]
    return Mul(*factors)


# ---------------------------------------------------------------------------
# min / max
# ---------------------------------------------------------------------------


@_rule(Min, "min-dominated", "drop Min arguments some other argument is provably <=")
def _min_dominated(expr: Min, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    args = list(expr.args)
    kept: list[Expr] = []
    for arg in args:
        dominated = False
        for other in args:
            if other is arg:
                continue
            # drop `arg` if some other argument is provably <= arg
            if other != arg and prove_le(other, arg, env) and not prove_le(arg, other, env):
                dominated = True
                break
        if not dominated:
            kept.append(arg)
    if not kept or len(kept) == len(args):
        return None
    if len(kept) == 1:
        return kept[0]
    return Min(*kept)


@_rule(Max, "max-dominated", "drop Max arguments provably <= some other argument")
def _max_dominated(expr: Max, env: SymbolicEnv, rw: _Rewriter) -> Optional[Expr]:
    args = list(expr.args)
    kept: list[Expr] = []
    for arg in args:
        dominated = False
        for other in args:
            if other is arg:
                continue
            if other != arg and prove_le(arg, other, env) and not prove_le(other, arg, env):
                dominated = True
                break
        if not dominated:
            kept.append(arg)
    if not kept or len(kept) == len(args):
        return None
    if len(kept) == 1:
        return kept[0]
    return Max(*kept)


# ---------------------------------------------------------------------------
# expansion (pre-expansion variant of the pipeline)
# ---------------------------------------------------------------------------


def expand(expr: ExprLike) -> Expr:
    """Distribute products over sums (recursively).

    The code-generation pipeline simplifies both the expanded and unexpanded
    forms of every index expression and keeps whichever has the lower
    operation count — the paper's NW benchmark favours the unexpanded form
    while LUD favours the expanded one.
    """
    expr = as_expr(expr)
    if isinstance(expr, (Const, Var)):
        return expr
    key = ("expand", expr._id, NO_FACTS)  # env-independent: one entry per node
    cached = MEMO.get(key)
    if cached is not None:
        return cached
    out = expr.map_children(expand)
    if isinstance(out, Mul):
        out = _expand_mul(out)
    memo_put(key, out)
    return out


def _expand_mul(expr: Expr) -> Expr:
    if not isinstance(expr, Mul):
        return expr
    # Separate out additive factors and distribute them pairwise.
    result_terms: list[Expr] = [Const(1)]
    for factor in expr.args:
        factor_terms = list(factor.args) if isinstance(factor, Add) else [factor]
        new_terms: list[Expr] = []
        for existing in result_terms:
            for ft in factor_terms:
                new_terms.append(Mul(existing, ft))
        result_terms = new_terms
    if len(result_terms) == 1:
        return result_terms[0]
    return Add(*result_terms)
