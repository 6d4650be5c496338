"""Side-condition prover for the division/modulo simplification rules.

The paper discharges the side conditions of Table II (non-negativity and
upper-bound checks over index ranges derived from the layout specification)
with the Z3 SMT solver.  This reproduction replaces Z3 with a purpose-built
prover that is complete for the queries layout lowering actually generates.
Every obligation — ``e >= 0``, ``e > 0`` (as ``e - 1 >= 0``), ``a <= b`` (as
``b - a >= 0``), an in-bounds pair — is reduced to *one* non-negativity
ladder (:func:`_ladder_nonneg`): refute first, then four proving stages
(:func:`_ladder_stages`), each strictly stronger than the last:

0. **refute** — the obligation evaluates false at one of the environment's
   witness valuations (:meth:`SymbolicEnv.witnesses`: concrete points at
   which every declared fact holds).  Such a point is a model of the facts,
   so the statement does not follow from them and no sound stage below could
   prove it: the answer is ``False`` before any difference or range is built.
   :func:`prove_le` and rewrite rules 4/5 apply the same test to their own
   ``lhs <= rhs`` / ``num < den`` first, so the work is never started;
1. **structure** — sign analysis of sums/products/min/max/div/mod whose
   operand signs are known from the assumption environment;
2. **range** — the lower end of :meth:`SymbolicEnv.range_of` (exact integer
   arithmetic when every bound involved is a literal, so negative
   coefficients and div/mod folding are covered) is itself non-negative;
3. **expand** — stages 1-2 again after distributing products over sums,
   which lets the n-ary ``Add`` canonicaliser cancel syntactically
   different but equal terms (``nt_n*(X + 1) - nt_n - nt_n*X``);
4. **facts** — term cancellation against relational facts: user-declared
   ``lhs <= rhs`` constraints, symbolic index ends (``r_i <= R - 1``) and
   the built-in lemma ``min(a, b) * max(1, a // b) <= a`` (which Z3
   discharges for the paper; grouped thread-block layouts need it).

Which outcome each obligation met — ``refuted``, a stage, or ``abstain`` — is
counted once, on the registry counter
``repro.symbolic.cache.rule_applications.ladder:<outcome>``.
:func:`brute_force_check` enumerates small concrete domains and is the test
suite's oracle that the symbolic reasoning is sound.

All functions return ``True`` only when the property is proven; ``False``
means "unknown", never "disproven" — a refutation is reported as the same
``False``, which is why it changes no verdict a caller could have used.

Every query is memoised in :mod:`repro.symbolic.memo`, keyed ``(query kind,
expression id..., fact token)`` — the same side condition asked again by a
later simplification pass, or by another environment holding the same facts,
is a dictionary lookup; declaring a new fact changes the token.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Mapping, Optional

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
from .memo import MEMO, memo_put
from .stats import PROOF_HITS, PROOF_MISSES, rule_counter
from .symranges import SymbolicEnv

__all__ = [
    "is_nonneg",
    "is_positive",
    "is_nonzero",
    "prove_le",
    "prove_lt",
    "prove_in_bounds",
    "prove_nonneg",
    "prove_positive",
    "prove",
    "brute_force_check",
    "record_proof_queries",
]


# ---------------------------------------------------------------------------
# query recording (prover-completeness regression tests)
# ---------------------------------------------------------------------------

#: when a list, every public ``prove_*`` verdict is appended as
#: ``(kind, printed query, proven)`` — including cache hits, so a recorded
#: sweep sees the query mix the callers actually issue — and every obligation
#: the ladder abstains on (neither refuted nor proven) as kind ``"abstain"``.
_QUERY_LOG: Optional[list] = None


@contextmanager
def record_proof_queries():
    """Collect every ``prove_*`` verdict fired while the context is active.

    Yields the live list of ``(kind, query, proven)`` tuples.  Used by the
    completeness regression test to compare the proven-rate of an 8-app
    generation sweep against a recorded baseline.  Nesting restores the
    previous recorder on exit.
    """
    global _QUERY_LOG
    previous = _QUERY_LOG
    log: list[tuple[str, str, bool]] = []
    _QUERY_LOG = log
    try:
        yield log
    finally:
        _QUERY_LOG = previous


def _record_query(kind: str, query: Callable[[], str], result: bool) -> bool:
    if _QUERY_LOG is not None:
        _QUERY_LOG.append((kind, query(), result))
    return result


def _memoised(tag: str, on_const: Callable[[int], bool]):
    """Memoise a unary ``(expr, env) -> bool`` query under ``(tag, expr id, fact
    token)``; literal constants are decided by ``on_const``, not the table."""

    def decorate(impl: Callable[[Expr, SymbolicEnv], bool]):
        @functools.wraps(impl)
        def query(expr: ExprLike, env: SymbolicEnv) -> bool:
            expr = as_expr(expr)
            if isinstance(expr, Const):
                return on_const(expr.value)
            key = (tag, expr._id, env.fact_token)
            hit = MEMO.get(key)
            if hit is not None:
                PROOF_HITS.inc()
                return hit
            result = impl(expr, env)
            PROOF_MISSES.inc()
            memo_put(key, result)
            return result

        return query

    return decorate


# ---------------------------------------------------------------------------
# stage 1: structural sign analysis
# ---------------------------------------------------------------------------


@_memoised("nonneg", lambda value: value >= 0)
def is_nonneg(expr: Expr, env: SymbolicEnv) -> bool:
    """Structurally prove ``expr >= 0`` under the environment's assumptions."""
    if isinstance(expr, Var):
        lo = env.range_of_var(expr.name).lo
        return isinstance(lo, Const) and lo.value >= 0
    if isinstance(expr, Add):
        if all(is_nonneg(a, env) for a in expr.args):
            return True
        # x - 1 >= 0 is x >= 1 (the canonical Add leads with its constant)
        head, *rest = expr.args
        return isinstance(head, Const) and head.value == -1 and is_positive(Add(*rest), env)
    if isinstance(expr, Mul):
        negatives = 0
        for a in expr.args:
            if is_nonneg(a, env):
                continue
            if _is_nonpos(a, env):
                negatives += 1
            else:
                return False
        return negatives % 2 == 0
    if isinstance(expr, FloorDiv):
        return is_nonneg(expr.numerator, env) and is_positive(expr.denominator, env)
    if isinstance(expr, Mod):
        return is_positive(expr.modulus, env)
    if isinstance(expr, Min):
        return all(is_nonneg(a, env) for a in expr.args)
    if isinstance(expr, Max):
        return any(is_nonneg(a, env) for a in expr.args)
    if isinstance(expr, (Cmp, BoolAnd, BoolOr, BoolNot)):
        return True  # boolean values are 0 or 1
    return False


def _is_nonpos(expr: Expr, env: SymbolicEnv) -> bool:
    """Prove ``expr <= 0`` (used only for sign bookkeeping of products)."""
    if isinstance(expr, Const):
        return expr.value <= 0
    if isinstance(expr, Mul):
        # A product with an explicit negative constant and otherwise
        # non-negative factors is non-positive.
        consts = [a for a in expr.args if isinstance(a, Const)]
        rest = [a for a in expr.args if not isinstance(a, Const)]
        sign = 1
        for c in consts:
            if c.value < 0:
                sign = -sign
            elif c.value == 0:
                return True
        if sign < 0 and all(is_nonneg(a, env) for a in rest):
            return True
    return False


@_memoised("positive", lambda value: value > 0)
def is_positive(expr: Expr, env: SymbolicEnv) -> bool:
    """Structurally prove ``expr > 0`` under the environment's assumptions."""
    if env.is_declared_positive(expr):
        return True
    if isinstance(expr, Var):
        lo = env.range_of_var(expr.name).lo
        return lo is not None and lo is not expr and is_positive(lo, env)
    if isinstance(expr, Add):
        return all(is_nonneg(a, env) for a in expr.args) and any(
            is_positive(a, env) for a in expr.args
        )
    if isinstance(expr, (Mul, Min)):
        return all(is_positive(a, env) for a in expr.args)
    if isinstance(expr, Max):
        return any(is_positive(a, env) for a in expr.args)
    if isinstance(expr, FloorDiv):
        # x // d >= 1 requires x >= d; prove via bound comparison.
        return prove_le(expr.denominator, expr.numerator, env) and is_positive(
            expr.denominator, env
        )
    return False


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------


#: the ladder's outcomes, in order; each miss of :func:`_ladder_nonneg` bumps
#: the outcome's counter in :data:`_LADDER_COUNTERS` exactly once (as does a
#: refutation made above it, by :func:`prove_le` or a rewrite rule)
LADDER_STAGES = ("refuted", "structure", "range", "expand", "facts", "abstain")
_LADDER_COUNTERS = {stage: rule_counter("ladder:" + stage) for stage in LADDER_STAGES}

_ZERO = Const(0)


def refuted(lhs: Expr, rhs: Expr, env: SymbolicEnv, gap: int = 0) -> bool:
    """Is ``lhs + gap <= rhs`` false at one of ``env``'s witness valuations?

    A witness satisfies every declared fact, so a statement false there does
    not follow from the facts and no sound stage below could prove it.  A
    point where either side cannot be evaluated (a variable the environment
    never declared, a zero divisor) is skipped, never guessed.
    """
    for point in env.witnesses():
        try:
            if lhs.evaluate(point) + gap > rhs.evaluate(point):
                _LADDER_COUNTERS["refuted"].inc()
                return True
        except (KeyError, ZeroDivisionError):
            continue
    return False


def _lower_end_nonneg(expr: Expr, env: SymbolicEnv) -> bool:
    lo = env.range_of(expr).lo
    return lo is not None and lo is not expr and is_nonneg(lo, env)


@_memoised("ladder", lambda value: value >= 0)
def _ladder_nonneg(expr: Expr, env: SymbolicEnv) -> bool:
    """Prove ``expr >= 0``: refute, else climb :func:`_ladder_stages`.

    Every public query reduces its obligation to a call of this function
    (see the module docstring).
    """
    return not refuted(_ZERO, expr, env) and _ladder_stages(expr, env)


def _ladder_stages(expr: Expr, env: SymbolicEnv) -> bool:
    """The proving stages, listed in one place: structure, range lower end,
    expand, declared facts."""
    from .simplify import expand  # local import: simplify imports this module

    if is_nonneg(expr, env):
        stage = "structure"
    elif _lower_end_nonneg(expr, env):
        stage = "range"
    else:
        expanded = expand(expr)
        if expanded is not expr and (
            is_nonneg(expanded, env) or _lower_end_nonneg(expanded, env)
        ):
            stage = "expand"
        elif _nonneg_with_facts(expanded, env):
            stage = "facts"
        else:
            stage = "abstain"
            _record_query("abstain", lambda: f"0 <= {expr}", False)
    _LADDER_COUNTERS[stage].inc()
    return stage != "abstain"


def prove_nonneg(expr: ExprLike, env: SymbolicEnv) -> bool:
    """Prove ``expr >= 0``."""
    expr = as_expr(expr)
    return _record_query("nonneg", lambda: f"0 <= {expr}", _ladder_nonneg(expr, env))


def prove_positive(expr: ExprLike, env: SymbolicEnv) -> bool:
    """Prove ``expr > 0`` (equivalently ``expr - 1 >= 0`` over integers)."""
    expr = as_expr(expr)
    return _record_query("positive", lambda: f"0 < {expr}", _ladder_nonneg(expr - 1, env))


def is_nonzero(expr: ExprLike, env: SymbolicEnv) -> bool:
    """Prove ``expr != 0`` (strictly positive, or strictly negative)."""
    expr = as_expr(expr)
    return _ladder_nonneg(expr - 1, env) or _ladder_nonneg(-expr - 1, env)


def prove_le(lhs: ExprLike, rhs: ExprLike, env: SymbolicEnv) -> bool:
    """Prove ``lhs <= rhs``."""
    lhs = as_expr(lhs)
    rhs = as_expr(rhs)
    if lhs == rhs:
        return _record_query("le", lambda: f"{lhs} <= {rhs}", True)
    key = ("le", lhs._id, rhs._id, env.fact_token)
    hit = MEMO.get(key)
    if hit is not None:
        PROOF_HITS.inc()
        return _record_query("le", lambda: f"{lhs} <= {rhs}", hit)
    result = not refuted(lhs, rhs, env) and _prove_le_impl(lhs, rhs, env)
    PROOF_MISSES.inc()
    memo_put(key, result)
    return _record_query("le", lambda: f"{lhs} <= {rhs}", result)


def _prove_le_impl(lhs: Expr, rhs: Expr, env: SymbolicEnv) -> bool:
    # Direct difference: canonicalisation cancels shared terms.
    if _ladder_nonneg(rhs - lhs, env):
        return True
    # Compare through symbolic bounds: lhs <= hi(lhs) and lo(rhs) <= rhs.
    upper = env.range_of(lhs).hi
    lower = env.range_of(rhs).lo
    uppers = [] if upper is None or upper == lhs else [upper]
    lowers = [] if lower is None or lower == rhs else [lower]
    pairs = [(hi, lo) for hi in uppers for lo in [rhs] + lowers]
    pairs += [(lhs, lo) for lo in lowers]
    return any(_ladder_nonneg(lo - hi, env) for hi, lo in pairs)


def _product_facts(expr: Expr, env: SymbolicEnv) -> list[tuple[Expr, Expr]]:
    """Relational facts usable for term cancellation in ``expr``.

    Combines user-declared ``declare_le`` facts, instances of the lemma
    ``Min(a, b) * Max(1, a // b) <= a`` for every ``Min``/``Max`` pair of that
    shape appearing in ``expr`` (both orientations of the ``Min``) and, last,
    ``x <= hi`` for each variable declared with a symbolic upper end ``hi``.
    """
    facts: list[tuple[Expr, Expr]] = list(env.le_facts())
    # The structural identity d * (x // d) <= x for non-negative x, positive d.
    for node in expr.walk():
        if isinstance(node, FloorDiv):
            x, d = node.numerator, node.denominator
            if is_nonneg(x, env) and is_positive(d, env):
                facts.append((Mul(d, node), x))
    mins = [node for node in expr.walk() if isinstance(node, Min) and len(node.args) == 2]
    maxes = [node for node in expr.walk() if isinstance(node, Max) and len(node.args) == 2]
    for min_node in mins:
        for max_node in maxes:
            if not any(isinstance(arg, Const) and arg.value == 1 for arg in max_node.args):
                continue
            div = next((arg for arg in max_node.args if isinstance(arg, FloorDiv)), None)
            if div is None:
                continue
            a, b = div.numerator, div.denominator
            if set(min_node.args) != {a, b}:
                continue
            if is_nonneg(a, env) and is_positive(b, env):
                facts.append((Mul(min_node, max_node), a))
    return facts + [(Var(name), r.hi) for name, r in env.variables().items()
                    if r.hi is not None and not isinstance(r.hi, Const)]


def _mul_factors(expr: Expr) -> tuple[int, list[Expr]]:
    """Split an expression into (integer coefficient, non-constant factors)."""
    if isinstance(expr, Const):
        return expr.value, []
    if isinstance(expr, Mul):
        coeff = 1
        factors: list[Expr] = []
        for arg in expr.args:
            if isinstance(arg, Const):
                coeff *= arg.value
            else:
                factors.append(arg)
        return coeff, factors
    return 1, [expr]


def _remove_factors(factors: list[Expr], to_remove: list[Expr]) -> Optional[list[Expr]]:
    """Multiset difference of factor lists, or ``None`` when not a superset."""
    remaining = list(factors)
    for item in to_remove:
        try:
            remaining.remove(item)
        except ValueError:
            return None
    return remaining


def _nonneg_with_facts(diff: Expr, env: SymbolicEnv) -> bool:
    """Prove ``diff >= 0`` by weakening negative terms with ``<=`` facts.

    For every additive term ``-c * f_lhs * extra`` (``c > 0``, ``extra`` a
    product of non-negative factors) and every fact ``f_lhs <= f_rhs``, the
    term is bounded below by ``-c * f_rhs * extra``; replacing it can only
    decrease the sum, so if the weakened sum is non-negative the original is
    too.  A single round of replacements is attempted (sufficient for the
    layout queries; the brute-force oracle in the test-suite guards against
    over-claiming).
    """
    terms = list(diff.args) if isinstance(diff, Add) else [diff]
    facts = _product_facts(diff, env)
    if not facts:
        return False
    replaced_any = False
    new_terms: list[Expr] = []
    for term in terms:
        coeff, factors = _mul_factors(term)
        if coeff >= 0:
            new_terms.append(term)
            continue
        replacement: Optional[Expr] = None
        for fact_lhs, fact_rhs in facts:
            _, fact_factors = _mul_factors(fact_lhs)
            if not fact_factors:
                fact_factors = [fact_lhs]
            extra = _remove_factors(factors, fact_factors)
            if extra is None:
                continue
            if not all(is_nonneg(f, env) for f in extra):
                continue
            replacement = Mul(Const(coeff), fact_rhs, *extra) if extra else Mul(Const(coeff), fact_rhs)
            break
        if replacement is not None:
            new_terms.append(replacement)
            replaced_any = True
        else:
            new_terms.append(term)
    if not replaced_any:
        return False
    from .simplify import expand

    weakened = expand(Add(*new_terms)) if len(new_terms) > 1 else new_terms[0]
    return is_nonneg(weakened, env)


def prove_lt(lhs: ExprLike, rhs: ExprLike, env: SymbolicEnv) -> bool:
    """Prove ``lhs < rhs`` (equivalently ``lhs <= rhs - 1`` over integers)."""
    return prove_le(as_expr(lhs) + 1, rhs, env)


def prove_in_bounds(
    expr: ExprLike, lo: ExprLike, hi: ExprLike, env: SymbolicEnv
) -> bool:
    """Prove the access-in-bounds obligation ``lo <= expr <= hi``.

    This is the query code generation issues to discharge a bounds guard:
    ``lo``/``hi`` are *inclusive* (an index into an extent-``n`` buffer is in
    bounds when ``prove_in_bounds(idx, 0, n - 1, env)``).  Both sides run
    through :func:`prove_le`, i.e. the full ladder.
    """
    expr = as_expr(expr)
    result = prove_le(lo, expr, env) and prove_le(expr, hi, env)
    return _record_query(
        "in_bounds", lambda: f"{as_expr(lo)} <= {expr} <= {as_expr(hi)}", result
    )


def prove(predicate: Expr, env: SymbolicEnv) -> bool:
    """Prove a comparison/boolean predicate node."""
    result = _prove_impl(predicate, env)
    return _record_query("prove", lambda: str(predicate), result)


def _prove_impl(predicate: Expr, env: SymbolicEnv) -> bool:
    if isinstance(predicate, Cmp):
        lhs, rhs = predicate.lhs, predicate.rhs
        if predicate.op == "<":
            return prove_lt(lhs, rhs, env)
        if predicate.op == "<=":
            return prove_le(lhs, rhs, env)
        if predicate.op == ">":
            return prove_lt(rhs, lhs, env)
        if predicate.op == ">=":
            return prove_le(rhs, lhs, env)
        if predicate.op == "==":
            return prove_le(lhs, rhs, env) and prove_le(rhs, lhs, env)
        if predicate.op == "!=":
            return is_nonzero(lhs - rhs, env)
    if isinstance(predicate, BoolAnd):
        return all(prove(arg, env) for arg in predicate.args)
    if isinstance(predicate, BoolOr):
        return any(prove(arg, env) for arg in predicate.args)
    if isinstance(predicate, Const):
        return predicate.value != 0
    return False


def brute_force_check(
    predicate_or_pair,
    domains: Mapping[str, Iterable[int]],
    equivalent_to: Expr | None = None,
) -> bool:
    """Exhaustively check a predicate (or expression equivalence) over small domains.

    ``predicate_or_pair`` is either a boolean predicate :class:`Expr` (checked
    to hold for every assignment) or, when ``equivalent_to`` is given, an
    arbitrary expression whose value is compared against ``equivalent_to`` for
    every assignment.  Used by the test-suite as the ground-truth oracle for
    both the prover and the simplifier.
    """
    names = list(domains.keys())
    value_lists = [list(domains[name]) for name in names]
    for combo in itertools.product(*value_lists):
        env = dict(zip(names, combo))
        try:
            left = predicate_or_pair.evaluate(env)
        except ZeroDivisionError:
            continue
        if equivalent_to is not None:
            try:
                right = equivalent_to.evaluate(env)
            except ZeroDivisionError:
                continue
            if left != right:
                return False
        else:
            if not left:
                return False
    return True
