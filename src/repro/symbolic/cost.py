"""Operation-count cost model for generated index expressions.

Section IV-A of the paper: expanding index expressions before simplification
sometimes exposes more simplification opportunities (LUD) and sometimes only
adds operations (NW).  LEGO therefore generates both variants, counts the
arithmetic operations in each, and emits the cheaper one.  Table IV reports
the op counts of user-specified index arithmetic before and after LEGO.

This module provides:

* :func:`operation_count` — count +, *, //, %, min/max and comparisons in one
  expression or a collection of expressions (duplicate sub-expressions that a
  backend compiler would CSE are counted once);
* :func:`choose_cheapest` — pick the lowest-cost variant from candidates;
* :class:`CostWeights` — optional per-operation weights (integer division and
  modulo are substantially more expensive than add/mul on GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .expr import Add, BoolAnd, BoolNot, BoolOr, Cmp, Const, Expr, FloorDiv, Max, Min, Mod, Mul, Var
from .memo import MEMO, memo_put

__all__ = ["CostWeights", "operation_count", "choose_cheapest"]


@dataclass(frozen=True)
class CostWeights:
    """Per-operation weights used by :func:`operation_count`.

    The defaults weigh every operation equally, matching the paper's simple
    "count operations" model; ``gpu_default`` reflects the relative cost of
    integer division/modulo on NVIDIA hardware and is used by the ablation
    benchmark.
    """

    add: int = 1
    mul: int = 1
    floordiv: int = 1
    mod: int = 1
    minmax: int = 1
    cmp: int = 1
    boolean: int = 1

    @staticmethod
    def gpu_default() -> "CostWeights":
        return CostWeights(add=1, mul=1, floordiv=8, mod=8, minmax=2, cmp=1, boolean=1)


def _node_cost(node: Expr, weights: CostWeights) -> int:
    if isinstance(node, Add):
        return (len(node.args) - 1) * weights.add
    if isinstance(node, Mul):
        return (len(node.args) - 1) * weights.mul
    if isinstance(node, FloorDiv):
        return weights.floordiv
    if isinstance(node, Mod):
        return weights.mod
    if isinstance(node, (Min, Max)):
        return (len(node.args) - 1) * weights.minmax
    if isinstance(node, Cmp):
        return weights.cmp
    if isinstance(node, (BoolAnd, BoolOr)):
        return (len(node.args) - 1) * weights.boolean
    if isinstance(node, BoolNot):
        return weights.boolean
    return 0


def operation_count(exprs: Expr | Iterable[Expr], weights: CostWeights | None = None) -> int:
    """Count the arithmetic operations needed to evaluate ``exprs``.

    Syntactically identical sub-expressions are counted once across the whole
    collection — the Triton and CUDA compilers CSE these, and the paper's op
    counts (Table IV) reflect the user-visible arithmetic rather than a fully
    duplicated tree.  The count is memoised under the ids of the whole
    collection (one node or many): lowering, ``kernel_payload`` and the tuner
    all ask for the same bindings under the same two weightings.
    """
    weights = weights or CostWeights()
    exprs = (exprs,) if isinstance(exprs, Expr) else tuple(exprs)
    key = ("ops", *[expr._id for expr in exprs], weights)
    cached = MEMO.get(key)
    if cached is not None:
        return cached
    total = 0
    seen: set[Expr] = set()
    for expr in exprs:
        for node in expr.walk():
            if node not in seen:
                seen.add(node)
                total += _node_cost(node, weights)
    memo_put(key, total)
    return total


def choose_cheapest(
    candidates: Sequence[tuple[str, Expr | Sequence[Expr]]],
    weights: CostWeights | None = None,
) -> tuple[str, Expr | Sequence[Expr], int]:
    """Pick the candidate with the lowest operation count.

    ``candidates`` is a sequence of ``(label, expression-or-expressions)``
    pairs; returns ``(label, expressions, cost)`` of the winner.  Ties go to
    the earlier candidate, so callers should list the unexpanded variant
    first (matching the paper's preference when expansion does not help).
    """
    if not candidates:
        raise ValueError("choose_cheapest requires at least one candidate")
    weights = weights or CostWeights()
    best: tuple[str, Expr | Sequence[Expr], int] | None = None
    for label, exprs in candidates:
        group = [exprs] if isinstance(exprs, Expr) else list(exprs)
        cost = operation_count(group, weights)
        if best is None or cost < best[2]:
            best = (label, exprs, cost)
    assert best is not None
    return best
