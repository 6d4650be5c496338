"""Symbolic integer expression engine (SymPy / Z3 substitute).

Public surface of the engine used throughout the LEGO reproduction:

* expression construction — :class:`Var`, :class:`Const`, :func:`symbols`,
  operator overloading, :class:`Min`, :class:`Max`;
* assumptions and ranges — :class:`SymbolicEnv` and its one range domain
  :class:`SymInterval` (``env.range_of(e)``; ends are expressions, literal
  constants or unbounded), :func:`constant_interval` (the literal ends) and
  :class:`Interval`, the integer transfer functions underneath;
* simplification — :func:`simplify`, :func:`simplify_fixpoint`, :func:`expand`
  (the paper's Table II rules with range-proved side conditions);
* proofs — :func:`prove_le`, :func:`prove_lt`, :func:`prove_in_bounds`,
  :func:`brute_force_check`;
* strides — :func:`affine_strides`, :func:`is_mixed_radix_bijection` (exact
  affine decomposition behind static layout-bijectivity proofs);
* cost model — :func:`operation_count` and its :class:`CostWeights`;
* printers — :class:`PythonPrinter`, :class:`TritonPrinter`, :class:`CPrinter`
  and :func:`print_text` (their text, read from the memo table);
* caching — expressions are hash-consed (interned), derived answers live in
  one table keyed by (expression, fact set) (:func:`clear_memos` empties it),
  :func:`cache_statistics` snapshots the registry counters of the
  rewrite/proof/range/substitution/print memo layers and
  :data:`RULE_REGISTRY` lists the rewrite rules as data.
"""

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
    intern_table_size,
    symbols,
)
from .ranges import Interval, affine_strides, is_mixed_radix_bijection
from .stats import CACHE_PREFIX, cache_statistics
from .memo import clear_memos
from .symranges import SymInterval, SymbolicEnv, constant_interval
from .prover import (
    brute_force_check,
    is_nonneg,
    is_nonzero,
    is_positive,
    prove,
    prove_in_bounds,
    prove_le,
    prove_lt,
    prove_nonneg,
    prove_positive,
    record_proof_queries,
)
from .simplify import (
    RULE_REGISTRY,
    RewriteRule,
    expand,
    simplify,
    simplify_fixpoint,
)
from .cost import CostWeights, operation_count
from .printers import CPrinter, PythonPrinter, TritonPrinter, print_text

__all__ = [
    "Add",
    "BoolAnd",
    "BoolNot",
    "BoolOr",
    "Cmp",
    "Const",
    "Expr",
    "ExprLike",
    "FloorDiv",
    "Max",
    "Min",
    "Mod",
    "Mul",
    "Var",
    "as_expr",
    "symbols",
    "Interval",
    "SymInterval",
    "SymbolicEnv",
    "constant_interval",
    "affine_strides",
    "is_mixed_radix_bijection",
    "brute_force_check",
    "is_nonneg",
    "is_nonzero",
    "is_positive",
    "prove",
    "prove_in_bounds",
    "prove_le",
    "prove_lt",
    "record_proof_queries",
    "prove_nonneg",
    "prove_positive",
    "expand",
    "simplify",
    "simplify_fixpoint",
    "RewriteRule",
    "RULE_REGISTRY",
    "CACHE_PREFIX",
    "cache_statistics",
    "clear_memos",
    "intern_table_size",
    "CostWeights",
    "operation_count",
    "CPrinter",
    "PythonPrinter",
    "TritonPrinter",
    "print_text",
]
