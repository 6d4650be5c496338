"""Code printers for symbolic index expressions.

The paper prints the simplified index expressions with SymPy's Python and C
printers, plus a custom MLIR printer built on the MLIR Python bindings.  This
module provides the reproduction's equivalents:

* :class:`PythonPrinter` — Python / Triton source (floor ``//`` and ``%``),
* :class:`TritonPrinter` — Python syntax plus rendering hints carried in
  ``Var.meta`` (``tl.arange`` atoms with broadcast suffixes, ``tl.program_id``),
* :class:`CPrinter` — C / CUDA source (``/`` and ``%``; all layout indices are
  non-negative so truncating division agrees with floor division),
* :class:`MLIRArithPrinter` — a straight-line sequence of ``arith`` dialect
  operations in SSA form, used by the MLIR integration.

``doprint`` may be called repeatedly; each printer keeps an identity-keyed
memo (expressions are hash-consed, so ``Expr.expr_id`` identifies a subtree)
that makes re-printing shared subtrees O(1).  The memo is private to the
printer instance because the rendered text depends on its substitutions.
"""

from __future__ import annotations

from typing import Mapping

from .stats import PRINT_HITS, PRINT_MISSES

from .expr import (
    Add,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
)

__all__ = ["PythonPrinter", "TritonPrinter", "CPrinter", "MLIRArithPrinter"]


_PREC_ADD = 10
_PREC_MUL = 20
_PREC_UNARY = 30
_PREC_ATOM = 100


class PythonPrinter:
    """Print expressions as Python source (also valid inside Triton kernels)."""

    #: operator spellings, overridden by subclasses
    floordiv_op = "//"
    mod_op = "%"
    min_func = "min"
    max_func = "max"

    def __init__(self, substitutions: Mapping[str, str] | None = None):
        #: optional variable-name -> source-text substitutions
        self.substitutions = dict(substitutions or {})
        #: identity-keyed memo: (expr_id, parent precedence) -> rendered text
        self._memo: dict[tuple[int, int], str] = {}
        self._memo_subs: tuple | None = None

    # -- public API ------------------------------------------------------------

    def doprint(self, expr: Expr) -> str:
        # substitutions is a public mutable attribute; drop the memo whenever
        # it changed so cached text never reflects stale substitutions
        subs_key = tuple(sorted(self.substitutions.items()))
        if subs_key != self._memo_subs:
            self._memo.clear()
            self._memo_subs = subs_key
        return self._print(expr, _PREC_ADD)

    # -- dispatch ---------------------------------------------------------------

    def _print(self, expr: Expr, parent_prec: int) -> str:
        key = (expr._id, parent_prec)
        cached = self._memo.get(key)
        if cached is not None:
            PRINT_HITS.inc()
            return cached
        text = self._print_uncached(expr, parent_prec)
        PRINT_MISSES.inc()
        self._memo[key] = text
        return text

    def _print_uncached(self, expr: Expr, parent_prec: int) -> str:
        if isinstance(expr, Const):
            text = str(expr.value)
            if expr.value < 0 and parent_prec > _PREC_ADD:
                return f"({text})"
            return text
        if isinstance(expr, Var):
            return self._print_var(expr)
        if isinstance(expr, Add):
            return self._wrap(self._print_add(expr), _PREC_ADD, parent_prec)
        if isinstance(expr, Mul):
            return self._wrap(self._print_mul(expr), _PREC_MUL, parent_prec)
        if isinstance(expr, FloorDiv):
            text = (
                f"{self._print(expr.numerator, _PREC_MUL + 1)}"
                f"{self.floordiv_op}"
                f"{self._print(expr.denominator, _PREC_MUL + 1)}"
            )
            return self._wrap(text, _PREC_MUL, parent_prec)
        if isinstance(expr, Mod):
            text = (
                f"{self._print(expr.value_expr, _PREC_MUL + 1)}"
                f" {self.mod_op} "
                f"{self._print(expr.modulus, _PREC_MUL + 1)}"
            )
            return self._wrap(text, _PREC_MUL, parent_prec)
        if isinstance(expr, Min):
            inner = ", ".join(self._print(a, _PREC_ADD) for a in expr.args)
            return f"{self.min_func}({inner})"
        if isinstance(expr, Max):
            inner = ", ".join(self._print(a, _PREC_ADD) for a in expr.args)
            return f"{self.max_func}({inner})"
        if isinstance(expr, Cmp):
            text = f"{self._print(expr.lhs, _PREC_ADD)} {expr.op} {self._print(expr.rhs, _PREC_ADD)}"
            return f"({text})"
        if isinstance(expr, BoolAnd):
            return "(" + " and ".join(self._print(a, _PREC_ADD) for a in expr.args) + ")"
        if isinstance(expr, BoolOr):
            return "(" + " or ".join(self._print(a, _PREC_ADD) for a in expr.args) + ")"
        if isinstance(expr, BoolNot):
            return f"(not {self._print(expr.args[0], _PREC_ADD)})"
        raise TypeError(f"cannot print expression of type {type(expr).__name__}")

    # -- helpers ----------------------------------------------------------------

    def _print_var(self, var: Var) -> str:
        if var.name in self.substitutions:
            return self.substitutions[var.name]
        render = var.meta.get("render")
        if isinstance(render, str):
            return render
        return var.name

    def _print_add(self, expr: Add) -> str:
        parts: list[str] = []
        for arg in expr.args:
            text = self._print(arg, _PREC_ADD)
            if parts and not text.startswith("-"):
                parts.append(" + " + text)
            elif parts:
                parts.append(" - " + text[1:])
            else:
                parts.append(text)
        return "".join(parts)

    def _print_mul(self, expr: Mul) -> str:
        # Print factors at a precedence strictly above '*' so that '//' and
        # '%' factors are parenthesised; '%'/'//' share Python's precedence
        # with '*' and would otherwise re-associate incorrectly.
        return "*".join(self._print(a, _PREC_MUL + 1) for a in expr.args)

    def _wrap(self, text: str, prec: int, parent_prec: int) -> str:
        if prec < parent_prec:
            return f"({text})"
        return text


class TritonPrinter(PythonPrinter):
    """Python printer with Triton-specific variable renderings.

    Renders exactly like :class:`PythonPrinter`, but variables carrying a
    ``triton_render`` meta entry (produced by the slicing front-end for
    ``tl.arange`` atoms and for ``tl.program_id``) use that rendering.
    """

    def _print_var(self, var: Var) -> str:
        if var.name in self.substitutions:
            return self.substitutions[var.name]
        render = var.meta.get("triton_render") or var.meta.get("render")
        if isinstance(render, str):
            return render
        return var.name


class CPrinter(PythonPrinter):
    """C / CUDA printer.

    Layout lowering only ever produces non-negative indices, so C's truncating
    integer division coincides with floor division and ``/`` / ``%`` are safe
    spellings of :class:`FloorDiv` / :class:`Mod`.
    """

    floordiv_op = "/"
    mod_op = "%"
    min_func = "min"
    max_func = "max"

    def _print_var(self, var: Var) -> str:
        if var.name in self.substitutions:
            return self.substitutions[var.name]
        render = var.meta.get("c_render") or var.meta.get("render")
        if isinstance(render, str):
            return render
        return var.name


class MLIRArithPrinter:
    """Emit an expression as a straight-line sequence of ``arith`` dialect ops.

    ``lower(expr)`` returns ``(lines, result_name)`` where ``lines`` is a list
    of MLIR operation strings (``%cN = arith.constant ...``, ``%N = arith.addi
    ...``) and ``result_name`` is the SSA value holding the expression result.
    Variables must be bound to existing SSA names via ``value_names``.
    """

    def __init__(self, value_names: Mapping[str, str], index_type: str = "index"):
        self.value_names = dict(value_names)
        self.index_type = index_type
        self._lines: list[str] = []
        self._counter = 0
        # identity-keyed (hash-consed ids): shared subtrees lower to one SSA
        # value without any structural hashing of the tree
        self._cache: dict[int, str] = {}
        self._const_cache: dict[int, str] = {}

    def _fresh(self, prefix: str = "v") -> str:
        self._counter += 1
        return f"%{prefix}{self._counter}"

    def _emit(self, text: str) -> None:
        self._lines.append(text)

    def lower(self, expr: Expr) -> tuple[list[str], str]:
        self._lines = []
        name = self._lower(expr)
        return list(self._lines), name

    # -- recursive lowering ------------------------------------------------------

    def _lower(self, expr: Expr) -> str:
        cached = self._cache.get(expr._id)
        if cached is not None:
            PRINT_HITS.inc()
            return cached
        name = self._lower_uncached(expr)
        PRINT_MISSES.inc()
        self._cache[expr._id] = name
        return name

    def _lower_uncached(self, expr: Expr) -> str:
        ty = self.index_type
        if isinstance(expr, Const):
            if expr.value in self._const_cache:
                return self._const_cache[expr.value]
            name = self._fresh("c")
            self._emit(f"{name} = arith.constant {expr.value} : {ty}")
            self._const_cache[expr.value] = name
            return name
        if isinstance(expr, Var):
            if expr.name not in self.value_names:
                raise KeyError(f"no SSA value bound for variable {expr.name!r}")
            return self.value_names[expr.name]
        if isinstance(expr, Add):
            return self._fold_binary(expr.args, "arith.addi")
        if isinstance(expr, Mul):
            return self._fold_binary(expr.args, "arith.muli")
        if isinstance(expr, FloorDiv):
            lhs = self._lower(expr.numerator)
            rhs = self._lower(expr.denominator)
            name = self._fresh()
            self._emit(f"{name} = arith.floordivsi {lhs}, {rhs} : {ty}")
            return name
        if isinstance(expr, Mod):
            lhs = self._lower(expr.value_expr)
            rhs = self._lower(expr.modulus)
            name = self._fresh()
            self._emit(f"{name} = arith.remsi {lhs}, {rhs} : {ty}")
            return name
        if isinstance(expr, Min):
            return self._fold_binary(expr.args, "arith.minsi")
        if isinstance(expr, Max):
            return self._fold_binary(expr.args, "arith.maxsi")
        if isinstance(expr, Cmp):
            pred = {"<": "slt", "<=": "sle", ">": "sgt", ">=": "sge", "==": "eq", "!=": "ne"}[expr.op]
            lhs = self._lower(expr.lhs)
            rhs = self._lower(expr.rhs)
            name = self._fresh("b")
            self._emit(f"{name} = arith.cmpi {pred}, {lhs}, {rhs} : {ty}")
            return name
        if isinstance(expr, BoolAnd):
            return self._fold_binary(expr.args, "arith.andi", ty="i1")
        if isinstance(expr, BoolOr):
            return self._fold_binary(expr.args, "arith.ori", ty="i1")
        raise TypeError(f"cannot lower expression of type {type(expr).__name__} to MLIR")

    def _fold_binary(self, args, opname: str, ty: str | None = None) -> str:
        ty = ty or self.index_type
        names = [self._lower(a) for a in args]
        current = names[0]
        for nxt in names[1:]:
            fresh = self._fresh()
            self._emit(f"{fresh} = {opname} {current}, {nxt} : {ty}")
            current = fresh
        return current
