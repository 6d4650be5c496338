"""Code printers for symbolic index expressions.

The paper prints the simplified index expressions with SymPy's Python and C
printers, plus a custom MLIR printer built on the MLIR Python bindings.  This
module provides the reproduction's text printers (MLIR operations are emitted
by :func:`repro.codegen.mlir.lower_expr_to_ops`):

* :class:`PythonPrinter` — Python / Triton source (floor ``//`` and ``%``),
* :class:`TritonPrinter` — Python syntax plus rendering hints carried in
  ``Var.meta`` (``tl.arange`` atoms with broadcast suffixes, ``tl.program_id``),
* :class:`CPrinter` — C / CUDA source (``/`` and ``%``; all layout indices are
  non-negative so truncating division agrees with floor division).

Printers keep no memo of their own.  The text of every node is a family of
the symbolic memo table (:mod:`repro.symbolic.memo`), keyed ``("text", token,
expr id)``: the token is interned from the printer class and its sorted
substitutions, re-read on every ``doprint``, and ``str(expr)`` is the
substitution-free :class:`PythonPrinter` case (token ``PLAIN_TEXT``).  An
entry holds the node's text and its precedence; the parent parenthesises.
"""

from __future__ import annotations

from typing import Mapping

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
from .memo import MEMO, PLAIN_TEXT, intern_text, memo_put
from .stats import PRINT_HITS, PRINT_MISSES

__all__ = ["PythonPrinter", "TritonPrinter", "CPrinter", "print_text"]


_PREC_ADD = 10
_PREC_MUL = 20
_PREC_ATOM = 100


def _text_token(printer_cls: type, substitutions: Mapping[str, str]) -> int:
    if not substitutions and printer_cls is PythonPrinter:
        return PLAIN_TEXT
    return intern_text((printer_cls, tuple(sorted(substitutions.items()))))


def print_text(expr: Expr, printer_cls: type["PythonPrinter"], substitutions: Mapping[str, str]) -> str:
    """``printer_cls(substitutions).doprint(expr)``; a memo hit builds no printer."""
    entry = MEMO.get(("text", _text_token(printer_cls, substitutions), expr._id))
    if entry is not None:
        PRINT_HITS.inc()
        return entry[0]
    return printer_cls(substitutions).doprint(expr)


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

    # -- public API ------------------------------------------------------------

    def doprint(self, expr: Expr) -> str:
        # substitutions is a public mutable attribute: the token is re-read here
        self._token = _text_token(type(self), self.substitutions)
        return self._print(expr, _PREC_ADD)

    # -- dispatch ---------------------------------------------------------------

    def _print(self, expr: Expr, parent_prec: int) -> str:
        key = ("text", self._token, expr._id)
        entry = MEMO.get(key)
        if entry is None:
            entry = self._print_uncached(expr)
            PRINT_MISSES.inc()
            memo_put(key, entry)
        else:
            PRINT_HITS.inc()
        text, prec = entry
        return f"({text})" if prec < parent_prec else text

    def _print_uncached(self, expr: Expr) -> tuple[str, int]:
        """The node's text and the precedence below which a parent wraps it."""
        if isinstance(expr, Const):
            return str(expr.value), (_PREC_ADD if expr.value < 0 else _PREC_ATOM)
        if isinstance(expr, Var):
            return self._print_var(expr), _PREC_ATOM
        if isinstance(expr, Add):
            return self._print_add(expr), _PREC_ADD
        if isinstance(expr, Mul):
            return self._print_mul(expr), _PREC_MUL
        if isinstance(expr, FloorDiv):
            text = (
                f"{self._print(expr.numerator, _PREC_MUL + 1)}"
                f"{self.floordiv_op}"
                f"{self._print(expr.denominator, _PREC_MUL + 1)}"
            )
            return text, _PREC_MUL
        if isinstance(expr, Mod):
            text = (
                f"{self._print(expr.value_expr, _PREC_MUL + 1)}"
                f" {self.mod_op} "
                f"{self._print(expr.modulus, _PREC_MUL + 1)}"
            )
            return text, _PREC_MUL
        if isinstance(expr, Min):
            inner = ", ".join(self._print(a, _PREC_ADD) for a in expr.args)
            return f"{self.min_func}({inner})", _PREC_ATOM
        if isinstance(expr, Max):
            inner = ", ".join(self._print(a, _PREC_ADD) for a in expr.args)
            return f"{self.max_func}({inner})", _PREC_ATOM
        if isinstance(expr, Cmp):
            return f"({self._print(expr.lhs, _PREC_ADD)} {expr.op} {self._print(expr.rhs, _PREC_ADD)})", _PREC_ATOM
        if isinstance(expr, BoolAnd):
            return "(" + " and ".join(self._print(a, _PREC_ADD) for a in expr.args) + ")", _PREC_ATOM
        if isinstance(expr, BoolOr):
            return "(" + " or ".join(self._print(a, _PREC_ADD) for a in expr.args) + ")", _PREC_ATOM
        if isinstance(expr, BoolNot):
            return f"(not {self._print(expr.args[0], _PREC_ADD)})", _PREC_ATOM
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

    Spells :class:`FloorDiv` / :class:`Mod` as ``/`` / ``%``, which C
    truncates toward zero where the Python printer floors: the two
    renderings agree only where both operands are non-negative, and nothing
    here checks that they are (DESIGN.md, "SymPy + Z3").
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
