"""Loop-invariant code motion for kernel sources, run before they compile.

LEGO writes each global index as one expression inside the loop that walks
it — ``a_ptr + arange(BK)[None, :] + BK*k + K*(arange(BM)[:, None] +
BM*pid_m)`` — and leaves the terms that do not move to the Triton compiler's
loop-invariant code motion.  :func:`hoist_invariants` is that pass for the
Python AST :func:`~repro.minitriton.runtime.compile_kernel` compiles, so a
GEMM's K step pays only for ``BK*k``.

Inside-out over ``for`` / ``while`` loops, each *maximal invariant operand*
of a ``+``, ``-`` or ``*`` whose other operand varies becomes a temporary.
An expression is invariant when it is built from constants, names the loop
binds nowhere, ``+ - *``, unary ``-``, subscripts by constants / ``None`` /
constant slices, and ``tl.arange`` — nothing that counts, logs or reads
memory.  The temporary is reset to ``None`` just before the loop and filled
where the expression was first evaluated (``t if t is not None else (t :=
E)``): ``E`` runs at the same point of the first iteration as before, so a
zero-trip loop evaluates nothing and an error raises where it did.  Reuse is
sound because nothing can change ``E``'s value or the object it made:

* its names are rebound nowhere in the loop (target, ``=``, walrus, ``del``);
* a loop that may write an object in place hoists nothing — an augmented
  assignment, a subscript or attribute target, or any call but a ``tl``
  function that writes no memory (all but ``tl.store``) and the namespace's
  ``min``, ``max``, ``range`` and ``triton`` — so no alias of its names
  moves;
* a temporary is only ever an operand of ``+ - *``, never an assignment's
  whole value nor a subscript's value, so no name is bound to it or to a
  view of it.

Operands are never reassociated: the AST does not know their types.  A
source that binds a namespace name (``tl``, ``triton``, ``min``, ``max``,
``range``) or uses the temporaries' prefix is compiled as it is.
"""

from __future__ import annotations

import ast
import itertools

__all__ = ["hoist_invariants"]

#: the temporaries' names: ``_lego_hoisted_<n>``
_PREFIX = "_lego_hoisted_"
_ARITH = (ast.Add, ast.Sub, ast.Mult)
_NAMESPACE = frozenset({"tl", "triton", "min", "max", "range"})
#: what a loop may hold and still hoist: binds names, writes nothing in place
_ALLOWED = (
    ast.Assign, ast.AnnAssign, ast.Expr, ast.If, ast.For, ast.While, ast.Pass, ast.Break,
    ast.Continue, ast.Return, ast.Delete, ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp,
    ast.BoolOp, ast.Compare, ast.IfExp, ast.Call, ast.Attribute, ast.Subscript, ast.Slice,
    ast.Tuple, ast.List, ast.NamedExpr, ast.Starred, ast.keyword, ast.expr_context,
    ast.operator, ast.unaryop, ast.cmpop, ast.boolop,
)


def hoist_invariants(tree: ast.Module) -> int:
    """Hoist ``tree``'s loop-invariant operands in place; return how many."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = set(_binds(tree))
    if bound & _NAMESPACE or any(name.startswith(_PREFIX) for name in names | bound):
        return 0
    loops = _Loops()
    loops.visit(tree)
    ast.fix_missing_locations(tree)
    return next(loops.count)  # temporaries are numbered from 0


def _binds(tree):
    """Every name ``tree`` binds, in any binding form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Load):
                yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.partition(".")[0]
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            yield from node.names
        else:  # def / class / argument / except-as / match captures
            for field in ("name", "arg", "rest"):
                value = getattr(node, field, None)
                if isinstance(value, str):
                    yield value


def _writes_nothing(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id in ("min", "max", "range")
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and not func.attr.startswith("_")
            and (func.value.id == "triton" or func.value.id == "tl" and func.attr != "store"))


def _loop_bound(loop) -> set[str] | None:
    """The names ``loop`` binds, or ``None`` if it may write an object in place."""
    head = loop.target if isinstance(loop, ast.For) else loop.test
    bound = set()
    for part in (head, *loop.body, *loop.orelse):
        for node in ast.walk(part):
            if not isinstance(node, _ALLOWED):
                return None
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Load):
                    bound.add(node.id)
            elif isinstance(node, (ast.Subscript, ast.Attribute)):
                if not isinstance(node.ctx, ast.Load):
                    return None
            elif isinstance(node, ast.Call) and not _writes_nothing(node.func):
                return None
    return bound


def _static_index(node: ast.expr) -> bool:
    if isinstance(node, ast.Tuple):
        return all(_static_index(item) for item in node.elts)
    if isinstance(node, ast.Slice):
        return all(part is None or isinstance(part, ast.Constant)
                   for part in (node.lower, node.upper, node.step))
    return isinstance(node, ast.Constant)


def _invariant(node: ast.expr, bound: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id not in bound
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, _ARITH) and _invariant(node.left, bound)
                and _invariant(node.right, bound))
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub) and _invariant(node.operand, bound)
    if isinstance(node, ast.Subscript):
        return _static_index(node.slice) and _invariant(node.value, bound)
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "arange"
                and isinstance(func.value, ast.Name) and func.value.id == "tl"
                and not node.keywords and all(_invariant(arg, bound) for arg in node.args))
    return False


def _worth_a_temporary(node: ast.expr) -> bool:
    """An operation on a name or a call: a bare name or a constant saves nothing."""
    return not isinstance(node, (ast.Name, ast.Constant)) and any(
        isinstance(part, (ast.Name, ast.Call)) for part in ast.walk(node))


class _Operands(ast.NodeTransformer):
    """Replace, in one loop's body, each invariant operand of a varying ``+ - *``."""

    def __init__(self, bound: set[str], count):
        self.bound = bound
        self.count = count
        self.temporaries: list[str] = []

    def visit_BinOp(self, node):
        if not isinstance(node.op, _ARITH) or _invariant(node, self.bound):
            return self.generic_visit(node)
        for side in ("left", "right"):
            operand = getattr(node, side)
            if _invariant(operand, self.bound) and _worth_a_temporary(operand):
                setattr(node, side, self._temporary(operand))
            else:
                setattr(node, side, self.visit(operand))
        return node

    def _temporary(self, value: ast.expr) -> ast.expr:
        name = f"{_PREFIX}{next(self.count)}"
        self.temporaries.append(name)
        lazy = ast.IfExp(
            test=ast.Compare(ast.Name(name, ast.Load()), [ast.IsNot()], [ast.Constant(None)]),
            body=ast.Name(name, ast.Load()),
            orelse=ast.NamedExpr(ast.Name(name, ast.Store()), value),
        )
        return ast.copy_location(lazy, value)


class _Loops(ast.NodeTransformer):
    """Hoist each loop after the loops inside it."""

    def __init__(self):
        self.count = itertools.count()

    def visit_For(self, loop):
        self.generic_visit(loop)
        bound = _loop_bound(loop)
        if bound is None:
            return loop
        operands = _Operands(bound, self.count)
        loop.body = [operands.visit(statement) for statement in loop.body]
        resets = [ast.copy_location(ast.Assign([ast.Name(name, ast.Store())], ast.Constant(None)), loop)
                  for name in operands.temporaries]
        return [*resets, loop]

    visit_While = visit_For
