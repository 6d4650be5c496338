"""Integer symbolic expression IR (hash-consed).

This module is the foundation of the LEGO reproduction's code-generation
pipeline.  The original paper embeds its layout algebra into SymPy; this
reproduction implements the (much smaller) fragment of symbolic integer
arithmetic that layout lowering actually needs, from scratch:

* expression nodes: constants, variables, ``Add``, ``Mul``, floor division,
  modulo, ``Min``, ``Max`` and comparisons,
* canonicalisation at construction time, to an invariant the constructors
  themselves read back (``_make`` is only called here, with such tuples): a
  ``Mul`` holds at most one ``Const``, in front, never 0 or 1, the rest sorted
  by :meth:`Expr.sort_key` and none of them a ``Mul``; an ``Add`` is sorted,
  holds no ``Add`` and at most one ``Const`` (first); like terms are collected.
  ``Add(*ops)`` / ``Mul(*ops)`` are pure in their interned operands and filed
  in :mod:`repro.symbolic.memo` under the operands' ids,
* substitution, concrete evaluation and free-variable queries,
* an operation-count used by the cost model that selects between expanded
  and unexpanded index expressions (Section IV-A of the paper).

All expressions are immutable, hashable and **interned** (hash-consed):
construction routes every node through a global intern table, so two
structurally identical expressions are the *same object*.  Structural
equality therefore degenerates to a pointer comparison in the common case,
dictionary lookups use a hash precomputed at construction time, and the
rewrite engine (:mod:`repro.symbolic.simplify`), the prover and the printers
key their memo tables on the per-node integer :attr:`Expr.expr_id`.

The one wrinkle is :class:`Var.meta`: rendering hints do not participate in
equality (two variables with the same name are the same variable), but they
must not be lost by interning either, so the intern key — unlike the
equality key — includes the meta payload.  Variables that differ only in
``meta`` are thus distinct objects that still compare equal; compound nodes
fall back to a cached structural-key comparison for exactly this case.

Arithmetic on expressions is available through the usual Python operators
(``+``, ``-``, ``*``, ``//``, ``%``) and mirrors Python's *floor* semantics
for division and modulo, which is also what the generated Triton / CUDA /
MLIR code assumes for the non-negative index ranges produced by layouts.

**Thread safety.**  Expression construction is safe from any number of
threads: the intern table's check-then-insert is serialised through striped
locks (hash of the intern key selects the stripe), with a lock-free read
fast path, so concurrent construction of structurally identical expressions
always yields the *same* node — the invariant the concurrent compilation
service (:mod:`repro.serve`) depends on.  Everything downstream of
construction is immutable and freely shareable.
"""

from __future__ import annotations

import itertools
import threading
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .memo import MEMO, memo_put

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "Cmp",
    "BoolAnd",
    "BoolOr",
    "BoolNot",
    "ExprLike",
    "as_expr",
    "symbols",
    "intern_table_size",
]

ExprLike = Union["Expr", int]


# ---------------------------------------------------------------------------
# intern table
# ---------------------------------------------------------------------------

#: canonical instance per structural identity (including ``Var.meta``)
_INTERN: dict[tuple, "Expr"] = {}

#: monotonically increasing ids; ``Expr.expr_id`` keys identity-based caches
_IDS = itertools.count()

# Thread-safety contract (see DESIGN.md "Thread safety of the symbolic
# layer"): the intern table is the one piece of symbolic state shared by
# every thread, and its check-then-insert sequence must be atomic or two
# threads racing on the same structural key would mint two distinct nodes —
# breaking the pointer-identity guarantee that every identity-keyed memo
# table in the stack relies on.  Creation is therefore serialised through a
# set of striped locks selected by the intern key's hash, with a lock-free
# fast path: plain dict reads are safe under the GIL, so the common
# already-interned case costs no lock at all (double-checked locking).
_INTERN_STRIPES = 16
_INTERN_LOCKS = tuple(threading.Lock() for _ in range(_INTERN_STRIPES))


def _intern_lock(key: tuple) -> threading.Lock:
    """The stripe lock guarding creation of the node with this intern key."""
    return _INTERN_LOCKS[hash(key) % _INTERN_STRIPES]


def intern_table_size() -> int:
    """Number of live interned expression nodes (cache-statistics hook)."""
    return len(_INTERN)


def _finalize(obj: "Expr", ekey: tuple) -> "Expr":
    """Install the cached structural key, sort key, hash and id on a fresh node."""
    object.__setattr__(obj, "_ekey", ekey)
    object.__setattr__(obj, "_skey", (_TYPE_ORDER.get(ekey[0], 99), ekey))
    object.__setattr__(obj, "_hash", hash(ekey))
    object.__setattr__(obj, "_id", next(_IDS))
    return obj


#: the three commutative sorts (``Add``, ``Mul``, ``Min``/``Max``) read the stored key
_SORT_KEY = attrgetter("_skey")


def as_expr(value: ExprLike) -> "Expr":
    """Coerce a Python ``int`` (or an existing expression) into an ``Expr``."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        # booleans are ints in Python; keep them out of integer arithmetic
        return Const(1 if value else 0)
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} of type {type(value).__name__} to Expr")


class Expr:
    """Base class of all symbolic integer expressions."""

    __slots__ = ("_hash", "_ekey", "_skey", "_id")

    # -- construction helpers -------------------------------------------------

    def _key(self) -> tuple:
        """The structural key used for hashing, equality and ordering."""
        return self._ekey

    @property
    def expr_id(self) -> int:
        """Stable integer identity; interned nodes share ids, so this is the
        preferred key for memo tables (O(1), no tree walks)."""
        return self._id

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, int):
                return isinstance(self, Const) and self.value == other
            return NotImplemented
        # Interning makes structurally identical nodes pointer-identical
        # except when a Var differs only in meta; fall back to the cached
        # structural key for that case.
        if self._hash != other._hash:
            return False
        return type(self) is type(other) and self._ekey == other._ekey

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- structural queries ---------------------------------------------------

    @property
    def args(self) -> tuple["Expr", ...]:
        """Immediate sub-expressions."""
        return ()

    def free_vars(self) -> set[str]:
        """Names of all variables occurring in the expression."""
        out: set[str] = set()
        for node in self.walk():
            if isinstance(node, Var):
                out.add(node.name)
        return out

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.args))

    # -- rewriting ------------------------------------------------------------

    def subs(self, mapping: Mapping[ExprLike, ExprLike]) -> "Expr":
        """Substitute sub-expressions.

        Keys may be variables (most common), arbitrary sub-expressions or
        plain variable names (strings are accepted for convenience).
        """
        table: dict[Expr, Expr] = {}
        for key, value in mapping.items():
            if isinstance(key, str):
                key_expr: Expr = Var(key)
            else:
                key_expr = as_expr(key)
            table[key_expr] = as_expr(value)
        return self._substitute(table)

    def _substitute(self, table: Mapping["Expr", "Expr"]) -> "Expr":
        if self in table:
            return table[self]
        if not self.args:
            return self
        new_args = tuple(a._substitute(table) for a in self.args)
        if new_args == self.args:
            return self
        return self._rebuild(new_args)

    def _rebuild(self, args: Sequence["Expr"]) -> "Expr":
        """Reconstruct the node with new children (re-canonicalising)."""
        raise NotImplementedError

    def map_children(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Apply ``fn`` to each child and rebuild if anything changed."""
        if not self.args:
            return self
        new_args = tuple(fn(a) for a in self.args)
        if new_args == self.args:
            return self
        return self._rebuild(new_args)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, env: Mapping[str, int] | None = None):
        """Evaluate to a concrete value.

        ``env`` maps variable names to integers (or NumPy arrays — any object
        supporting Python arithmetic works, which lets the mini-Triton
        interpreter evaluate index expressions over index grids).
        """
        raise NotImplementedError

    # -- printing -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)

    def __str__(self) -> str:
        """Canonical text: a ``PythonPrinter`` with no substitutions, memoised."""
        key = ("str", self._id)
        text = MEMO.get(key)
        if text is None:
            from .printers import PythonPrinter

            text = PythonPrinter().doprint(self)
            memo_put(key, text)
        return text

    # -- operators ------------------------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, other)

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(other, self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add(self, Mul(-1, other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add(other, Mul(-1, self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, other)

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(other, self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(self, other)

    def __rfloordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(other, self)

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod(self, other)

    def __rmod__(self, other: ExprLike) -> "Expr":
        return Mod(other, self)

    def __neg__(self) -> "Expr":
        return Mul(-1, self)

    def __pos__(self) -> "Expr":
        return self

    # Comparison helpers build predicate nodes (not Python booleans); use
    # ``Expr.__eq__`` for structural equality.
    def lt(self, other: ExprLike) -> "Cmp":
        return Cmp("<", self, other)

    def le(self, other: ExprLike) -> "Cmp":
        return Cmp("<=", self, other)

    def gt(self, other: ExprLike) -> "Cmp":
        return Cmp(">", self, other)

    def ge(self, other: ExprLike) -> "Cmp":
        return Cmp(">=", self, other)

    def eq(self, other: ExprLike) -> "Cmp":
        return Cmp("==", self, other)

    def ne(self, other: ExprLike) -> "Cmp":
        return Cmp("!=", self, other)

    # -- misc -----------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Const)

    def constant_value(self) -> int | None:
        """The integer value if the expression is a literal constant."""
        return self.value if isinstance(self, Const) else None

    def sort_key(self) -> tuple:
        """Deterministic ordering key used to canonicalise commutative nodes."""
        return self._skey


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __new__(cls, value: int) -> "Const":
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, int):
            raise TypeError(f"Const requires an int, got {type(value).__name__}")
        key = ("Const", value)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        with _intern_lock(key):
            cached = _INTERN.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
            obj = object.__new__(cls)
            object.__setattr__(obj, "value", value)
            _finalize(obj, key)
            _INTERN[key] = obj
            return obj

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("Const is immutable")

    def evaluate(self, env: Mapping[str, int] | None = None):
        return self.value

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return self


class Var(Expr):
    """A named integer variable.

    ``meta`` carries optional printing / codegen hints (for example the
    Triton printer renders a variable tagged as an ``arange`` atom as
    ``tl.arange(lo, hi)`` with broadcasting suffixes).  ``meta`` does not
    participate in equality or hashing: two variables with the same name are
    the same variable.  It *does* participate in interning, so a variable's
    hints survive hash-consing.
    """

    __slots__ = ("name", "meta")

    def __new__(cls, name: str, meta: Mapping[str, object] | None = None) -> "Var":
        if not isinstance(name, str) or not name:
            raise TypeError("Var requires a non-empty string name")
        meta_dict = dict(meta) if meta else {}
        intern_key: tuple | None
        try:
            intern_key = ("Var", name, tuple(sorted(meta_dict.items())))
            hash(intern_key)
        except TypeError:
            intern_key = None  # unhashable meta payload: keep a unique node
        if intern_key is None:
            # unhashable meta cannot be interned; the node stays unique
            obj = object.__new__(cls)
            object.__setattr__(obj, "name", name)
            object.__setattr__(obj, "meta", meta_dict)
            _finalize(obj, ("Var", name))
            return obj
        cached = _INTERN.get(intern_key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        with _intern_lock(intern_key):
            cached = _INTERN.get(intern_key)
            if cached is not None:
                return cached  # type: ignore[return-value]
            obj = object.__new__(cls)
            object.__setattr__(obj, "name", name)
            object.__setattr__(obj, "meta", meta_dict)
            _finalize(obj, ("Var", name))
            _INTERN[intern_key] = obj
            return obj

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    def evaluate(self, env: Mapping[str, int] | None = None):
        env = env or {}
        if self.name not in env:
            raise KeyError(f"no value bound for variable {self.name!r}")
        return env[self.name]

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return self


def symbols(names: str | Iterable[str]) -> tuple[Var, ...]:
    """Create several variables at once: ``i, j = symbols("i j")``."""
    if isinstance(names, str):
        parts = names.replace(",", " ").split()
    else:
        parts = list(names)
    return tuple(Var(p) for p in parts)


class _NaryExpr(Expr):
    """Shared implementation for n-ary nodes (stored args are ``Expr``)."""

    __slots__ = ("_args",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def args(self) -> tuple[Expr, ...]:
        return self._args

    @classmethod
    def _make(cls, args: tuple[Expr, ...], extra: tuple = ()) -> Expr:
        """Intern-aware constructor for canonicalised argument tuples."""
        key = (cls.__name__,) + extra + tuple(a._id for a in args)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        with _intern_lock(key):
            cached = _INTERN.get(key)
            if cached is not None:
                return cached
            obj = object.__new__(cls)
            object.__setattr__(obj, "_args", args)
            ekey = (cls.__name__,) + extra + tuple(a._ekey for a in args)
            _finalize(obj, ekey)
            _INTERN[key] = obj
            return obj


class Add(_NaryExpr):
    """Sum of two or more terms (canonicalised, constants folded)."""

    __slots__ = ()

    def __new__(cls, *operands: ExprLike) -> Expr:
        return _constructed("add", operands, cls._canonical)

    @classmethod
    def _canonical(cls, operands: tuple) -> Expr:
        terms: list[Expr] = []
        const_total = 0
        for op in operands:
            if not isinstance(op, Expr):
                op = as_expr(op)
            if isinstance(op, Add):
                children: Iterable[Expr] = op._args
            else:
                children = (op,)
            for child in children:
                if isinstance(child, Const):
                    const_total += child.value
                else:
                    terms.append(child)
        # Collect like terms by their non-constant part, remembering the term
        # a part came from: met once, that term already is the canonical
        # ``coeff * rest`` and is kept; only parts that collected are rebuilt.
        collected: dict[Expr, tuple[int, Expr | None]] = {}
        for term in terms:
            coeff, rest = _split_coeff(term)
            met = collected.get(rest)
            collected[rest] = (coeff, term) if met is None else (met[0] + coeff, None)
        final_terms: list[Expr] = []
        for rest, (coeff, term) in collected.items():
            if term is not None:
                final_terms.append(term)
            elif coeff == 1:
                final_terms.append(rest)
            elif coeff != 0:
                final_terms.append(Mul(coeff, rest))
        if const_total != 0:
            final_terms.append(Const(const_total))
        if not final_terms:
            return Const(0)
        if len(final_terms) == 1:
            return final_terms[0]
        final_terms.sort(key=_SORT_KEY)
        return cls._make(tuple(final_terms))

    def evaluate(self, env: Mapping[str, int] | None = None):
        total = None
        for arg in self._args:
            value = arg.evaluate(env)
            total = value if total is None else total + value
        return total

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return Add(*args)


class Mul(_NaryExpr):
    """Product of two or more factors (canonicalised, constants folded)."""

    __slots__ = ()

    def __new__(cls, *operands: ExprLike) -> Expr:
        return _constructed("mul", operands, cls._canonical)

    @classmethod
    def _canonical(cls, operands: tuple) -> Expr:
        factors: list[Expr] = []
        const_total = 1
        for op in operands:
            if not isinstance(op, Expr):
                op = as_expr(op)
            if isinstance(op, Mul):
                children: Iterable[Expr] = op._args
            else:
                children = (op,)
            for child in children:
                if isinstance(child, Const):
                    const_total *= child.value
                else:
                    factors.append(child)
        if const_total == 0:
            return Const(0)
        if not factors:
            return Const(const_total)
        if len(factors) > 1:
            factors.sort(key=_SORT_KEY)
        if const_total != 1:
            factors.insert(0, Const(const_total))
        if len(factors) == 1:
            return factors[0]
        return cls._make(tuple(factors))

    def evaluate(self, env: Mapping[str, int] | None = None):
        total = None
        for arg in self._args:
            value = arg.evaluate(env)
            total = value if total is None else total * value
        return total

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return Mul(*args)


def _split_coeff(term: Expr) -> tuple[int, Expr]:
    """Split ``term`` into ``(integer coefficient, remaining factor)``.

    Reads the canonical form (module docstring): a ``Mul``'s only ``Const`` is
    its first argument and the rest is already flat and sorted, so the
    remaining factor is the tail as it stands — no rebuild, no re-sort.
    """
    if isinstance(term, Mul):
        args = term._args
        head = args[0]
        if isinstance(head, Const):
            return head.value, args[1] if len(args) == 2 else Mul._make(args[1:])
    return 1, term


def _constructed(family: str, operands: tuple, build: Callable[[tuple], Expr]) -> Expr:
    """``build(operands)``, filed in the memo under the operands' identities.

    ``Add(*ops)`` / ``Mul(*ops)`` is a pure function of its interned operands,
    and lowering rebuilds the same sums many times (expanded and unexpanded
    variants, every round of the rewrite fixpoint).  Expression operands key
    by id, literal ints by a 1-tuple so ``3`` never aliases the node with id 3.
    """
    key: list = [family]
    for op in operands:
        if isinstance(op, Expr):
            key.append(op._id)
        elif isinstance(op, int):
            key.append((op,))
        else:
            key.append(as_expr(op)._id)  # anything else: the TypeError it always raised
    memo_key = tuple(key)
    node = MEMO.get(memo_key)
    if node is None:
        node = build(operands)
        memo_put(memo_key, node)
    return node


class FloorDiv(_NaryExpr):
    """Floor (integer) division ``a // b``."""

    __slots__ = ()

    def __new__(cls, numerator: ExprLike, denominator: ExprLike) -> Expr:
        num = as_expr(numerator)
        den = as_expr(denominator)
        if isinstance(den, Const):
            if den.value == 0:
                raise ZeroDivisionError("symbolic floor division by zero constant")
            if den.value == 1:
                return num
        if isinstance(num, Const) and isinstance(den, Const):
            return Const(num.value // den.value)
        if isinstance(num, Const) and num.value == 0:
            return Const(0)
        return cls._make((num, den))

    @property
    def numerator(self) -> Expr:
        return self._args[0]

    @property
    def denominator(self) -> Expr:
        return self._args[1]

    def evaluate(self, env: Mapping[str, int] | None = None):
        return self._args[0].evaluate(env) // self._args[1].evaluate(env)

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return FloorDiv(args[0], args[1])


class Mod(_NaryExpr):
    """Euclidean-style modulo ``a % b`` (Python semantics)."""

    __slots__ = ()

    def __new__(cls, value: ExprLike, modulus: ExprLike) -> Expr:
        val = as_expr(value)
        mod = as_expr(modulus)
        if isinstance(mod, Const):
            if mod.value == 0:
                raise ZeroDivisionError("symbolic modulo by zero constant")
            if mod.value == 1:
                return Const(0)
        if isinstance(val, Const) and isinstance(mod, Const):
            return Const(val.value % mod.value)
        if isinstance(val, Const) and val.value == 0:
            return Const(0)
        return cls._make((val, mod))

    @property
    def value_expr(self) -> Expr:
        return self._args[0]

    @property
    def modulus(self) -> Expr:
        return self._args[1]

    def evaluate(self, env: Mapping[str, int] | None = None):
        return self._args[0].evaluate(env) % self._args[1].evaluate(env)

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return Mod(args[0], args[1])


class Min(_NaryExpr):
    """Minimum of two or more expressions."""

    __slots__ = ()

    def __new__(cls, *operands: ExprLike) -> Expr:
        return _build_minmax(cls, operands, pick=min)

    def evaluate(self, env: Mapping[str, int] | None = None):
        return min(a.evaluate(env) for a in self._args)

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return Min(*args)


class Max(_NaryExpr):
    """Maximum of two or more expressions."""

    __slots__ = ()

    def __new__(cls, *operands: ExprLike) -> Expr:
        return _build_minmax(cls, operands, pick=max)

    def evaluate(self, env: Mapping[str, int] | None = None):
        return max(a.evaluate(env) for a in self._args)

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return Max(*args)


def _build_minmax(cls, operands: Sequence[ExprLike], pick) -> Expr:
    flat: list[Expr] = []
    consts: list[int] = []
    seen: set[Expr] = set()
    for op in operands:
        op = as_expr(op)
        children = op.args if isinstance(op, cls) else (op,)
        for child in children:
            if isinstance(child, Const):
                consts.append(child.value)
            elif child not in seen:
                seen.add(child)
                flat.append(child)
    if consts:
        flat.append(Const(pick(consts)))
    if not flat:
        raise ValueError(f"{cls.__name__} requires at least one operand")
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=_SORT_KEY)
    return cls._make(tuple(flat))


_CMP_EVAL = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Cmp(_NaryExpr):
    """An integer comparison producing a boolean (0/1) value."""

    __slots__ = ("op",)

    def __new__(cls, op: str, lhs: ExprLike, rhs: ExprLike) -> "Cmp":
        if op not in _CMP_EVAL:
            raise ValueError(f"unknown comparison operator {op!r}")
        left = as_expr(lhs)
        right = as_expr(rhs)
        key = ("Cmp", op, left._id, right._id)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        with _intern_lock(key):
            cached = _INTERN.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
            obj = object.__new__(cls)
            object.__setattr__(obj, "op", op)
            object.__setattr__(obj, "_args", (left, right))
            _finalize(obj, ("Cmp", op, left._ekey, right._ekey))
            _INTERN[key] = obj
            return obj

    @property
    def lhs(self) -> Expr:
        return self._args[0]

    @property
    def rhs(self) -> Expr:
        return self._args[1]

    def evaluate(self, env: Mapping[str, int] | None = None):
        return _CMP_EVAL[self.op](self._args[0].evaluate(env), self._args[1].evaluate(env))

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return Cmp(self.op, args[0], args[1])


class BoolAnd(_NaryExpr):
    """Logical conjunction of predicates."""

    __slots__ = ()

    def __new__(cls, *operands: ExprLike) -> Expr:
        flat = [as_expr(op) for op in operands]
        if not flat:
            return Const(1)
        if len(flat) == 1:
            return flat[0]
        return cls._make(tuple(flat))

    def evaluate(self, env: Mapping[str, int] | None = None):
        result = True
        for arg in self._args:
            result = result & _as_bool(arg.evaluate(env))
        return result

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return BoolAnd(*args)


class BoolOr(_NaryExpr):
    """Logical disjunction of predicates."""

    __slots__ = ()

    def __new__(cls, *operands: ExprLike) -> Expr:
        flat = [as_expr(op) for op in operands]
        if not flat:
            return Const(0)
        if len(flat) == 1:
            return flat[0]
        return cls._make(tuple(flat))

    def evaluate(self, env: Mapping[str, int] | None = None):
        result = False
        for arg in self._args:
            result = result | _as_bool(arg.evaluate(env))
        return result

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return BoolOr(*args)


class BoolNot(_NaryExpr):
    """Logical negation of a predicate."""

    __slots__ = ()

    def __new__(cls, operand: ExprLike) -> "BoolNot":
        return cls._make((as_expr(operand),))  # type: ignore[return-value]

    def evaluate(self, env: Mapping[str, int] | None = None):
        value = self._args[0].evaluate(env)
        if isinstance(value, bool):
            return not value
        return ~_as_bool(value)

    def _rebuild(self, args: Sequence[Expr]) -> Expr:
        return BoolNot(args[0])


def _as_bool(value):
    if isinstance(value, (bool, int)):
        return bool(value)
    return value  # NumPy arrays and friends already behave element-wise


_TYPE_ORDER = {
    "Const": 0,
    "Var": 1,
    "Mul": 2,
    "Add": 3,
    "FloorDiv": 4,
    "Mod": 5,
    "Min": 6,
    "Max": 7,
    "Cmp": 8,
    "BoolAnd": 9,
    "BoolOr": 10,
    "BoolNot": 11,
}
