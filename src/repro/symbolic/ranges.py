"""Integer intervals and exact affine stride decomposition.

The paper propagates index-range information derived from layout shapes
through the generated expressions and uses it (via Z3) to discharge the side
conditions of the division/modulo simplification rules of Table II.  The
reproduction has **one** range domain — :class:`~repro.symbolic.symranges.
SymInterval`, walked by :meth:`SymbolicEnv.range_of` — and this module is its
integer kernel plus the env-free stride helpers:

* :class:`Interval` — a possibly unbounded integer interval ``[lo, hi]`` with
  sound transfer functions for every operation of a layout expression
  (addition, negation, multiplication, floor division, modulo, min/max).
  ``range_of`` runs them whenever every operand end is a literal, so the
  constant-bounds case never builds an expression node.
* :func:`affine_strides` — exact decomposition ``const + Σ stride_v · v``;
  :func:`is_mixed_radix_bijection` turns the strides of a flattened layout
  offset into a static bijectivity verdict.

Unbounded ends are represented by ``None``.  All operations are conservative:
the returned interval always contains every value the operation can produce
for operands inside the argument intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .expr import Add, Const, Expr, ExprLike, Mul, Var, as_expr

__all__ = ["Interval", "affine_strides", "is_mixed_radix_bijection"]


def _neg(value: Optional[int]) -> Optional[int]:
    return None if value is None else -value


def _both(pick: Callable[[int, int], int], a: Optional[int], b: Optional[int]) -> Optional[int]:
    """``pick(a, b)`` when both ends are finite; unbounded when either is."""
    return None if a is None or b is None else pick(a, b)


def _either(pick: Callable[[int, int], int], a: Optional[int], b: Optional[int]) -> Optional[int]:
    """``pick`` over the finite ends; unbounded only when neither is finite."""
    if a is None:
        return b
    if b is None:
        return a
    return pick(a, b)


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``None`` means unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def nonneg() -> "Interval":
        return Interval(0, None)

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def index(extent: int) -> "Interval":
        """The range of an index into a dimension of size ``extent``."""
        if extent <= 0:
            raise ValueError(f"index extent must be positive, got {extent}")
        return Interval(0, extent - 1)

    # -- queries --------------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def is_nonnegative(self) -> bool:
        return self.lo is not None and self.lo >= 0

    def is_positive(self) -> bool:
        return self.lo is not None and self.lo > 0

    def is_negative(self) -> bool:
        return self.hi is not None and self.hi < 0

    def is_nonzero(self) -> bool:
        return self.is_positive() or self.is_negative()

    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def iter_values(self):
        """Iterate all values (only valid for bounded intervals)."""
        if not self.bounded():
            raise ValueError("cannot enumerate an unbounded interval")
        return range(self.lo, self.hi + 1)  # type: ignore[arg-type]

    # -- lattice --------------------------------------------------------------

    def union(self, other: "Interval") -> "Interval":
        return Interval(_both(min, self.lo, other.lo), _both(max, self.hi, other.hi))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = _either(max, self.lo, other.lo)
        hi = _either(min, self.hi, other.hi)
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def __neg__(self) -> "Interval":
        return Interval(_neg(self.hi), _neg(self.lo))

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = []
        unbounded = False
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if a is None or b is None:
                    unbounded = True
                else:
                    corners.append(a * b)
        if unbounded:
            # A product involving an unbounded end is only bounded in special
            # cases (e.g. multiplication by the point 0); keep it simple and
            # sound by treating any unbounded operand as fully unbounded,
            # unless one operand is exactly the point 0.
            if self == Interval.point(0) or other == Interval.point(0):
                return Interval.point(0)
            # Non-negative times non-negative keeps a lower bound of 0.
            if self.is_nonnegative() and other.is_nonnegative():
                lo = 0
                if self.lo is not None and other.lo is not None:
                    lo = self.lo * other.lo
                return Interval(lo, None)
            return Interval.top()
        return Interval(min(corners), max(corners))

    def floordiv(self, other: "Interval") -> "Interval":
        """Sound interval for floor division.

        The divisor interval implicitly excludes 0 (division by zero is a
        runtime error, so the result range only needs to cover defined
        executions).  A divisor interval that straddles 0 is split into its
        negative and positive halves and the results are unioned.  Half-
        bounded operands stay as tight as floor-division monotonicity allows:
        ``x // d`` for ``d >= 1`` is monotone increasing in ``x`` and, for a
        fixed ``x``, moves monotonically toward ``0`` (``x >= 0``) or ``-1``
        (``x < 0``) as ``d`` grows without bound.
        """
        positive = other.intersect(Interval(1, None))
        negative = other.intersect(Interval(None, -1))
        if positive is None and negative is None:
            # the divisor can only be 0: no defined executions to cover
            return Interval.top()
        if positive is None:
            # x // d == (-x) // (-d) exactly (same rational, same floor)
            return (-self).floordiv(-negative)
        if negative is not None:
            return self.floordiv(positive).union((-self).floordiv(-negative))
        dlo, dhi = positive.lo, positive.hi  # dlo >= 1; dhi None or >= dlo
        # Upper bound: driven by the numerator's upper end.
        if self.hi is None:
            hi: Optional[int] = None
        elif self.hi >= 0:
            hi = self.hi // dlo  # largest quotient at the smallest divisor
        else:
            # negative numerator: quotient grows toward -1 as d grows
            hi = -1 if dhi is None else self.hi // dhi
        # Lower bound: driven by the numerator's lower end.
        if self.lo is None:
            lo: Optional[int] = None
        elif self.lo >= 0:
            lo = 0 if dhi is None else self.lo // dhi  # shrinks toward 0
        else:
            lo = self.lo // dlo  # most negative at the smallest divisor
        return Interval(lo, hi)

    def mod(self, other: "Interval") -> "Interval":
        """Sound interval for Python-semantics modulo.

        Like :meth:`floordiv`, the divisor interval implicitly excludes 0;
        a straddling divisor is split into its sign-definite halves and the
        results are unioned.  ``x % d`` lies in ``[0, d - 1]`` for ``d >= 1``
        and in ``[d + 1, 0]`` for ``d <= -1`` (Python/floor semantics), with
        the identity refinement when the value provably never wraps.
        """
        positive = other.intersect(Interval(1, None))
        negative = other.intersect(Interval(None, -1))
        results = []
        if positive is not None:
            if (
                self.is_nonnegative()
                and positive.lo is not None
                and self.hi is not None
                and self.hi < positive.lo
            ):
                # value already smaller than any possible modulus
                results.append(Interval(self.lo, self.hi))
            else:
                results.append(
                    Interval(0, None if positive.hi is None else positive.hi - 1)
                )
        if negative is not None:
            if (
                self.hi is not None
                and self.hi <= 0
                and negative.hi is not None
                and self.lo is not None
                and self.lo > negative.hi
            ):
                # nonpositive value strictly above every divisor: identity
                results.append(Interval(self.lo, self.hi))
            else:
                results.append(
                    Interval(None if negative.lo is None else negative.lo + 1, 0)
                )
        if not results:
            return Interval.top()
        out = results[0]
        for extra in results[1:]:
            out = out.union(extra)
        return out

    def min(self, other: "Interval") -> "Interval":
        # the smaller value is below *either* finite upper end
        return Interval(_both(min, self.lo, other.lo), _either(min, self.hi, other.hi))

    def max(self, other: "Interval") -> "Interval":
        # the larger value is above *either* finite lower end
        return Interval(_either(max, self.lo, other.lo), _both(max, self.hi, other.hi))

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


# ---------------------------------------------------------------------------
# exact affine decomposition (env-independent)
# ---------------------------------------------------------------------------


def affine_strides(
    expr: ExprLike, variables: Sequence[str]
) -> Optional[Tuple[int, dict]]:
    """Decompose ``expr`` into ``const + Σ strides[v] · v`` exactly.

    Returns ``(const, {name: stride})`` when the expression is an affine
    combination of the given variables (and nothing else); ``None`` when any
    free variable is outside ``variables`` or the structure is non-affine
    (div/mod/min/max of a variable term).  Purely structural — no
    environment, no approximation — so a non-``None`` result is an identity.
    """
    expr = as_expr(expr)
    allowed = set(variables)

    def walk(node: Expr) -> Optional[Tuple[int, dict]]:
        if isinstance(node, Const):
            return node.value, {}
        if isinstance(node, Var):
            if node.name not in allowed:
                return None
            return 0, {node.name: 1}
        if isinstance(node, Add):
            const = 0
            strides: dict[str, int] = {}
            for arg in node.args:
                part = walk(arg)
                if part is None:
                    return None
                const += part[0]
                for name, coeff in part[1].items():
                    strides[name] = strides.get(name, 0) + coeff
            return const, strides
        if isinstance(node, Mul):
            coeff = 1
            linear: Optional[Tuple[int, dict]] = None
            for arg in node.args:
                if isinstance(arg, Const):
                    coeff *= arg.value
                    continue
                part = walk(arg)
                if part is None:
                    return None
                if part[1]:
                    if linear is not None:
                        return None  # variable × variable: not affine
                    linear = part
                else:
                    coeff *= part[0]
            if linear is None:
                return coeff, {}
            const = linear[0] * coeff
            return const, {name: c * coeff for name, c in linear[1].items()}
        return None

    result = walk(expr)
    if result is None:
        return None
    const, strides = result
    return const, {name: c for name, c in strides.items() if c != 0}


def is_mixed_radix_bijection(
    const: int, pairs: Iterable[Tuple[int, int]], total: int
) -> bool:
    """Is ``const + Σ stride_k · i_k`` (``0 <= i_k < extent_k``) a bijection
    onto ``[0, total)``?

    ``pairs`` is the ``(stride, extent)`` list of the affine offset.  The map
    is a bijection exactly when the constant term is zero and the strides,
    sorted increasingly (dimensions of extent 1 contribute nothing and are
    skipped), form a *permuted mixed-radix basis*: the smallest stride is 1
    and each subsequent stride is the previous stride times the previous
    extent, with the extents multiplying out to ``total``.  This is the
    static form of the LUD ``element_offset`` check that previously ran by
    enumerating every index combination at runtime.
    """
    if const != 0 or total <= 0:
        return False
    live: list[Tuple[int, int]] = []
    for stride, extent in pairs:
        if extent <= 0:
            return False
        if extent == 1:
            continue
        if stride <= 0:
            # with const == 0 a negative or zero stride cannot reach [0, total)
            return False
        live.append((stride, extent))
    live.sort()
    expected = 1
    for stride, extent in live:
        if stride != expected:
            return False
        expected *= extent
    return expected == total
