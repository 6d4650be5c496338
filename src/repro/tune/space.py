"""Declarative configuration search spaces for the layout autotuner.

A :class:`SearchSpace` is a named cartesian product of :class:`Choice`
axes — tile sizes, orderings, coarsening factors, swizzle/skew selections —
optionally filtered by a constraint predicate (e.g. "the CUDA block must
divide the LUD block").  Enumeration order is deterministic (the first axis
varies slowest) and doubles as the tie-break order of the tuner: apps list
the paper-preferred value of each axis first so that performance-model ties
resolve toward the configuration the paper reports.

Spaces are **streaming**: nothing ever materialises the full cartesian
product.  ``raw_size`` is a closed-form product, :meth:`SearchSpace.decode`
maps a linear index to its configuration in O(axes) via mixed-radix
decomposition, :meth:`size` counts valid configurations without building a
list (O(1) for unconstrained spaces, one memoised streaming pass
otherwise), and :meth:`sample` draws without replacement by drawing
*indices* — rejection-sampling them against the constraint, falling back to
a single reservoir pass only when the space is too dense with rejections.
A 10^6-point space therefore counts and samples in microseconds (see
:mod:`repro.tune.search`).  An app's axes are its kernel's parameters, so
its space is as large as the kernel is configurable: 27 LUD
configurations, 2 000 matmul ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Iterator, Mapping, Sequence

__all__ = ["Choice", "SearchSpace"]


@dataclass(frozen=True)
class Choice:
    """One tunable axis: a name and the ordered values it may take."""

    name: str
    values: tuple

    def __init__(self, name: str, values: Sequence):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise ValueError(f"choice {name!r} has no values")


#: when rejection sampling has drawn this many times the requested count
#: without filling it, the constraint is too dense and a streaming pass
#: (which also settles "count covers the space") takes over
_REJECTION_OVERDRAW = 64


class SearchSpace:
    """A cartesian product of :class:`Choice` axes with an optional constraint."""

    def __init__(self, *choices: Choice, constraint: Callable[[Mapping], bool] | None = None):
        names = [c.name for c in choices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate choice names in search space: {names}")
        self.choices = tuple(choices)
        self.constraint = constraint
        self._size: int | None = None if constraint is not None else self.raw_size

    @property
    def raw_size(self) -> int:
        """Cartesian-product size before the constraint (closed form, O(axes))."""
        return prod(len(c.values) for c in self.choices) if self.choices else 0

    def decode(self, index: int) -> dict:
        """The configuration at linear ``index`` of the (unconstrained) product.

        Mixed-radix decomposition in enumeration order — the first axis is
        the most significant digit — so ``decode(i)`` equals the ``i``-th
        element ``itertools.product`` would yield, without enumerating the
        ``i - 1`` before it.  The constraint is *not* applied.
        """
        raw = self.raw_size
        if not 0 <= index < raw:
            raise IndexError(f"index {index} out of range for a {raw}-point space")
        config = {}
        for choice in reversed(self.choices):
            index, digit = divmod(index, len(choice.values))
            config[choice.name] = choice.values[digit]
        return {c.name: config[c.name] for c in self.choices}

    def candidates(self) -> Iterator[dict]:
        """Every configuration satisfying the constraint, in deterministic order."""
        names = [c.name for c in self.choices]
        for combo in product(*(c.values for c in self.choices)):
            config = dict(zip(names, combo))
            if self.constraint is None or self.constraint(config):
                yield config

    def __iter__(self) -> Iterator[dict]:
        return self.candidates()

    def size(self) -> int:
        """Valid configurations under the constraint.

        Closed form for unconstrained spaces; one streaming count —
        memoised, never a list — otherwise (constraints are treated as pure
        functions of the configuration).
        """
        if self._size is None:
            self._size = sum(1 for _ in self.candidates())
        return self._size

    def __len__(self) -> int:
        return self.size()

    def _normalize_rng(self, rng: random.Random | int | None) -> random.Random:
        if rng is None or isinstance(rng, int):
            return random.Random(0 if rng is None else rng)
        return rng

    def _reservoir(self, count: int, rng: random.Random) -> list[dict]:
        """One streaming pass: the full enumeration when it fits ``count``,
        otherwise a uniform reservoir of ``count`` valid configurations
        (returned in enumeration order)."""
        reservoir: list[tuple[int, dict]] = []
        seen = 0
        for i, config in enumerate(self.candidates()):
            seen += 1
            if len(reservoir) < count:
                reservoir.append((i, config))
            else:
                j = rng.randrange(seen)
                if j < count:
                    reservoir[j] = (i, config)
        self._size = seen  # the pass counted the space for free
        if not reservoir:
            raise ValueError("cannot sample from an empty search space")
        if seen <= count:
            return [config for _, config in reservoir]
        return [config for _, config in sorted(reservoir)]

    def sample(self, count: int, rng: random.Random | int | None = None) -> list[dict]:
        """``count`` randomly drawn valid configurations, without replacement.

        Never materialises the space: unconstrained spaces draw distinct
        linear indices and :meth:`decode` them; constrained spaces
        rejection-sample indices against the constraint, degrading to a
        single streaming reservoir pass when rejections dominate (which also
        detects the ``count >= size`` case and returns the full enumeration
        in order, preserving the historical contract).  Results come back in
        enumeration order, so the paper-preferred configuration sorts first
        whenever the draw includes it.

        ``rng`` is an explicit :class:`random.Random` (or an int seed —
        never module-level state), so the verification subsystem's draws
        reproduce from a printed seed.
        """
        if count < 1:
            raise ValueError("sample() needs a positive count")
        rng = self._normalize_rng(rng)
        raw = self.raw_size
        if raw == 0:
            raise ValueError("cannot sample from an empty search space")
        if self.constraint is None:
            if count >= raw:
                return list(self)
            indices = sorted(rng.sample(range(raw), count))
            return [self.decode(i) for i in indices]
        if self._size is not None and count >= self._size:
            return list(self)
        # rejection sampling on linear indices: uniform over valid configs
        chosen: dict[int, dict] = {}
        attempts = 0
        budget = max(_REJECTION_OVERDRAW * count, 1024)
        while len(chosen) < count and attempts < budget and len(chosen) < raw:
            attempts += 1
            index = rng.randrange(raw)
            if index in chosen:
                continue
            config = self.decode(index)
            if self.constraint(config):
                chosen[index] = config
        if len(chosen) == count:
            return [chosen[i] for i in sorted(chosen)]
        # dense rejections (or count covers the valid space): one streaming pass
        return self._reservoir(count, rng)

    def subspace(self, **axes: Sequence) -> "SearchSpace":
        """A copy with some axes narrowed to the given values (same constraint).

        Every given value must be one the axis declares — a subspace never
        widens its space (``ValueError`` otherwise).  Used by the figure
        harnesses to restrict an app's full space to the exact sweep a paper
        figure reports.
        """
        narrowed = []
        unknown = set(axes) - {c.name for c in self.choices}
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}; space has "
                             f"{[c.name for c in self.choices]}")
        for choice in self.choices:
            if choice.name in axes:
                values = tuple(axes[choice.name])
                outside = [v for v in values if v not in choice.values]
                if outside:
                    raise ValueError(f"axis {choice.name!r} has no values {outside}; "
                                     f"it declares {list(choice.values)}")
                narrowed.append(Choice(choice.name, values))
            else:
                narrowed.append(choice)
        return SearchSpace(*narrowed, constraint=self.constraint)

    def extended(self, *choices: Choice) -> "SearchSpace":
        """A copy with extra axes appended (same constraint).

        The figure harnesses use this to add a problem-size axis to an app's
        tiling space without re-declaring (and risking drift from) the app's
        own axes and constraints.
        """
        return SearchSpace(*self.choices, *choices, constraint=self.constraint)

    def __repr__(self) -> str:
        axes = ", ".join(f"{c.name}={list(c.values)!r}" for c in self.choices)
        return f"SearchSpace({axes})"
