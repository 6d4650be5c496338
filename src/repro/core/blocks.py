"""``OrderBy`` and ``GroupBy`` blocks — the heart of the LEGO algebra.

``GroupBy`` gives the logical view of an index space; a chain of ``OrderBy``
blocks reorders its elements (Figures 3–5 of the paper).  The user-facing
interface is:

* ``apply(index)`` — logical multi-dimensional index → flat physical position,
* ``inv(flat)``    — flat physical position → logical multi-dimensional index,
* ``dims()``       — the logical shape,
* ``OrderBy(...)`` — append another reordering (dot-chaining, Section III-B's
  "syntactic sugar": reorderings listed left-to-right are applied in that
  order, the last one being closest to physical memory).

Both directions accept concrete integers and symbolic expressions
(:mod:`repro.symbolic`); symbolic results are simplified by the
code-generation pipeline, not here.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Iterable, Sequence

from .bijection import flatten_index, product, unflatten_index, validate_index
from .perms import GenP, Perm, RegP

__all__ = ["OrderBy", "GroupBy"]


def _flatten_shape(parts: Iterable) -> tuple:
    """Accept ``[6, 4]`` or ``[2, 2], [3, 2]`` (several levels) and flatten."""
    flat: list = []
    for part in parts:
        if isinstance(part, (list, tuple)):
            flat.extend(part)
        else:
            flat.append(part)
    return tuple(flat)


def _as_perm(item) -> Perm:
    if isinstance(item, Perm):
        return item
    raise TypeError(
        f"OrderBy levels must be RegP/GenP permutation blocks, got {type(item).__name__}"
    )


class OrderBy:
    """A tiling hierarchy whose levels are reordered by permutations.

    ``OrderBy(P_1, ..., P_q)`` defines a ``q``-level hierarchy; ``P_1`` is the
    outermost level.  ``apply`` consumes a multi-index over the concatenation
    of the levels' tile shapes and produces a flat position; ``inv`` is the
    reverse (Figure 4 semantics).
    """

    def __init__(self, *perms: Perm):
        if not perms:
            raise ValueError("OrderBy requires at least one permutation block")
        self._perms = tuple(_as_perm(p) for p in perms)

    @property
    def perms(self) -> tuple[Perm, ...]:
        return self._perms

    def dims(self) -> tuple:
        out: list = []
        for perm in self._perms:
            out.extend(perm.dims())
        return tuple(out)

    def size(self):
        return product(self.dims())

    def apply(self, index: Sequence):
        index = tuple(index)
        dims = self.dims()
        if len(index) != len(dims):
            raise ValueError(
                f"OrderBy.apply expected {len(dims)} coordinates, got {len(index)}"
            )
        flat = 0
        offset = 0
        for perm in self._perms:
            rank = perm.rank
            current = index[offset : offset + rank]
            offset += rank
            current_flat = perm.apply(current)
            flat = current_flat + flat * perm.size()
        return flat

    def inv(self, flat):
        coords: tuple = ()
        rest = flat
        for perm in reversed(self._perms):
            size = perm.size()
            current_flat = rest % size
            rest = rest // size
            coords = tuple(perm.inv(current_flat)) + coords
        return coords

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self._perms)
        return f"OrderBy({inner})"


class GroupBy:
    """The top-level LEGO layout block.

    ``GroupBy(shape)`` defines the logical view; ``.OrderBy(...)`` appends
    reordering transformations.  Reorderings chain left-to-right in
    *application* order (the paper's dot notation): the first ``OrderBy``
    reshapes/reorders the logical view, the last one determines the physical
    order.

    The constructor also accepts several shape lists (one per tile level),
    which are concatenated — ``GroupBy([R, R], [T, T])`` is the 4-D logical
    space of an ``R x R`` grid of ``T x T`` tiles.
    """

    def __init__(self, *shape_parts, order_bys: Sequence[OrderBy] = ()):
        self._shape = _flatten_shape(shape_parts)
        if not self._shape:
            raise ValueError("GroupBy requires a non-empty logical shape")
        self._order_bys = tuple(order_bys)
        self._permutation = None  # memo of permutation_vector()
        self._validate_sizes()

    # -- construction ----------------------------------------------------------

    def OrderBy(self, *perms) -> "GroupBy":  # noqa: N802 - paper spelling
        """Append a reordering transformation (dot-chaining)."""
        if len(perms) == 1 and isinstance(perms[0], OrderBy):
            order_by = perms[0]
        else:
            order_by = OrderBy(*perms)
        return GroupBy(self._shape, order_bys=self._order_bys + (order_by,))

    # lowercase alias for PEP 8-minded callers
    order_by = OrderBy

    def _validate_sizes(self) -> None:
        """Dynamically verify the size agreement required for bijectivity.

        Only enforced when all shapes involved are concrete integers (the
        paper notes the check "can be cheaply verified dynamically"); symbolic
        layouts defer the obligation to their range assumptions.
        """
        if not all(isinstance(d, int) for d in self._shape):
            return
        logical_size = product(self._shape)
        for order_by in self._order_bys:
            dims = order_by.dims()
            if not all(isinstance(d, int) for d in dims):
                continue
            if product(dims) != logical_size:
                raise ValueError(
                    f"OrderBy space {list(dims)} has {product(dims)} elements but the "
                    f"logical view {list(self._shape)} has {logical_size}"
                )

    # -- queries ---------------------------------------------------------------

    @property
    def order_bys(self) -> tuple[OrderBy, ...]:
        return self._order_bys

    def dims(self) -> tuple:
        return self._shape

    @property
    def rank(self) -> int:
        return len(self._shape)

    def size(self):
        return product(self._shape)

    # -- the bijection ----------------------------------------------------------

    def apply(self, *index):
        """Logical multi-dimensional index → flat physical position (Figure 5)."""
        if len(index) == 1 and isinstance(index[0], (list, tuple)):
            index = tuple(index[0])
        validate_index(index, self._shape)
        flat = flatten_index(index, self._shape)
        for order_by in self._order_bys:
            coords = unflatten_index(flat, order_by.dims())
            flat = order_by.apply(coords)
        return flat

    def inv(self, flat):
        """Flat physical position → logical multi-dimensional index (Figure 5)."""
        for order_by in reversed(self._order_bys):
            coords = order_by.inv(flat)
            flat = flatten_index(coords, order_by.dims())
        return unflatten_index(flat, self._shape)

    # -- indexing / slicing ------------------------------------------------------

    def __getitem__(self, item):
        """Slice-style indexing producing a symbolic offset expression.

        ``DL[pid_m, k, :, :]`` returns a :class:`repro.core.slicing.LayoutSlice`
        whose ``offset`` is the symbolic address of the selected tile, with
        ``:`` dimensions turned into index atoms (rendered as ``tl.arange``
        by the Triton backend).  See :mod:`repro.core.slicing`.
        """
        from .slicing import slice_layout

        if not isinstance(item, tuple):
            item = (item,)
        return slice_layout(self, item)

    # -- verification and visualisation helpers ----------------------------------

    def is_concrete(self) -> bool:
        return all(isinstance(d, int) for d in self._shape)

    def iter_logical_indices(self):
        """Iterate all logical indices (concrete layouts only)."""
        if not self.is_concrete():
            raise TypeError("iter_logical_indices requires a concrete layout")
        return iproduct(*(range(d) for d in self._shape))

    def verify(self) -> bool:
        """Exhaustively check bijectivity of a concrete layout.

        Checks that ``apply`` hits every flat position exactly once and that
        ``inv`` is its inverse — the correctness property of Section III-B.
        """
        if not self.is_concrete():
            raise TypeError("verify requires a concrete layout")
        total = self.size()
        seen: set[int] = set()
        for coords in self.iter_logical_indices():
            flat = self.apply(coords)
            if not isinstance(flat, int) or flat < 0 or flat >= total:
                return False
            if flat in seen:
                return False
            seen.add(flat)
            if tuple(self.inv(flat)) != tuple(coords):
                return False
        return len(seen) == total

    def permutation_vector(self):
        """Return ``perm`` with ``perm[logical_flat] = physical_flat`` (concrete only).

        Built once per layout object (layouts are immutable) and returned
        read-only: callers index it, they do not own it.
        """
        import numpy as np

        if self._permutation is None:
            if not self.is_concrete():
                raise TypeError("permutation_vector requires a concrete layout")
            out = np.empty(self.size(), dtype=np.int64)
            for coords in self.iter_logical_indices():
                out[flatten_index(coords, self._shape)] = self.apply(coords)
            out.setflags(write=False)
            self._permutation = out
        return self._permutation

    def physical_table(self):
        """Return ``table`` with ``table[physical_flat] = logical_flat`` (concrete only).

        This is the presentation used by Figures 2 and 6 of the paper: the
        value stored at each physical position is the logical flat index of
        the element living there.
        """
        import numpy as np

        perm = self.permutation_vector()
        table = np.empty_like(perm)
        table[perm] = np.arange(len(perm))
        return table

    def physical_matrix(self, rows: int, cols: int):
        """The :meth:`physical_table` reshaped to ``rows x cols`` for display."""
        return self.physical_table().reshape(rows, cols)

    def __repr__(self) -> str:
        chain = "".join(f".OrderBy({', '.join(repr(p) for p in ob.perms)})" for ob in self._order_bys)
        return f"GroupBy({list(self._shape)}){chain}"
