"""CuTe / Graphene-style shape-and-stride layouts (the comparison baseline).

Section III-C of the paper compares LEGO against the CuTe/Graphene shape
algebra, in which a layout is a list of ``(extent, stride)`` modes and the
memory offset of a coordinate is the dot product of coordinates and strides.
Table I lists the side-by-side specifications.  This module implements that
algebra so the reproduction can

* state the Table I comparison programmatically (``figures.table1``),
* machine-check that each pair of specifications describes the same mapping
  (:func:`equivalent`), and
* demonstrate the paper's expressiveness claim: :func:`strides_from_layout`
  recovers a stride-based description of any *affine* LEGO layout and proves
  (by failing) that the anti-diagonal layout admits none.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Sequence

from .blocks import GroupBy

__all__ = ["StrideLayout", "strides_from_layout", "equivalent"]


def _flatten_modes(shape, stride) -> list[tuple[int, int]]:
    """Flatten possibly nested (CuTe-style) shape/stride tuples into modes."""
    modes: list[tuple[int, int]] = []
    if isinstance(shape, (list, tuple)):
        if not isinstance(stride, (list, tuple)) or len(shape) != len(stride):
            raise ValueError("shape and stride must have identical nesting structure")
        for s, d in zip(shape, stride):
            modes.extend(_flatten_modes(s, d))
    else:
        modes.append((int(shape), int(stride)))
    return modes


class StrideLayout:
    """A CuTe/Graphene layout: per-mode extents and strides.

    ``shape`` / ``stride`` may be nested tuples (CuTe's hierarchical modes);
    they are flattened left-to-right.  ``apply(coords)`` maps a logical
    coordinate (one per flattened mode, in the same left-to-right order) to a
    memory offset.
    """

    def __init__(self, shape, stride):
        self._modes = _flatten_modes(shape, stride)
        self.shape = tuple(extent for extent, _ in self._modes)
        self.stride = tuple(stride for _, stride in self._modes)

    @property
    def rank(self) -> int:
        return len(self._modes)

    def size(self) -> int:
        total = 1
        for extent, _ in self._modes:
            total *= extent
        return total

    def apply(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        offset = 0
        for coord, (extent, stride) in zip(coords, self._modes):
            if isinstance(coord, int) and (coord < 0 or coord >= extent):
                raise IndexError(f"coordinate {coord} out of range for extent {extent}")
            offset = offset + coord * stride
        return offset

    # -- convenience constructors ------------------------------------------------

    @staticmethod
    def row_major(*shape) -> "StrideLayout":
        if len(shape) == 1 and isinstance(shape[0], (list, tuple)):
            shape = tuple(shape[0])
        strides = []
        running = 1
        for extent in reversed(shape):
            strides.append(running)
            running *= extent
        return StrideLayout(tuple(shape), tuple(reversed(strides)))

    @staticmethod
    def column_major(*shape) -> "StrideLayout":
        if len(shape) == 1 and isinstance(shape[0], (list, tuple)):
            shape = tuple(shape[0])
        strides = []
        running = 1
        for extent in shape:
            strides.append(running)
            running *= extent
        return StrideLayout(tuple(shape), tuple(strides))

    def __repr__(self) -> str:
        return f"StrideLayout(shape={self.shape}, stride={self.stride})"


def strides_from_layout(layout: GroupBy) -> StrideLayout | None:
    """Recover a stride-based description of a concrete LEGO layout, if affine.

    Probes the layout at the origin and at a unit step along each logical
    dimension to propose strides, then verifies the affine formula over the
    whole space.  Returns ``None`` when the layout is not affine (e.g. the
    anti-diagonal layout of Figure 6), which is exactly the paper's
    "extended layout support" claim in machine-checkable form.
    """
    if not layout.is_concrete():
        raise TypeError("strides_from_layout requires a concrete layout")
    shape = layout.dims()
    origin = tuple(0 for _ in shape)
    base = layout.apply(*origin)
    strides = []
    for axis, extent in enumerate(shape):
        if extent == 1:
            strides.append(0)
            continue
        probe = list(origin)
        probe[axis] = 1
        strides.append(layout.apply(*probe) - base)
    candidate = StrideLayout(shape, tuple(strides))
    for coords in iproduct(*(range(d) for d in shape)):
        expected = layout.apply(*coords)
        got = base + candidate.apply(*coords)
        if expected != got:
            return None
    if base != 0:
        return None
    return candidate


def equivalent(layout: GroupBy, stride_layout: StrideLayout, coordinate_map=None) -> bool:
    """Check that a LEGO layout and a stride layout describe the same mapping.

    ``coordinate_map`` translates a LEGO logical coordinate into the stride
    layout's mode coordinates; by default the identity is used (both layouts
    must then have the same logical rank and shape).
    """
    if not layout.is_concrete():
        raise TypeError("equivalent requires a concrete layout")
    shape = layout.dims()
    for coords in iproduct(*(range(d) for d in shape)):
        mapped = coordinate_map(coords) if coordinate_map is not None else coords
        if layout.apply(*coords) != stride_layout.apply(*mapped):
            return False
    return True
