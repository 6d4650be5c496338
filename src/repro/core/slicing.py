"""Slice-style indexing of layouts: ``DL[pid_m, k, :, :]``.

The LEGO/Triton integration introduces "specialized slicing syntax analogous
to NumPy's slice notation": indexing a layout with a mix of fixed coordinates
and ``:`` produces the symbolic memory offset of the selected tile, where
every ``:`` dimension becomes an *index atom* spanning that dimension.  The
Triton backend renders atoms as ``tl.arange(0, extent)`` with the broadcast
suffix determined by the atom's position among the sliced dimensions
(``[:, None]`` / ``[None, :]`` ...), and the CUDA backend renders them as the
loop/thread indices supplied by the caller.

``slice_layout`` is invoked by ``GroupBy.__getitem__`` and returns a
:class:`LayoutSlice` holding the raw (unsimplified) offset expression, the
atoms with their ranges, and the environment contributions needed by the
code-generation pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from ..symbolic import Expr, SymbolicEnv, Var, as_expr
from .blocks import GroupBy

__all__ = ["IndexAtom", "LayoutSlice", "slice_layout"]


def _sanitize(text: str) -> str:
    return re.sub(r"[^0-9a-zA-Z_]+", "_", text).strip("_")


@dataclass(frozen=True)
class IndexAtom:
    """A symbolic index spanning one sliced dimension of a layout."""

    var: Var
    extent: object  # int or Expr
    axis: int  # axis in the layout's logical shape
    position: int  # position among the sliced dimensions (broadcast order)
    total: int  # total number of sliced dimensions

    @property
    def name(self) -> str:
        return self.var.name

    def broadcast_suffix(self) -> str:
        """The NumPy/Triton broadcast suffix, e.g. ``[:, None]``."""
        if self.total <= 1:
            return ""
        parts = ["None"] * self.total
        parts[self.position] = ":"
        return "[" + ", ".join(parts) + "]"

    def triton_render(self) -> str:
        extent_text = str(as_expr(self.extent))
        base = f"tl.arange(0, {extent_text})"
        suffix = self.broadcast_suffix()
        if suffix:
            return f"(({base}){suffix})"
        return f"({base})"


@dataclass
class LayoutSlice:
    """The result of slicing a layout: a symbolic tile offset plus its atoms."""

    layout: GroupBy
    offset: Expr
    atoms: tuple[IndexAtom, ...]
    fixed: dict[int, object] = field(default_factory=dict)

    def atom_shape(self) -> tuple:
        """The extents of the sliced dimensions, in slicing order."""
        return tuple(atom.extent for atom in self.atoms)

    def contribute_env(self, env: SymbolicEnv) -> SymbolicEnv:
        """Register the atoms' index ranges into an assumption environment."""
        for atom in self.atoms:
            env.declare_index(atom.var, atom.extent)
        return env

    def default_env(self) -> SymbolicEnv:
        env = SymbolicEnv()
        return self.contribute_env(env)

    def substitutions(self, renders: dict[str, str] | None = None) -> dict[str, str]:
        """Variable-name -> source-text substitutions for printers.

        By default every atom renders as its Triton ``tl.arange`` expression;
        callers may override renderings per atom name (the CUDA backend maps
        atoms to thread indices this way).
        """
        out = {atom.name: atom.triton_render() for atom in self.atoms}
        if renders:
            out.update(renders)
        return out


def slice_layout(layout: GroupBy, items: Sequence) -> LayoutSlice:
    """Build the :class:`LayoutSlice` for ``layout[items...]``.

    Each element of ``items`` is one of:

    * an integer or symbolic expression — a fixed coordinate,
    * a string — shorthand for a named symbolic variable,
    * ``:`` (``slice(None)``) — the full dimension, producing an index atom,
    * ``slice(None, extent)`` — a prefix of the dimension of length ``extent``
      (the atom's extent is overridden; used for partial tiles).
    """
    shape = layout.dims()
    if len(items) != len(shape):
        raise ValueError(
            f"layout has {len(shape)} logical dimensions but {len(items)} indices were given"
        )
    sliced_axes = [axis for axis, item in enumerate(items) if isinstance(item, slice)]
    total = len(sliced_axes)

    coords: list = []
    atoms: list[IndexAtom] = []
    fixed: dict[int, object] = {}
    for axis, item in enumerate(items):
        extent = shape[axis]
        if isinstance(item, slice):
            if item.start not in (None, 0) or item.step not in (None, 1):
                raise ValueError("only ':' and ':stop' slices are supported")
            if item.stop is not None:
                extent = item.stop
            position = sliced_axes.index(axis)
            extent_text = _sanitize(str(as_expr(extent)))
            var = Var(
                f"_sl{axis}_{extent_text}",
                meta={"range": (0, as_expr(extent) - 1)},
            )
            atom = IndexAtom(var=var, extent=extent, axis=axis, position=position, total=total)
            atoms.append(atom)
            coords.append(var)
        elif isinstance(item, str):
            var = Var(item)
            fixed[axis] = var
            coords.append(var)
        else:
            value = item if isinstance(item, int) else as_expr(item)
            fixed[axis] = value
            coords.append(value)

    offset = layout.apply(*coords)
    return LayoutSlice(layout=layout, offset=as_expr(offset), atoms=tuple(atoms), fixed=fixed)
