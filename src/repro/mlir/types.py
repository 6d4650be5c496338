"""MLIR-style types for the mini IR: index, integers, floats, memrefs.

Every type prints once: its text is the ``text`` attribute, computed when the
type is constructed, and ``str``, ``==`` and ``hash`` read it (two types are
equal when they are of one class and print alike).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Type", "IndexType", "IntType", "FloatType", "MemRefType", "F32", "F16", "I32", "INDEX"]


class Type:
    """Base class of IR types; a subclass sets ``text``, its printed form."""

    text: str

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return self.text

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)


class IndexType(Type):
    """The MLIR ``index`` type."""

    text = "index"


@dataclass(frozen=True, eq=False)
class IntType(Type):
    """Signless integer type ``iN``."""

    width: int = 32

    def __post_init__(self):
        object.__setattr__(self, "text", f"i{self.width}")


@dataclass(frozen=True, eq=False)
class FloatType(Type):
    """Floating-point type ``f16`` / ``f32`` / ``f64``."""

    width: int = 32

    def __post_init__(self):
        object.__setattr__(self, "text", f"f{self.width}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype({16: np.float16, 32: np.float32, 64: np.float64}[self.width])


@dataclass(frozen=True, eq=False)
class MemRefType(Type):
    """A ranked memref: shape, element type and optional memory space.

    ``memory_space`` 0 is global memory; 3 marks GPU shared (workgroup)
    memory, matching the convention of the MLIR ``gpu`` dialect examples.
    """

    shape: tuple
    element_type: Type = None  # type: ignore[assignment]
    memory_space: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        if self.element_type is None:
            object.__setattr__(self, "element_type", FloatType(32))
        dims = "x".join(["?" if d is None else str(d) for d in self.shape])
        space = f", {self.memory_space}" if self.memory_space else ""
        object.__setattr__(self, "text", f"memref<{dims}x{self.element_type.text}{space}>")

    @property
    def num_elements(self) -> int:
        total = 1
        for d in self.shape:
            if d is None:
                raise ValueError("dynamic memref shapes have no static element count")
            total *= d
        return total


F32 = FloatType(32)
F16 = FloatType(16)
I32 = IntType(32)
INDEX = IndexType()
