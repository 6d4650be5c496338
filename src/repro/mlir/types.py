"""MLIR-style types for the mini IR: index, integers, floats, memrefs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Type", "IndexType", "IntType", "FloatType", "MemRefType", "F32", "F16", "I32", "INDEX"]


class Type:
    """Base class of IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return str(self)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


class IndexType(Type):
    """The MLIR ``index`` type."""

    def __str__(self) -> str:
        return "index"


@dataclass(frozen=True, eq=False)
class IntType(Type):
    """Signless integer type ``iN``."""

    width: int = 32

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True, eq=False)
class FloatType(Type):
    """Floating-point type ``f16`` / ``f32`` / ``f64``."""

    width: int = 32

    def __str__(self) -> str:
        return f"f{self.width}"

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

    def __str__(self) -> str:
        dims = "x".join("?" if d is None else str(d) for d in self.shape)
        space = f", {self.memory_space}" if self.memory_space else ""
        return f"memref<{dims}x{self.element_type}{space}>"

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
