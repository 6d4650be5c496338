"""Core IR objects: modules, functions, blocks, operations, SSA values.

The structure follows MLIR closely enough that the printer's output reads as
MLIR and the verifier can enforce the usual SSA rules:

* a :class:`Module` holds a list of :class:`FuncOp`;
* a :class:`FuncOp` (``func.func`` or ``gpu.func``) has typed block arguments
  and a single :class:`Block` body (the subset we emit never branches);
* a :class:`Operation` has a dialect-qualified name, operand values, result
  values, attributes, and optionally nested regions (used by ``scf.for``);
* :class:`OpBuilder` appends operations to a block and hands out fresh SSA
  names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .types import Type

__all__ = ["Value", "Operation", "Block", "Region", "FuncOp", "Module", "OpBuilder"]


class Value:
    """An SSA value: a name and a type.

    The operation whose ``results`` hold it (or the block whose ``arguments``
    do) defines it.  A value keeps no pointer back: one would make every
    module a reference cycle that only the cyclic collector frees.
    """

    __slots__ = ("name", "type", "is_block_arg")

    def __init__(self, name: str, type: Type, is_block_arg: bool = False):
        self.name = name
        self.type = type
        self.is_block_arg = is_block_arg

    def __str__(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"%{self.name}: {self.type}"


class Operation:
    """One operation: ``results = name(operands) {attributes}``.

    The containers are the ones passed in (an omitted one is a fresh empty
    list or dict), so code that rewrites a module edits them in place.
    """

    __slots__ = ("name", "operands", "results", "attributes", "regions")

    def __init__(self, name: str, operands: list[Value] | None = None, results: list[Value] | None = None,
                 attributes: dict[str, object] | None = None, regions: list["Region"] | None = None):
        self.name = name
        self.operands = [] if operands is None else operands
        self.results = [] if results is None else results
        self.attributes = {} if attributes is None else attributes
        self.regions = [] if regions is None else regions

    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise ValueError(f"operation {self.name} has {len(self.results)} results")
        return self.results[0]

    def __repr__(self) -> str:
        results = ", ".join(str(r) for r in self.results)
        operands = ", ".join(str(o) for o in self.operands)
        prefix = f"{results} = " if results else ""
        return f"{prefix}{self.name}({operands})"


@dataclass(eq=False)
class Block:
    """A straight-line block of operations with typed arguments."""

    arguments: list[Value] = field(default_factory=list)
    operations: list[Operation] = field(default_factory=list)

    def add_argument(self, name: str, type: Type) -> Value:
        value = Value(name=name, type=type, is_block_arg=True)
        self.arguments.append(value)
        return value

    def __iter__(self):
        return iter(self.operations)


@dataclass(eq=False)
class Region:
    """A region: a list of blocks (we only ever use single-block regions)."""

    blocks: list[Block] = field(default_factory=list)

    @property
    def entry(self) -> Block:
        if not self.blocks:
            self.blocks.append(Block())
        return self.blocks[0]


@dataclass(eq=False)
class FuncOp:
    """A function-like operation (``func.func`` or ``gpu.func``)."""

    name: str
    arguments: list[Value] = field(default_factory=list)
    result_types: list[Type] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    kind: str = "func.func"  # or "gpu.func"
    attributes: dict[str, object] = field(default_factory=dict)

    def argument(self, index: int) -> Value:
        return self.arguments[index]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.arguments)
        return f"{self.kind} @{self.name}({args})"


@dataclass(eq=False)
class Module:
    """A top-level module holding functions and module-level attributes."""

    functions: list[FuncOp] = field(default_factory=list)
    attributes: dict[str, object] = field(default_factory=dict)

    def add_function(self, func: FuncOp) -> FuncOp:
        self.functions.append(func)
        return func

    def get_function(self, name: str) -> FuncOp:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r} in module")

    def __iter__(self):
        return iter(self.functions)


class OpBuilder:
    """Appends operations to a block and manages SSA value names."""

    def __init__(self, block: Block, name_prefix: str = "v"):
        self.block = block
        self._prefix = name_prefix
        self._counter = itertools.count()
        #: ``arith.constant`` results deduplicated within the block,
        #: keyed ``("const", type text, value)``
        self.constants: dict[tuple, Value] = {}

    def fresh_name(self, hint: str | None = None) -> str:
        return f"{hint or self._prefix}{next(self._counter)}"

    def insert(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Mapping[str, object] | None = None,
        regions: Iterable[Region] = (),
        result_hint: str | None = None,
    ) -> Operation:
        """Create an operation, append it to the block and return it.

        The operands, attributes and regions are copied into fresh containers
        (an empty one is not copied), and each result type gets a fresh name.
        """
        op = Operation(name, list(operands) if operands else [], [],
                       dict(attributes) if attributes else {}, list(regions) if regions else [])
        hint = result_hint or self._prefix
        for result_type in result_types:
            op.results.append(Value(f"{hint}{next(self._counter)}", result_type))
        self.block.operations.append(op)
        return op

    def at_block(self, block: Block) -> "OpBuilder":
        """A builder inserting into ``block`` but sharing this builder's names."""
        child = OpBuilder.__new__(OpBuilder)
        child.block = block
        child._prefix = self._prefix
        child._counter = self._counter
        child.constants = {}
        return child
