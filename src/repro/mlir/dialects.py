"""Dialect op constructors: ``arith``, ``memref``, ``gpu``, ``scf``, ``func``.

Each helper wraps :meth:`repro.mlir.ir.OpBuilder.insert` with the operand and
result types of the corresponding MLIR operation, so emission code reads like
MLIR builder code:

    c0 = arith.constant(b, 0)
    tid = gpu.thread_id(b, "x")
    value = memref.load(b, buffer, [row, col])
"""

from __future__ import annotations

from typing import Sequence

from .ir import Block, FuncOp, Module, OpBuilder, Operation, Region, Value
from .types import F32, INDEX, FloatType, IndexType, IntType, MemRefType, Type

__all__ = ["arith", "memref", "gpu", "scf", "func", "build_gpu_module"]


class arith:
    """Constructors for the ``arith`` dialect subset."""

    @staticmethod
    def constant(builder: OpBuilder, value: int | float, type: Type = INDEX) -> Value:
        key = ("const", type.text, value)
        cached = builder.constants.get(key)
        if cached is None:
            cached = builder.constants[key] = builder.insert(
                "arith.constant", [], [type], {"value": value}, result_hint="c"
            ).result
        return cached

    @staticmethod
    def _binary(builder: OpBuilder, name: str, lhs: Value, rhs: Value) -> Value:
        return builder.insert(f"arith.{name}", [lhs, rhs], [lhs.type]).result

    @staticmethod
    def addi(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "addi", lhs, rhs)

    @staticmethod
    def subi(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "subi", lhs, rhs)

    @staticmethod
    def muli(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "muli", lhs, rhs)

    @staticmethod
    def divsi(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "divsi", lhs, rhs)

    @staticmethod
    def remsi(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "remsi", lhs, rhs)

    @staticmethod
    def minsi(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "minsi", lhs, rhs)

    @staticmethod
    def maxsi(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "maxsi", lhs, rhs)

    @staticmethod
    def addf(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "addf", lhs, rhs)

    @staticmethod
    def mulf(builder: OpBuilder, lhs: Value, rhs: Value) -> Value:
        return arith._binary(builder, "mulf", lhs, rhs)

    @staticmethod
    def cmpi(builder: OpBuilder, predicate: str, lhs: Value, rhs: Value) -> Value:
        return builder.insert(
            "arith.cmpi", [lhs, rhs], [IntType(1)], {"predicate": predicate}
        ).result

    @staticmethod
    def select(builder: OpBuilder, cond: Value, true_value: Value, false_value: Value) -> Value:
        return builder.insert(
            "arith.select", [cond, true_value, false_value], [true_value.type]
        ).result

    @staticmethod
    def index_cast(builder: OpBuilder, value: Value, type: Type = INDEX) -> Value:
        return builder.insert("arith.index_cast", [value], [type]).result


class memref:
    """Constructors for the ``memref`` dialect subset."""

    @staticmethod
    def alloc(builder: OpBuilder, type: MemRefType) -> Value:
        return builder.insert("memref.alloc", [], [type], result_hint="buf").result

    @staticmethod
    def load(builder: OpBuilder, source: Value, indices: Sequence[Value]) -> Value:
        if not isinstance(source.type, MemRefType):
            raise TypeError(f"memref.load expects a memref operand, got {source.type}")
        return builder.insert(
            "memref.load", [source, *indices], [source.type.element_type]
        ).result

    @staticmethod
    def store(builder: OpBuilder, value: Value, dest: Value, indices: Sequence[Value]) -> Operation:
        if not isinstance(dest.type, MemRefType):
            raise TypeError(f"memref.store expects a memref operand, got {dest.type}")
        return builder.insert("memref.store", [value, dest, *indices], [])


class gpu:
    """Constructors for the ``gpu`` dialect subset."""

    DIMENSIONS = ("x", "y", "z")

    @staticmethod
    def _id(builder: OpBuilder, name: str, dimension: str) -> Value:
        if dimension not in gpu.DIMENSIONS:
            raise ValueError(f"gpu dimension must be one of {gpu.DIMENSIONS}, got {dimension!r}")
        return builder.insert(name, [], [INDEX], {"dimension": dimension}).result

    @staticmethod
    def thread_id(builder: OpBuilder, dimension: str) -> Value:
        return gpu._id(builder, "gpu.thread_id", dimension)

    @staticmethod
    def block_id(builder: OpBuilder, dimension: str) -> Value:
        return gpu._id(builder, "gpu.block_id", dimension)

    @staticmethod
    def block_dim(builder: OpBuilder, dimension: str) -> Value:
        return gpu._id(builder, "gpu.block_dim", dimension)

    @staticmethod
    def grid_dim(builder: OpBuilder, dimension: str) -> Value:
        return gpu._id(builder, "gpu.grid_dim", dimension)

    @staticmethod
    def barrier(builder: OpBuilder) -> Operation:
        return builder.insert("gpu.barrier", [], [])

    @staticmethod
    def func(module: Module, name: str, argument_types: Sequence[Type]) -> FuncOp:
        """Create a ``gpu.func`` kernel and add it to the module."""
        fn = FuncOp(name=name, kind="gpu.func", attributes={"gpu.kernel": True})
        for index, arg_type in enumerate(argument_types):
            value = Value(name=f"arg{index}", type=arg_type, is_block_arg=True)
            fn.arguments.append(value)
            fn.body.arguments.append(value)
        module.add_function(fn)
        return fn

    @staticmethod
    def return_(builder: OpBuilder) -> Operation:
        return builder.insert("gpu.return", [], [])


class scf:
    """Constructors for the ``scf`` dialect subset (structured control flow)."""

    @staticmethod
    def for_(
        builder: OpBuilder,
        lower: Value,
        upper: Value,
        step: Value,
    ) -> tuple[Operation, OpBuilder, Value]:
        """Create ``scf.for`` and return (op, body builder, induction variable)."""
        body = Block()
        induction = body.add_argument(builder.fresh_name("iv"), INDEX)
        region = Region(blocks=[body])
        op = builder.insert("scf.for", [lower, upper, step], [], regions=[region])
        return op, builder.at_block(body), induction

    @staticmethod
    def yield_(builder: OpBuilder) -> Operation:
        return builder.insert("scf.yield", [], [])


class func:
    """Constructors for the ``func`` dialect subset."""

    @staticmethod
    def func(module: Module, name: str, argument_types: Sequence[Type], result_types: Sequence[Type] = ()) -> FuncOp:
        fn = FuncOp(name=name, kind="func.func", result_types=list(result_types))
        for index, arg_type in enumerate(argument_types):
            value = Value(name=f"arg{index}", type=arg_type, is_block_arg=True)
            fn.arguments.append(value)
            fn.body.arguments.append(value)
        module.add_function(fn)
        return fn

    @staticmethod
    def return_(builder: OpBuilder, values: Sequence[Value] = ()) -> Operation:
        return builder.insert("func.return", list(values), [])


def build_gpu_module(name: str = "lego_module") -> Module:
    """A module pre-tagged as containing GPU kernels."""
    return Module(attributes={"gpu.container_module": True, "sym_name": name})
