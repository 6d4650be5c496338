"""Textual form of the mini MLIR IR (generic op syntax, MLIR-flavoured).

The printer makes one pass: every operation appends one line, built by one
f-string over list joins of its values' names and its types' printed-once
``text``, to the list the whole module is joined from.
"""

from __future__ import annotations

from operator import attrgetter

from .ir import Block, FuncOp, Module, Operation

__all__ = ["print_module"]

_INDENT = "  "
_NAME = attrgetter("name")
_TYPE_TEXT = attrgetter("type.text")


def _format_attr(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


def _format_attrs(attributes: dict[str, object]) -> str:
    if len(attributes) == 1:
        ((key, value),) = attributes.items()
        return f"{key} = {_format_attr(value)}"
    return ", ".join([f"{k} = {_format_attr(v)}" for k, v in sorted(attributes.items())])


def _emit_operation(op: Operation, pad: str, lines: list[str]) -> None:
    results, operands = op.results, op.operands
    arguments = "%" + ", %".join(map(_NAME, operands)) if operands else ""
    attrs = f" {{{_format_attrs(op.attributes)}}}" if op.attributes else ""
    if len(results) == 1:
        result = results[0]
        lines.append(f"{pad}%{result.name} = {op.name}({arguments}){attrs} : {result.type.text}")
    elif results:
        names, types = ", %".join(map(_NAME, results)), ", ".join(map(_TYPE_TEXT, results))
        lines.append(f"{pad}%{names} = {op.name}({arguments}){attrs} : {types}")
    else:
        types = " : " + ", ".join(map(_TYPE_TEXT, operands)) if operands else ""
        lines.append(f"{pad}{op.name}({arguments}){attrs}{types}")
    if op.regions:
        inner = pad + _INDENT
        for region in op.regions:
            lines.append(pad + "{")
            for block in region.blocks:
                _emit_block(block, inner, lines)
            lines.append(pad + "}")


def _emit_block(block: Block, pad: str, lines: list[str]) -> None:
    if not block.arguments and not block.operations:
        lines.append("")  # an empty block is an empty line
    elif block.arguments:
        args = ", ".join([f"%{a.name}: {a.type.text}" for a in block.arguments])
        lines.append(f"{pad}^bb0({args}):")
    for op in block.operations:
        _emit_operation(op, pad, lines)


def _emit_function(fn: FuncOp, pad: str, lines: list[str]) -> None:
    args = ", ".join([f"%{a.name}: {a.type.text}" for a in fn.arguments])
    results = " -> (" + ", ".join([t.text for t in fn.result_types]) + ")" if fn.result_types else ""
    attrs = f" attributes {{{_format_attrs(fn.attributes)}}}" if fn.attributes else ""
    lines.append(f"{pad}{fn.kind} @{fn.name}({args}){results}{attrs} {{")
    inner = pad + _INDENT
    for op in fn.body.operations:
        _emit_operation(op, inner, lines)
    lines.append(pad + "}")


def print_module(module: Module) -> str:
    attrs = f" attributes {{{_format_attrs(module.attributes)}}}" if module.attributes else ""
    lines = [f"module{attrs} {{"]
    for fn in module.functions:
        _emit_function(fn, _INDENT, lines)
    lines.append("}")
    return "\n".join(lines)
