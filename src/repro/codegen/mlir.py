"""End-to-end MLIR code generation (Section IV-B of the paper).

LEGO layouts are lowered to symbolic index expressions, simplified under
their range assumptions, and then emitted as ``arith`` operations inside a
``gpu.func`` built with the :mod:`repro.mlir` builder.  The demonstration
application is the paper's 2-D transpose (Table V):

* ``naive`` — every thread reads ``in[i, j]`` and writes ``out[j, i]``
  directly from/to global memory; the write is uncoalesced;
* ``smem`` — the tile is staged through workgroup (shared) memory so that
  both the global read and the global write are coalesced; the shared tile
  uses a LEGO *skewed* layout (a ``GenP``) that removes bank conflicts on the
  transposed read.

Both variants are generated from the same kernel structure; only the layouts
differ — the paper's "change the layout, not the code" claim.

The MLIR path is a :class:`~repro.codegen.backend.Backend` like Triton and
CUDA: a "template" here is a *module builder* callable that receives the
lowered index expressions and returns the constructed module, and unbound
names raise the same named ``ValueError`` as the template backends (via the
shared validation helper) instead of a bare ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core import GenP, GroupBy, Row
from ..mlir.dialects import arith, build_gpu_module, gpu, memref
from ..mlir.ir import Module, OpBuilder, Value
from ..mlir.printer import print_module
from ..mlir.types import F32, INDEX, MemRefType
from ..mlir.verifier import verify_module
from ..symbolic import Const, Expr, FloorDiv, Max, Min, Mod, Mul, Var, as_expr
from ..symbolic.expr import Add
from .backend import Backend, GeneratedKernel, get_backend, register_backend, validate_bound
from .context import CodegenContext, KernelFamily

__all__ = [
    "MlirKernel",
    "MlirBackend",
    "lower_expr_to_ops",
    "skewed_tile_layout",
    "generate_transpose_module",
]


@dataclass
class MlirKernel(GeneratedKernel):
    """A generated MLIR module plus its metadata."""

    module: Module | None = None
    kernel_names: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        """The printed module text (alias of :attr:`source`)."""
        return self.source


def lower_expr_to_ops(
    builder: OpBuilder,
    expr: Expr,
    values: dict[str, Value],
    kernel_name: str = "kernel",
) -> Value:
    """Emit ``arith`` operations computing ``expr`` and return the result value.

    ``values`` maps variable names to already-available SSA values (thread
    ids, block ids, loop induction variables, ...).  Constants are
    deduplicated through the builder's constant cache.  Symbolic variables
    without an SSA value raise the same named ``ValueError`` (kernel name +
    missing-name list) as unbound template placeholders on the Triton/CUDA
    paths.
    """
    expr = as_expr(expr)
    validate_bound(kernel_name, sorted(expr.free_vars()), values, what="SSA values")
    return _lower_validated(builder, expr, values)


def _lower_validated(builder: OpBuilder, expr: Expr, values: dict[str, Value]) -> Value:
    lower = _LOWERING.get(type(expr))
    if lower is None:
        raise NotImplementedError(f"cannot lower expression node {type(expr).__name__} to MLIR")
    return lower(builder, expr, values)


def _folded(name: str):
    """Lower an n-ary node as the left fold of ``arith.<name>`` over its arguments."""
    op_name = f"arith.{name}"

    def lower(builder: OpBuilder, expr: Expr, values: dict[str, Value]) -> Value:
        args = expr.args
        result = _lower_validated(builder, args[0], values)
        for arg in args[1:]:
            rhs = _lower_validated(builder, arg, values)
            result = builder.insert(op_name, [result, rhs], [result.type]).result
        return result

    return lower


#: expression node type -> lowering; ``FloorDiv`` / ``Mod`` are the binary folds
#: of their two arguments (numerator, denominator / value, modulus)
_LOWERING = {
    Const: lambda builder, expr, values: arith.constant(builder, expr.value, INDEX),
    Var: lambda builder, expr, values: values[expr.name],
    Add: _folded("addi"),
    Mul: _folded("muli"),
    FloorDiv: _folded("divsi"),
    Mod: _folded("remsi"),
    Min: _folded("minsi"),
    Max: _folded("maxsi"),
}


@register_backend
class MlirBackend(Backend):
    """MLIR emission through the unified backend protocol.

    The ``template`` is a module-builder callable
    ``build(exprs: dict[str, Expr]) -> (Module, Sequence[str])`` receiving
    the lowered (simplified) index expression of every binding of the family
    member; the backend runs the builder, verifies the module and returns an
    :class:`MlirKernel` with the printed text.
    """

    name = "mlir"

    def generate(self, name: str, template: Callable[[dict[str, Expr]], tuple[Module, Sequence[str]]],
                 family: KernelFamily, **options) -> MlirKernel:
        if options:
            raise TypeError(f"mlir backend got unexpected options: {sorted(options)}")
        lowered = family.lower()
        module, kernel_names = template({bname: binding.expr for bname, binding in lowered.items()})
        verify_module(module)
        return MlirKernel(
            name=name,
            source=print_module(module),
            bindings=lowered,
            backend=self.name,
            generation_seconds=family.generation_seconds,
            proven_bounds=dict(family.proven_bounds),
            module=module,
            kernel_names=tuple(kernel_names),
        )


def skewed_tile_layout(tile: int) -> GroupBy:
    """A bank-conflict-free shared-memory layout for a ``tile x tile`` buffer.

    The skew ``(i, j) -> i * tile + (i + j) % tile`` is a bijection on the
    tile that places the elements of each *column* in distinct banks, so the
    transposed read out of shared memory is conflict-free.  The permutation
    functions are polymorphic: called with integers they evaluate concretely,
    called with symbolic variables they produce the index expression that the
    MLIR backend lowers.
    """

    def skew(i, j):
        return i * tile + (i + j) % tile

    def skew_inv(flat):
        i = flat // tile
        j = (flat % tile - i) % tile
        return (i, j)

    perm = GenP([tile, tile], skew, skew_inv, name=f"skew{tile}")
    return GroupBy([tile, tile]).OrderBy(perm)


def generate_transpose_module(n: int, tile: int = 32, variant: str = "smem",
                              skew: bool = True) -> MlirKernel:
    """Build the MLIR module for a 2-D ``n x n`` transpose kernel.

    ``variant`` is ``"naive"`` (direct global-to-global copy with uncoalesced
    writes) or ``"smem"`` (staged through a shared-memory tile so both global
    accesses are coalesced).  With ``skew`` (the default) the shared tile
    uses the bank-conflict-free skewed layout; without it the tile is plain
    row-major, which serialises the transposed read — the configuration knob
    the layout autotuner sweeps.  The index expressions for the global and
    shared buffers are derived from LEGO layouts and lowered once per
    ``(variant, skew)`` (:class:`~repro.codegen.KernelFamily`), then the
    module is built per ``(n, tile)`` through ``get_backend("mlir")``.
    """
    if variant not in ("naive", "smem"):
        raise ValueError(f"unknown transpose variant {variant!r}")
    lowered = KernelFamily.of(_transpose_context, variant, bool(skew)).specialise(N=n, T=tile)

    # -- module construction ------------------------------------------------------
    kernel_name = f"transpose_{variant}"

    def build(exprs: dict[str, Expr]) -> tuple[Module, tuple[str, ...]]:
        module = build_gpu_module(f"transpose_{variant}_{n}")
        buffer_type = MemRefType((n * n,), F32, memory_space=0)
        kernel = gpu.func(module, kernel_name, [buffer_type, buffer_type])
        builder = OpBuilder(kernel.body)

        values = {
            "tx": gpu.thread_id(builder, "x"),
            "ty": gpu.thread_id(builder, "y"),
            "bx": gpu.block_id(builder, "x"),
            "by": gpu.block_id(builder, "y"),
        }
        in_buffer, out_buffer = kernel.argument(0), kernel.argument(1)

        if variant == "naive":
            in_index = lower_expr_to_ops(builder, exprs["in_offset"], values, kernel_name)
            out_index = lower_expr_to_ops(builder, exprs["out_offset"], values, kernel_name)
            element = memref.load(builder, in_buffer, [in_index])
            memref.store(builder, element, out_buffer, [out_index])
        else:
            smem_type = MemRefType((tile * tile,), F32, memory_space=3)
            tile_buffer = memref.alloc(builder, smem_type)
            in_index = lower_expr_to_ops(builder, exprs["in_offset"], values, kernel_name)
            smem_write_index = lower_expr_to_ops(builder, exprs["smem_write"], values, kernel_name)
            element = memref.load(builder, in_buffer, [in_index])
            memref.store(builder, element, tile_buffer, [smem_write_index])
            gpu.barrier(builder)
            smem_read_index = lower_expr_to_ops(builder, exprs["smem_read"], values, kernel_name)
            out_index = lower_expr_to_ops(builder, exprs["out_offset"], values, kernel_name)
            staged = memref.load(builder, tile_buffer, [smem_read_index])
            memref.store(builder, staged, out_buffer, [out_index])
        gpu.return_(builder)
        return module, (kernel_name,)

    return get_backend("mlir").generate(kernel_name, build, lowered)


def _transpose_context(variant: str, skew: bool) -> CodegenContext:
    """The transpose's index expressions in the size symbols ``N`` and ``T``."""
    n, tile = Var("N"), Var("T")
    data_layout = GroupBy([n, n]).OrderBy(Row(n, n))
    smem_layout = skewed_tile_layout(tile) if skew else GroupBy([tile, tile]).OrderBy(Row(tile, tile))
    tx, ty, bx, by = Var("tx"), Var("ty"), Var("bx"), Var("by")
    # pre_expand="never" keeps the single simplify_fixpoint pass the MLIR
    # path has always used (and the golden files pin).
    ctx = CodegenContext(name=f"transpose_{variant}", pre_expand="never")
    ctx.size(n, tile)
    ctx.divisible(n, tile)
    ctx.index(tx, tile)
    ctx.index(ty, tile)
    ctx.index(bx, n // tile)
    ctx.index(by, n // tile)
    ctx.bind("in_offset", data_layout.apply(by * tile + ty, bx * tile + tx))
    if variant == "naive":
        ctx.bind("out_offset", data_layout.apply(bx * tile + tx, by * tile + ty))
    else:
        # coalesced write: the block writes the transposed tile row-by-row
        ctx.bind("out_offset", data_layout.apply(bx * tile + ty, by * tile + tx))
        ctx.bind("smem_write", smem_layout.apply(ty, tx))
        ctx.bind("smem_read", smem_layout.apply(tx, ty))
    return ctx
