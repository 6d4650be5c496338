"""CUDA template instantiation and layout wrapper emission.

Two integration styles from the paper's CUDA experiments:

* **template instantiation** — exactly like the Triton path but printed with
  C syntax (``/`` and ``%``); used when the kernel's index arithmetic is
  generated wholesale (LUD thread coarsening, transpose, bricks);
* **accessor wrapper** — for NW the paper keeps the original Rodinia kernel
  and only redirects its logical ``buff[i][j]`` accesses through a small
  wrapper class whose ``operator()`` evaluates the LEGO layout's ``apply``;
  :func:`generate_accessor_wrapper` emits that class, including the verbatim
  device function for a ``GenP`` (e.g. Figure 7's anti-diagonal).

The emitted CUDA source is used as a textual artifact (documentation,
inspection, golden tests); functional and performance evaluation run on the
Python CUDA execution model in :mod:`repro.minicuda`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.blocks import GroupBy
from ..core.perms import GenP
from ..symbolic import CPrinter
from .backend import GeneratedKernel, TemplateBackend, register_backend
from .context import CodegenContext

__all__ = ["CudaKernel", "CudaBackend", "generate_accessor_wrapper"]


@dataclass
class CudaKernel(GeneratedKernel):
    """A generated CUDA kernel: source text plus lowering metadata."""

    launch_bounds: dict[str, int] = field(default_factory=dict)


@register_backend
class CudaBackend(TemplateBackend):
    """Template instantiation printed with C syntax (``/`` and ``%``)."""

    name = "cuda"
    printer_cls = CPrinter
    kernel_cls = CudaKernel

    def kernel_kwargs(self, options: dict) -> dict:
        launch_bounds = options.pop("launch_bounds", None)
        super().kernel_kwargs(options)
        return {"launch_bounds": dict(launch_bounds or {})}


_WRAPPER_TEMPLATE = """\
{device_functions}
// LEGO-generated accessor: redirects logical {rank}-D accesses of `{name}`
// through the layout's apply() bijection.  Only the declaration and the
// accesses below change relative to the original kernel.
struct {struct_name} {{
    {scalar_type}* data;

    __device__ __forceinline__ {scalar_type}& operator()({args}) {{
        return data[{offset}];
    }}
}};
"""


def generate_accessor_wrapper(
    name: str,
    layout: GroupBy,
    scalar_type: str = "float",
    index_names: tuple[str, ...] | None = None,
) -> str:
    """Emit a CUDA wrapper struct that applies ``layout`` on every access.

    The wrapper overloads ``operator()`` so existing kernels only need their
    buffer declaration and accesses re-typed (the paper: "the definition of a
    small wrapper class for arrays and the modification of only two lines of
    the original code").  ``GenP`` blocks that carry ``c_source`` contribute
    their device function verbatim.
    """
    rank = layout.rank
    if index_names is None:
        index_names = tuple(f"i{k}" for k in range(rank))
    if len(index_names) != rank:
        raise ValueError(f"layout has rank {rank} but {len(index_names)} index names were given")

    context = CodegenContext(name=f"{name}_accessor")
    index_vars = []
    for axis, index_name in enumerate(index_names):
        extent = layout.dims()[axis]
        if isinstance(extent, int):
            index_vars.append(context.index(index_name, extent))
        else:
            index_vars.append(context.nonneg(index_name)[0])

    device_functions = []
    offset_text: str
    if _layout_uses_genp(layout):
        # GenP layouts are evaluated through their device function; emit the
        # function plus a call with the layout's tile geometry.
        genp = _first_genp(layout)
        if genp.c_source:
            device_functions.append(genp.c_source)
        offset_text = _genp_call_expression(layout, genp, index_names)
    else:
        context.bind("offset", layout.apply(*index_vars))
        lowered = context.lower()["offset"]
        offset_text = lowered.render(CPrinter())

    args = ", ".join(f"int {index_name}" for index_name in index_names)
    return _WRAPPER_TEMPLATE.format(
        device_functions="".join(device_functions),
        rank=rank,
        name=name,
        struct_name=f"Lego{name.capitalize()}",
        scalar_type=scalar_type,
        args=args,
        offset=offset_text,
    )


def _layout_uses_genp(layout: GroupBy) -> bool:
    return any(isinstance(p, GenP) for ob in layout.order_bys for p in ob.perms)


def _first_genp(layout: GroupBy) -> GenP:
    for order_by in layout.order_bys:
        for perm in order_by.perms:
            if isinstance(perm, GenP):
                return perm
    raise ValueError("layout has no GenP block")


def _genp_call_expression(layout: GroupBy, genp: GenP, index_names: tuple[str, ...]) -> str:
    """A C expression calling the GenP device function on the logical indices.

    Supported for the accessor pattern used by the paper's NW benchmark: a
    square tile reordered by a single GenP over the whole logical space.
    """
    dims = genp.dims()
    if len(dims) != len(index_names):
        raise ValueError(
            "accessor emission for GenP layouts requires the GenP to cover the whole logical view"
        )
    size_text = str(dims[0])
    fn_name = genp.c_source.split("(")[0].split()[-1] if genp.c_source else genp.name
    return f"{fn_name}({size_text}, {', '.join(index_names)})"
