"""The two block front ends run on one block runtime.

A generated MLIR transpose interpreted by :func:`repro.mlir.run_gpu_kernel`
and a mini-CUDA kernel that evaluates the same rendered index expressions
(:meth:`~repro.codegen.backend.GeneratedKernel.rendered_expressions`) over
``ctx.tx`` / ``ctx.blockIdx`` must write the same output and record the same
counters: both are accesses of :mod:`repro.vm.arrays` on a
:class:`~repro.vm.blocks.BlockContext`.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps.transpose import TransposeConfig, generate_transpose_module
from repro.gpusim.sharedmem import AccessLog
from repro.minicuda import GlobalArray, launch
from repro.mlir import run_gpu_kernel

#: the fields of the block-trace base both front ends' traces share
_SHARED_FIELDS = [f.name for f in dataclasses.fields(AccessLog)] + [
    "blocks", "threads_per_block", "smem_per_block"]


def _minicuda_transpose(expressions, variant, tile):
    """The transpose as a mini-CUDA kernel over the rendered expressions."""

    def at(ctx, name):
        env = {"tx": ctx.tx, "ty": ctx.ty, "bx": ctx.blockIdx.x, "by": ctx.blockIdx.y}
        return eval(expressions[name], {"__builtins__": {}}, env)

    def kernel(ctx, source, out):
        element = source.load(ctx, at(ctx, "in_offset"))
        if variant == "smem":
            staged = ctx.shared_array((tile * tile,), dtype=np.float32, name="tile")
            staged.store(element, at(ctx, "smem_write"))
            ctx.syncthreads()
            element = staged.load(at(ctx, "smem_read"))
        out.store(ctx, element, at(ctx, "out_offset"))

    return kernel


@pytest.mark.parametrize("variant, skew", [("naive", False), ("naive", True),
                                           ("smem", False), ("smem", True)])
@pytest.mark.parametrize("n, tile", [(16, 4), (64, 8), (128, 16)])
def test_mlir_transpose_equals_the_minicuda_kernel_of_its_expressions(variant, skew, n, tile):
    kernel = generate_transpose_module(n, tile, variant, skew=skew)
    config = TransposeConfig(n=n, tile=tile)
    source = np.random.default_rng(n + tile).standard_normal(n * n).astype(np.float32)

    mlir_out = np.zeros_like(source)
    result = run_gpu_kernel(kernel.module, kernel.kernel_names[0], config.grid(),
                            config.block(), [source, mlir_out])

    cuda_source, cuda_out = GlobalArray(source, name="in"), GlobalArray(np.zeros_like(source),
                                                                        name="out")
    trace = launch(_minicuda_transpose(kernel.rendered_expressions(), variant, tile),
                   config.grid(), config.block(), args=(cuda_source, cuda_out))

    np.testing.assert_array_equal(cuda_out.to_numpy(), mlir_out)
    np.testing.assert_array_equal(mlir_out.reshape(n, n), source.reshape(n, n).T)
    assert (result.smem_bytes > 0) == (variant == "smem")
    for name in _SHARED_FIELDS:
        assert getattr(trace, name) == getattr(result, name), name
    assert trace.smem_bytes == result.smem_bytes
    assert trace.smem_profile == result.smem_profile
    assert trace.bank_conflict_factor == result.bank_conflict_factor
