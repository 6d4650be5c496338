"""Golden-kernel artifact generation shared by the golden test and its regenerator.

``build_artifacts`` produces a name -> source-text mapping covering every
backend (Triton, CUDA, MLIR) and the four applications the acceptance
criteria call out (matmul, NW, LUD, stencil).  The checked-in files under
``tests/golden/`` were produced from the pre-refactor expression engine;
``tests/test_golden_kernels.py`` asserts the current engine reproduces them
byte for byte.

Regenerate (only when an *intentional* output change lands) with::

    PYTHONPATH=src python tests/golden_kernels.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_kernel_paths() -> list[Path]:
    """The kernel-text goldens (the directory also holds ``vm_reference.json``,
    the executor's pinned runs, which ``tests/test_vm.py`` checks)."""
    return sorted(GOLDEN_DIR.glob("*.txt"))


def build_artifacts() -> dict[str, str]:
    from repro.apps import grouped_gemm, layernorm, lud, matmul, nw, softmax, stencil
    from repro.codegen import CodegenContext
    from repro.codegen.mlir import generate_transpose_module
    from repro.symbolic import PythonPrinter, Var

    artifacts: dict[str, str] = {}

    # Triton backend
    for variant in ("nn", "tn"):
        artifacts[f"matmul_{variant}.triton.txt"] = matmul.generate_matmul_kernel(variant).source
    artifacts["grouped_gemm.triton.txt"] = grouped_gemm.generate_grouped_gemm_kernel().source
    artifacts["softmax.triton.txt"] = softmax.generate_softmax_kernel().source
    artifacts["layernorm_fwd.triton.txt"] = layernorm.generate_layernorm_forward().source
    artifacts["layernorm_bwd.triton.txt"] = layernorm.generate_layernorm_backward().source

    # CUDA backend
    artifacts["nw_accessor.cuda.txt"] = nw.generate_nw_wrapper(16)
    artifacts["lud_internal_b64.cuda.txt"] = lud.generate_lud_internal_kernel(
        lud.LudConfig(1024, 64, 16)
    ).source

    # MLIR backend
    for variant in ("naive", "smem"):
        artifacts[f"transpose_{variant}.mlir.txt"] = generate_transpose_module(
            2048, 32, variant
        ).text

    # Stencil brick layout: lower the brick offset expression symbolically.
    layout = stencil.brick_layout(512, 8)
    i, j, k = Var("i"), Var("j"), Var("k")
    ctx = CodegenContext(name="stencil_brick")
    for var in (i, j, k):
        ctx.index(var, 512)
    ctx.bind("brick_offset", layout.apply(i, j, k))
    rendered = {name: b.render(PythonPrinter()) for name, b in ctx.lower().items()}
    artifacts["stencil_brick_offset.txt"] = rendered["brick_offset"] + "\n"

    return artifacts


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in build_artifacts().items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {GOLDEN_DIR / name}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_goldens()
    else:
        print(__doc__)
