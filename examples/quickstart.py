"""Quickstart: define LEGO layouts, inspect them, and lower them to index code.

Run with ``python examples/quickstart.py``.  Walks through the paper's
Figure 2 and Figure 6 examples, then lowers a tiled data layout to the
symbolic index expression a Triton kernel would use.
"""

import numpy as np

from repro import GroupBy, RegP, Row, TileBy, Var, antidiagonal, reverse_permutation
from repro.codegen import CodegenContext
from repro.symbolic import TritonPrinter


def figure2() -> None:
    """The 6x4 logical view, tiled (2x2)x(3x2), transposed and reversed."""
    layout = GroupBy([6, 4]).OrderBy(RegP([2, 2], [2, 1]), reverse_permutation(3, 2))
    print("Figure 2 layout:", layout)
    print("  apply([4, 1]) =", layout.apply(4, 1), "(the paper's element 17 lands at 6)")
    print("  inv(6)        =", layout.inv(6))
    print("  physical view (value = logical flat index stored at that position):")
    print(layout.physical_matrix(6, 4))
    print()


def figure6() -> None:
    """The 6x6 view: 2x2 grid of 3x3 blocks, transposed grid, anti-diagonal blocks."""
    layout = (
        GroupBy([6, 6])
        .OrderBy(RegP([2, 3, 2, 3], [1, 3, 2, 4]))
        .OrderBy(RegP([2, 2], [2, 1]), antidiagonal(3))
    )
    print("Figure 6 layout:", layout)
    print("  apply([4, 2]) =", layout.apply(4, 2), "(the paper's element 26 lands at 15)")
    print("  inv(15)       =", layout.inv(15))
    print("  bijective?    ", layout.verify())
    print()


def lower_a_data_layout() -> None:
    """Lower the Figure 1 data layout of matrix A to its index expression."""
    M, K, BM, BK = Var("M"), Var("K"), Var("BM"), Var("BK")
    pid_m, k = Var("pid_m"), Var("k")

    ctx = CodegenContext("quickstart")
    ctx.size(M, K, BM, BK)
    ctx.index(pid_m, M // BM)
    ctx.index(k, K // BK)
    ctx.divisible(M, BM)
    ctx.divisible(K, BK)

    data_layout = TileBy([M // BM, K // BK], [BM, BK]).OrderBy(Row(M, K))
    ctx.bind("a_tile_offset", data_layout[pid_m, k, :, :])

    binding = ctx.lower()["a_tile_offset"]
    print("Data layout of A:", data_layout)
    print("  lowered offset:", binding.render(TritonPrinter))
    print(f"  arithmetic ops: {binding.ops} (raw lowering had {binding.raw_ops})")
    print()


if __name__ == "__main__":
    figure2()
    figure6()
    lower_a_data_layout()
