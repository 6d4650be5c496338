"""Needleman-Wunsch: remove shared-memory bank conflicts by changing one layout.

Runs the blocked NW kernel on the mini-CUDA substrate twice — once with the
original row-major shared buffer and once with the paper's anti-diagonal
layout (Figure 7 / Equation 2) — verifies both against the sequential dynamic
program, and reports the measured bank-conflict factors plus the estimated
end-to-end speedup for realistic problem sizes (Figure 12a).

Run with ``python examples/nw_bank_conflicts.py``.
"""

import numpy as np

from repro.apps import nw


def main() -> None:
    config = nw.NwConfig(n=128, block=16, penalty=10)
    rng = np.random.default_rng(0)
    reference = rng.integers(-4, 5, size=(config.n, config.n)).astype(np.int32)
    gold = nw.nw_reference(reference, config.penalty)

    score_row, trace_row = nw.run_nw_blocked(reference, config, layout=None)
    antidiag = nw.antidiagonal_buffer_layout(config.block)
    score_anti, trace_anti = nw.run_nw_blocked(reference, config, layout=antidiag)

    print("correct (row-major buffer):   ", np.array_equal(score_row, gold))
    print("correct (anti-diagonal buffer):", np.array_equal(score_anti, gold))
    print(f"bank-conflict factor, row-major:     {trace_row.bank_conflict_factor:.2f}")
    print(f"bank-conflict factor, anti-diagonal: {trace_anti.bank_conflict_factor:.2f}")

    print("\nEstimated end-to-end speedup from the layout change (Figure 12a):")
    for n in (2048, 4096, 8192, 16384):
        result = nw.nw_speedup(n, block=16)
        print(f"  n = {n:>6d}: {result['speedup']:.2f}x")

    print("\nCUDA accessor wrapper LEGO emits for the original Rodinia kernel:\n")
    print(nw.generate_nw_wrapper(config.block))


if __name__ == "__main__":
    main()
