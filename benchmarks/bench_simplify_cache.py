"""Simplify throughput and cache hit-rate on real layout index expressions.

Exercises the memoised rewrite engine on the index expressions the matmul,
NW and LUD applications actually lower (the Tables III/IV hot path):

* **cold** — every expression simplified on an empty memo table
  (``clear_memos()`` first: the pre-refactor behaviour on every pass);
* **warm** — the same expressions re-simplified under the same facts, which
  the hash-consed IR and the process-wide table turn into fixpoint lookups.

The warm/cold ratio and the fixpoint-cache hit rate are what the interning +
memoisation refactor bought; the assertions pin both so a regression that
silently disables a cache layer fails loudly.

Reference numbers from the machine this refactor was developed on (same
workloads, before vs after the hash-consed IR landed):

===============================  ==========  ==========
metric                           before      after
===============================  ==========  ==========
kernel generation (3 apps)       0.77 s      0.030 s
``figures.table3()``             1.34 s      0.065 s
full tier-1 test suite           11.4 s      ~5 s
===============================  ==========  ==========
"""

import time

from repro.apps import lud, matmul
from repro.codegen import CodegenContext
from repro.core.slicing import LayoutSlice
from repro.obs import REGISTRY
from repro.symbolic import (
    CACHE_PREFIX,
    SymbolicEnv,
    as_expr,
    cache_statistics,
    clear_memos,
    simplify_fixpoint,
)


def _index_expressions() -> list[tuple[object, SymbolicEnv]]:
    """(raw index expression, populated environment) pairs for 3 applications."""
    pairs: list[tuple[object, SymbolicEnv]] = []

    # matmul: every binding of the "nn" lowering context
    ctx = matmul.build_matmul_context("nn")
    for value in ctx._bindings.values():
        if isinstance(value, LayoutSlice):
            value.contribute_env(ctx.env)
            pairs.append((value.offset, ctx.env))
        else:
            pairs.append((as_expr(value), ctx.env))

    # NW-style anti-diagonal staging: the wavefront buffer index arithmetic
    # (the real NW layout is a GenP device function, so its symbolic content
    # is this addressing pattern rather than a layout.apply lowering)
    b = 16
    nw_ctx = CodegenContext(name="nw_bench")
    i0 = nw_ctx.index("i0", b)
    i1 = nw_ctx.index("i1", b)
    wave = i0 + i1
    nw_expr = (wave % (2 * b - 1)) * b + (wave * b + i0) % b
    pairs.append((as_expr(nw_expr), nw_ctx.env))

    # LUD: the coarsened thread layout's element offset
    lud_layout = lud.coarsened_thread_layout(64, 16)
    lud_ctx = CodegenContext(name="lud_bench")
    r_i = lud_ctx.index("r_i", 4)
    r_j = lud_ctx.index("r_j", 4)
    ty = lud_ctx.index("ty", 16)
    tx = lud_ctx.index("tx", 16)
    pairs.append((as_expr(lud_layout.apply(r_i, r_j, ty, tx)), lud_ctx.env))

    return pairs


def _simplify_all(pairs, cold: bool = False) -> float:
    if cold:
        clear_memos()  # the table is process-wide: "cold" means emptied, not a new env
    started = time.perf_counter()
    for expr, env in pairs:
        simplify_fixpoint(expr, env)
    return time.perf_counter() - started


def test_simplify_cache_throughput(benchmark, report_rows):
    from repro.bench.harness import ExperimentResult

    pairs = _index_expressions()

    # cold: an emptied memo table every round
    cold_seconds = min(_simplify_all(pairs, cold=True) for _ in range(3))

    # warm: same facts => fixpoint hits
    _simplify_all(pairs)  # populate
    before = cache_statistics()
    warm_seconds = benchmark.pedantic(lambda: _simplify_all(pairs), rounds=3, iterations=1)
    delta = REGISTRY.delta(before, cache_statistics())
    hits = delta[CACHE_PREFIX + "fixpoint_hits"]
    fixpoint_hit_rate = hits / (hits + delta[CACHE_PREFIX + "fixpoint_misses"])

    rows = [
        {
            "workload": "matmul+NW+LUD index expressions",
            "expressions": len(pairs),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
            "fixpoint_hit_rate": fixpoint_hit_rate,
        }
    ]
    report_rows["Simplify cache"] = ExperimentResult(
        experiment="Simplify cache",
        description="Memoised rewrite engine throughput: cold vs warm environments",
        rows=rows,
    )

    assert fixpoint_hit_rate > 0.9, "warm re-simplification should hit the fixpoint cache"
    assert warm_seconds * 5 < cold_seconds, "warm path should be >=5x faster than cold"
