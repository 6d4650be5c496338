"""Range-analysis benchmark: static proofs, guard elimination, generation time.

The ``range-smoke`` CI job runs this module (``python -m repro.symbolic.bench``)
to gate the range analysis on three observable outcomes:

* **LUD bijectivity is static** — every distinct kernel shape of the tuned
  LUD search space must discharge its ``element_offset`` bijectivity proof
  through the mixed-radix stride decomposition, with zero enumeration
  fallbacks; the enumeration cross-check must agree on every shape.
* **Guards are eliminated** — running the NW wavefront and the stencil sweep
  must bump ``repro.symbolic.guards_eliminated`` by at least one each (the
  wave-span and interior-block launches prove their masks redundant).
* **Generation stays fast** — the full LUD kernel-shape sweep, proofs
  included, must generate within a generous wall-clock bound so the analysis
  never becomes the slow part of search.

The report also carries the prover ladder's outcome table — how many
obligations were ``refuted`` at a witness valuation, how many proof-cache
misses each stage (``structure``, ``range``, ``expand``, ``facts``) discharged
while the gates ran — and the text of every obligation that abstained: those
are neither false at a witness nor proven, i.e. the prover's completeness gaps.

Writes ``BENCH_symbolic.json`` and exits nonzero when any gate fails.
"""

from __future__ import annotations

import json
import sys
import time

#: wall-clock ceiling for generating (and proving) every LUD kernel shape;
#: generous — shared CI runners are slow — but far below the minutes a
#: per-shape ``B^2`` enumeration sweep would cost at the large blocks
GENERATION_BUDGET_SECONDS = 30.0

#: enumeration cross-check ceiling: shapes up to this block size are cheap
#: to enumerate, larger ones rely on the (structural, exact) static proof
CROSS_CHECK_MAX_BLOCK = 64


def _lud_kernel_shapes() -> list[tuple[int, int]]:
    """Distinct ``(block, cuda_block)`` shapes of the tuned LUD space."""
    from ..apps.lud import app_spec

    spec = app_spec()
    shapes = sorted({
        (c["block"], c["cuda_block"])
        for c in spec.space
    })
    return shapes


def bench_lud_static_bijectivity() -> dict:
    """Gate 1: the whole LUD shape sweep proves bijectivity statically."""
    from ..apps.lud import (
        LudConfig,
        check_element_offsets,
        generate_lud_internal_kernel,
        prove_element_offset_bijection,
    )

    shapes = _lud_kernel_shapes()
    started = time.perf_counter()
    static, fallbacks, cross_checked = 0, [], 0
    for block, cuda_block in shapes:
        cfg = LudConfig(n=2 * block, block=block, cuda_block=cuda_block)
        kernel = generate_lud_internal_kernel(cfg)
        verdict = prove_element_offset_bijection(kernel, cfg)
        if verdict is True:
            static += 1
            if block <= CROSS_CHECK_MAX_BLOCK:
                check_element_offsets(kernel, cfg)  # enumeration must agree
                cross_checked += 1
        else:
            fallbacks.append({"block": block, "cuda_block": cuda_block, "verdict": verdict})
    elapsed = time.perf_counter() - started
    return {
        "shapes": len(shapes),
        "static_proofs": static,
        "fallbacks": fallbacks,
        "cross_checked": cross_checked,
        "generation_seconds": elapsed,
        "budget_seconds": GENERATION_BUDGET_SECONDS,
        "all_static": not fallbacks and static == len(shapes),
        "within_budget": elapsed <= GENERATION_BUDGET_SECONDS,
    }


def bench_guard_elimination() -> dict:
    """Gate 2: NW and stencil runs each eliminate at least one launch guard."""
    import numpy as np

    from ..apps import nw, stencil
    from ..obs.metrics import counter

    # fresh proofs: the per-shape proof caches would otherwise swallow the
    # counter increments this gate watches for
    nw._prove_wave_guard.cache_clear()
    stencil._prove_interior_span.cache_clear()
    eliminated = counter("repro.symbolic.guards_eliminated")
    rng = np.random.default_rng(0)

    before = eliminated.value
    cfg = nw.NwConfig(n=64, block=16)
    reference = rng.integers(-4, 5, size=(cfg.n, cfg.n)).astype(np.int32)
    nw.run_nw_blocked(reference, cfg, layout=nw.antidiagonal_buffer_layout(cfg.block))
    nw_eliminated = eliminated.value - before

    before = eliminated.value
    spec = stencil.STENCILS[0]
    grid = rng.standard_normal((16, 16, 16)).astype(np.float32)
    stencil.run_stencil(grid, spec, layout=stencil.brick_layout(16, 4), brick=4)
    stencil_eliminated = eliminated.value - before

    return {
        "nw_guards_eliminated": nw_eliminated,
        "stencil_guards_eliminated": stencil_eliminated,
        "nw_ok": nw_eliminated >= 1,
        "stencil_ok": stencil_eliminated >= 1,
    }


def _ladder_counts() -> dict[str, int]:
    """The prover's per-stage discharge counters, zeros included."""
    from .prover import LADDER_STAGES
    from .stats import CACHE_STATS

    counts = CACHE_STATS.rule_applications
    return {stage: counts.get("ladder:" + stage, 0) for stage in LADDER_STAGES}


def run() -> dict:
    """Run every gate and assemble the report."""
    from .. import __version__
    from .prover import record_proof_queries

    ladder_before = _ladder_counts()
    with record_proof_queries() as queries:
        lud = bench_lud_static_bijectivity()
        guards = bench_guard_elimination()
    ladder = {
        stage: count - ladder_before[stage] for stage, count in _ladder_counts().items()
    }
    ok = (
        lud["all_static"]
        and lud["within_budget"]
        and guards["nw_ok"]
        and guards["stencil_ok"]
    )
    return {
        "version": __version__,
        "lud_bijectivity": lud,
        "guard_elimination": guards,
        "prover_ladder": ladder,
        "abstentions": sorted({text for kind, text, _ in queries if kind == "abstain"}),
        "ok": ok,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else "BENCH_symbolic.json"
    report = run()
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
    lud, guards = report["lud_bijectivity"], report["guard_elimination"]
    print(
        f"lud: {lud['static_proofs']}/{lud['shapes']} shapes static "
        f"({lud['cross_checked']} cross-checked) in {lud['generation_seconds']:.2f}s"
    )
    print(
        f"guards eliminated: nw={guards['nw_guards_eliminated']:.0f} "
        f"stencil={guards['stencil_guards_eliminated']:.0f}"
    )
    outcomes = sum(report["prover_ladder"].values())
    print(f"prover ladder ({outcomes} outcomes): " + " ".join(
        f"{stage}={count}" for stage, count in report["prover_ladder"].items()
    ))
    for text in report["abstentions"]:
        print(f"  abstained: {text}")
    print(f"ok={report['ok']} -> {out_path}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
