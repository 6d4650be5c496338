"""The firing ledger: every rewrite rule and every prover stage earns its place.

For each rule of :data:`repro.symbolic.RULE_REGISTRY` and each outcome of the
prover ladder (:data:`repro.symbolic.prover.LADDER_STAGES`) the ledger pins
how often it applies, from a cleared memo table, on four sources:

* ``corpus`` — the 85-kernel corpus: every distinct ``generate_config`` of
  the generating apps of :mod:`repro.apps.registry`, each generated once;
* ``table2`` — :func:`repro.bench.figures.table2`;
* ``table3`` — :func:`repro.bench.figures.table3`;
* ``symbench`` — :func:`repro.symbolic.bench.bench_lud_static_bijectivity`
  and :func:`~repro.symbolic.bench.bench_guard_elimination`.

Every row carries its reason: a Table II rule number, the corpus kernel that
needs it, or a named need.  A rule or proving stage that fires on none of the
four decides nothing and goes; ``abstain`` is an outcome, not a stage, and is
exempt.  A change that moves a count re-pins the row here, in the same change.
"""

import pytest

from repro.apps.registry import available_apps, get_app
from repro.bench.figures import table2, table3
from repro.symbolic import CACHE_PREFIX, RULE_REGISTRY, cache_statistics, clear_memos
from repro.symbolic import bench as symbench
from repro.symbolic.prover import LADDER_STAGES

SOURCES = ("corpus", "table2", "table3", "symbench")

#: rule or ``ladder:<outcome>`` -> (applications per source, in SOURCES order; reason)
LEDGER = {
    "mod-split-multiple": ((54, 1, 54, 0), "Table II rule 1"),
    "mod-range-identity": ((58, 2, 58, 0), "Table II rule 5"),
    "mod-nested": ((1, 0, 1, 0), "matmul nn: (pid % (nt_n*min(GM, nt_m))) % min(GM, nt_m)"),
    "div-exact": ((1, 0, 1, 1), "lud: (R*T) // T in the coarsened thread layout"),
    "div-mod-zero": ((3, 1, 3, 0), "Table II rule 3"),
    "div-range-zero": ((52, 2, 52, 0), "Table II rule 4"),
    "div-negative-const": ((2, 0, 2, 0), "grouped_gemm, matmul: (-1) // nt_n, a grouped layout's range end"),
    "div-split-multiple": ((56, 1, 56, 0), "Table II rule 2"),
    "add-recompose": ((10, 0, 10, 2), "Table II rule 7"),
    "mul-div-cancel": ((18, 0, 18, 0), "grouped_gemm, matmul: BK * (K // BK) -> K under BK | K"),
    "ladder:refuted": ((117, 2, 113, 4), "need: a side condition false at a witness costs no proof"),
    "ladder:structure": ((63, 4, 63, 10), "need: sign analysis, the cheapest proof, for every app"),
    "ladder:range": ((0, 0, 0, 21), "need: LUD's static bijectivity proofs"),
    "ladder:facts": ((8, 0, 8, 1), "grouped_gemm, matmul: d*(x//d) <= x, min(a, b)*max(1, a//b) <= a"),
    "ladder:abstain": ((0, 0, 0, 0), "an outcome, not a stage: what no stage proves"),
}


def _corpus():
    kernels = []
    for name in available_apps():
        spec = get_app(name)
        if spec.generate is None:
            continue
        seen = set()
        for config in spec.space:
            projected = spec.generate_config(config)
            key = tuple(sorted(projected.items()))
            if key not in seen:
                seen.add(key)
                kernels.append((spec, projected))
    assert len(kernels) == 85
    for spec, projected in kernels:
        spec.generate(projected)


def _symbench():
    symbench.bench_lud_static_bijectivity()
    symbench.bench_guard_elimination()


def _counts():
    snapshot = cache_statistics()
    return {name: snapshot.get(f"{CACHE_PREFIX}rule_applications.{name}", 0) for name in LEDGER}


@pytest.fixture(scope="module")
def measured():
    """name -> applications per source, each source from a cleared memo table."""
    per_source = []
    for run in (_corpus, table2, table3, _symbench):
        clear_memos()
        before = _counts()
        run()
        after = _counts()
        per_source.append({name: int(after[name] - before[name]) for name in LEDGER})
    return {name: tuple(counts[name] for counts in per_source) for name in LEDGER}


def test_the_ledger_lists_every_rule_and_every_outcome():
    names = [rule.name for rule in RULE_REGISTRY] + [f"ladder:{stage}" for stage in LADDER_STAGES]
    assert sorted(LEDGER) == sorted(names)
    assert all(reason for _, reason in LEDGER.values())


def test_every_rule_and_stage_fires_on_some_source(measured):
    idle = [name for name, counts in measured.items() if name != "ladder:abstain" and not any(counts)]
    assert not idle, f"fire on none of {SOURCES}: {idle}"


def test_firing_counts_are_pinned(measured):
    moved = {name: (LEDGER[name][0], counts) for name, counts in measured.items()
             if counts != LEDGER[name][0]}
    assert not moved, f"(pinned, measured) per {SOURCES}: {moved}"


def test_the_range_gates_pass_on_the_pinned_ladder():
    """:func:`repro.symbolic.bench.run`, the entry point perfbench's range probe
    times, passes every gate and reports the ``symbench`` column above."""
    clear_memos()
    report = symbench.run()
    assert report["ok"] and report["abstentions"] == []
    lud = report["lud_bijectivity"]
    assert lud["static_proofs"] == lud["shapes"] == 27 and lud["fallbacks"] == []
    guards = report["guard_elimination"]
    assert (guards["nw_guards_eliminated"], guards["stencil_guards_eliminated"]) == (7, 1)
    column = SOURCES.index("symbench")
    assert report["prover_ladder"] == {
        stage: LEDGER[f"ladder:{stage}"][0][column] for stage in LADDER_STAGES}
