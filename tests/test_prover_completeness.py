"""Prover completeness: the generation sweep's proven-rate must never regress.

Every ``prove_*`` query issued while generating kernels for the eight apps is
recorded (:func:`repro.symbolic.record_proof_queries`) and compared against
the committed baseline at ``tests/data/prover_baseline.json``.  A prover or
simplifier change that silently stops discharging queries some app depends on
shows up here as a per-app proven-rate drop before it shows up as a slower or
wrongly guarded kernel.

Regenerate the baseline after an intentional completeness change::

    PYTHONPATH=src python tests/test_prover_completeness.py --write
"""

import json
from pathlib import Path

from repro.apps.registry import available_apps, get_app
from repro.symbolic import clear_memos, record_proof_queries

BASELINE_PATH = Path(__file__).parent / "data" / "prover_baseline.json"

#: leading space configurations generated per app (deterministic: SearchSpace
#: iteration order is fixed, and the paper config is always included)
CONFIGS_PER_APP = 4


def generation_sweep() -> dict[str, dict]:
    """Generate kernels for every app, recording all proof queries."""
    results: dict[str, dict] = {}
    for name in available_apps():
        spec = get_app(name)
        configs = [dict(spec.paper_config)] if spec.paper_config else []
        for config in spec.space:
            configs.append(dict(config))
            if len(configs) >= 1 + CONFIGS_PER_APP:
                break
        generated = 0
        with record_proof_queries() as log:
            for config in configs:
                if spec.generate is None:
                    continue
                clear_memos()  # each kernel alone, as the baseline was recorded
                try:
                    kernel = spec.generate(config)
                except (KeyError, ValueError, TypeError):
                    # partial paper configs may not generate standalone
                    continue
                if kernel is not None:
                    generated += 1
        queries = len(log)
        proven = sum(1 for _, _, ok in log if ok)
        results[name] = {
            "generated": generated,
            "queries": queries,
            "proven": proven,
            "proven_rate": (proven / queries) if queries else 1.0,
        }
    return results


def test_proven_rate_never_regresses():
    assert BASELINE_PATH.exists(), (
        f"missing {BASELINE_PATH}; regenerate with "
        f"PYTHONPATH=src python {Path(__file__).name} --write"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    current = generation_sweep()
    assert set(current) >= set(baseline), (
        f"apps disappeared from the sweep: {sorted(set(baseline) - set(current))}"
    )
    regressions = []
    for name, recorded in baseline.items():
        now = current[name]
        # rates compare directly: a query the prover used to discharge but
        # no longer does drops the rate even if the query mix shifted
        if now["proven_rate"] < recorded["proven_rate"] - 1e-9:
            regressions.append(
                f"{name}: proven rate {now['proven_rate']:.3f} "
                f"(was {recorded['proven_rate']:.3f}, "
                f"{now['proven']}/{now['queries']} vs "
                f"{recorded['proven']}/{recorded['queries']})"
            )
        # the sweep must still exercise the prover at all
        if recorded["queries"] and not now["queries"]:
            regressions.append(f"{name}: generation no longer issues proof queries")
    assert not regressions, "prover completeness regressed:\n" + "\n".join(regressions)


def test_each_kernel_alone_issues_exactly_the_recorded_queries():
    """The memo table is shared between kernels; emptied before each one (as
    :func:`generation_sweep` does) a kernel must ask — and prove — exactly what
    it did when every environment kept its own caches."""
    baseline = json.loads(BASELINE_PATH.read_text())
    current = generation_sweep()
    for name, recorded in baseline.items():
        now = current[name]
        assert (now["queries"], now["proven"]) == (recorded["queries"], recorded["proven"]), name


def test_sweep_exercises_the_prover():
    current = generation_sweep()
    assert sum(app["queries"] for app in current.values()) > 100
    assert sum(app["generated"] for app in current.values()) >= 8


if __name__ == "__main__":
    import sys

    report = generation_sweep()
    if "--write" in sys.argv:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
    print(json.dumps(report, indent=2, sort_keys=True))
