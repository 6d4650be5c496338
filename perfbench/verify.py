"""The untimed correctness phase of each workload.

``verify(workload)`` runs after the timed rounds, on what the last round
left behind, and returns ``(checks attempted, failure messages)``.  A
failure counts into the run's ``failed`` and makes it exit nonzero; nothing
here is timed into an end-to-end metric (the traced run reports the phase's
cost as ``check.run_ms_per_config``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EXPECTED_TRACES = Path(__file__).resolve().parent / "expected_traces.json"


def _verify_compile_cold(workload) -> tuple[int, list[str]]:
    """Every distinct kernel passes the differential check against its app's
    NumPy reference model; a generator that declined (``None``) is a valid
    negative the check skips; the corpus text is identical in every round."""
    from repro.check import check_kernel

    failures = []
    for op, request, full_config in workload.ops:
        report = check_kernel(request.app, full_config, workload.kernels.get(op),
                              seed=workload.seed)
        if report.status == "failed":
            failures.append(f"{op}: {report.summary()}")
    if len(workload.text_digests) != 1:
        failures.append(f"kernel text differed between rounds: {sorted(workload.text_digests)}")
    return len(workload.ops) + 1, failures


def _verify_tune_sweep(workload) -> tuple[int, list[str]]:
    """Every winner passes the differential check and carries its app's
    paper-preferred axes; the winners are the same in every round."""
    from repro.check import run_check

    failures = []
    for app, best in workload.winners.items():
        report = run_check(app, best.config, seed=workload.seed)
        if report.status == "failed":
            failures.append(f"{app}: {report.summary()}")
        paper = workload.specs[app].paper_config
        off = {axis: best.config.get(axis) for axis, value in paper.items()
               if best.config.get(axis) != value}
        if off:
            failures.append(f"{app}: winner departs from the paper configuration on {off}")
    if len(workload.winner_history) != 1:
        failures.append("winning configurations differed between rounds")
    return 2 * len(workload.winners) + 1, failures


def _verify_execute_launch(workload) -> tuple[int, list[str]]:
    """Outputs equal the hand-written NumPy references, the trace counters
    equal the pinned ones, and no launch fell back to the tree-walk engine."""
    from cases import trace_counters
    from repro.obs import REGISTRY

    expected = json.loads(EXPECTED_TRACES.read_text())
    failures = []
    workload.trace_counters_ok = True
    for case in workload.cases:
        if case.name not in workload.outputs:
            continue  # the launch raised; already counted as a failed op
        actual = np.asarray(workload.outputs[case.name])
        reference = np.asarray(case.reference())
        if actual.shape != reference.shape:
            failures.append(f"{case.name}: shape {actual.shape} != {reference.shape}")
        elif not np.allclose(actual.astype(np.float64), reference.astype(np.float64),
                             **case.tolerance):
            worst = float(np.abs(actual.astype(np.float64) - reference).max())
            failures.append(f"{case.name}: output disagrees with the reference "
                            f"(max abs error {worst:.3g})")
        counters = trace_counters(workload.traces[case.name])
        if counters != expected.get(case.name):
            workload.trace_counters_ok = False
            failures.append(f"{case.name}: trace counters moved: {counters} "
                            f"!= pinned {expected.get(case.name)}")
    fallbacks = REGISTRY.snapshot().get("repro.vm.fallbacks", 0.0)
    if fallbacks:
        failures.append(f"{fallbacks:.0f} launches fell back to the tree-walk engine")
    return 2 * len(workload.cases) + 1, failures


def _verify_farm_replay(workload) -> tuple[int, list[str]]:
    """Every kernel the farm resolved — compiled in the cold pass, read back
    from the store in the restart pass — has the source an in-process compile
    of the same request produces.  (Shed, lost, double-compiled and errored
    requests were already counted per round.)"""
    from repro.serve import default_compiler

    failures = []
    for key, request in zip(workload.keys, workload.requests):
        local = default_compiler(request)
        want = None if local is None else local.source
        for what, served in (("cold", workload.cold_kernels.get(key)),
                             ("restart", workload.restart_kernels.get(key))):
            got = getattr(served, "source", None)
            if got != want or (served is None) != (local is None):
                failures.append(f"{key}: {what} pass served a different kernel")
    return 2 * len(workload.keys), failures


_PHASES = {
    "compile_cold": _verify_compile_cold,
    "tune_sweep": _verify_tune_sweep,
    "execute_launch": _verify_execute_launch,
    "farm_replay": _verify_farm_replay,
}


def verify(workload) -> tuple[int, list[str]]:
    return _PHASES[workload.name](workload)


if __name__ == "__main__":
    # Regenerate the pinned counters after an *intended* change to what the
    # substrates count: python3 perfbench/verify.py > perfbench/expected_traces.json
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cases import build_cases, trace_counters
    from repro.vm import use_engine

    with use_engine("vectorized-strict"):
        pinned = {case.name: trace_counters(case.run()[1]) for case in build_cases(0, False)}
    print(json.dumps(pinned, indent=1, sort_keys=True))
