"""The evidence pass: runner, sweep CLI and its gates, fuzzer, hooks, mutations."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.registry import AppSpec, Case, available_apps, get_app
from repro.check import (
    CheckFailure,
    CheckReport,
    check_kernel,
    differential_verifier,
    fuzz_symbolic,
    fuzz_trial,
    run_check,
    stable_seed,
    sweep,
    tolerance_for,
)
from repro.check.__main__ import main
from repro.minitriton.language import KernelTrace
from repro.serve import CompileRequest, CompileService
from repro.serve.service import default_compiler
from importlib import import_module

# the package re-exports the ``simplify`` *function* under the same name, so
# the rewrite-engine module must be resolved explicitly
simplify_module = import_module("repro.symbolic.simplify")
from repro.symbolic import clear_memos
from repro.symbolic.expr import Mod
from repro.tune.space import Choice, SearchSpace


# -- the differential runner over every app ----------------------------------------------


@pytest.mark.parametrize("app", sorted(available_apps()))
def test_every_app_differentially_verifies(app):
    """Sampled configs of every app execute on their substrate, match NumPy
    and are measured from that same execution."""
    reports = sweep([app], samples=2, seed=0)[app]
    assert reports, f"{app} produced no check reports"
    assert all(r.status in ("passed", "skipped") for r in reports), [
        r.summary() for r in reports if r.status == "failed"
    ]
    # at least one configuration per app must actually execute a kernel
    executed = [r for r in reports if r.passed]
    assert executed, f"{app}: every sampled config was skipped"
    for report in executed:
        assert report.elements > 0
        assert report.dtype
        assert report.extrapolated is not None and report.analytic_seconds > 0


def test_paper_configs_verify_for_all_apps():
    """The paper-preferred configuration of each app passes its check."""
    for app in available_apps():
        spec = get_app(app)
        config = next(iter(spec.space))
        report = run_check(spec, config, seed=1)
        assert report.status == "passed", report.summary()


def test_sweep_groups_rows_by_app():
    results = sweep(["softmax", "nw"], samples=1, seed=0)
    assert set(results) == {"softmax", "nw"}
    assert all(isinstance(reports, list) and reports for reports in results.values())


def test_reports_are_seed_deterministic():
    first = run_check("matmul", {"variant": "tn"}, seed=7).as_dict()
    second = run_check("matmul", {"variant": "tn"}, seed=7).as_dict()
    assert first == second
    assert first["status"] == "passed"


def test_stable_seed_is_process_stable_and_distinct():
    assert stable_seed(0, "matmul", {"a": 1}) == stable_seed(0, "matmul", {"a": 1})
    assert stable_seed(0, "matmul", {"a": 1}) != stable_seed(1, "matmul", {"a": 1})


def test_tolerances_per_dtype():
    assert tolerance_for(np.dtype(np.int32)).exact
    assert tolerance_for(np.dtype(np.float16)).rtol > tolerance_for(np.dtype(np.float32)).rtol
    with pytest.raises(ValueError):
        tolerance_for(np.dtype(np.complex128))


def test_baseline_configs_are_skipped_not_failed():
    report = run_check("softmax", {"implementation": "pytorch"}, seed=0)
    assert report.skipped
    assert "no executable kernel" in report.reason


def test_check_kernel_regenerates_when_check_shrinks_kernel_axes():
    """Transpose bakes the problem size into its module; the runner must
    regenerate a downsized twin instead of executing the 2048^2 kernel."""
    spec = get_app("transpose")
    config = {"variant": "smem", "skew": 1, "tile": 8, "generator": "lego"}
    kernel = spec.generate(config)  # n = 2048 baked into the memref types
    report = check_kernel("transpose", config, kernel, seed=0)
    assert report.status == "passed", report.summary()
    assert report.case_config["n"] == 16


def test_lud_check_launches_the_coarsened_internal_wave(monkeypatch):
    """LUD's check is the mini-CUDA internal kernel, not a NumPy mirror of it."""
    from repro.apps import lud

    config = {"block": 32, "cuda_block": 8}
    report = run_check("lud", config, seed=0)
    assert report.passed, report.summary()
    assert report.trace["blocks"] > 0 and report.dtype == "float32"
    real = lud._lud_internal_block_kernel

    def collapsed_rows(ctx, m, offset, block):
        ctx.ty = ctx.ty // 2 * 2  # i = r_i * T + ty now skips every odd row
        real(ctx, m, offset, block)

    monkeypatch.setattr(lud, "_lud_internal_block_kernel", collapsed_rows)
    broken = run_check("lud", config, seed=0)
    assert broken.status == "failed" and "disagrees" in broken.reason


# -- substrate traces land in the report ---------------------------------------------------


def _adhoc_spec(execute):
    return AppSpec(
        name="adhoc",
        backend="triton",
        space=SearchSpace(Choice("x", (1,))),
        evaluate=lambda config, device=None: 1.0,
        reference=lambda config, inputs: np.zeros(4, dtype=np.float32),
        case=lambda config, rng, device=None: Case(
            config=dict(config), inputs={}, execute=execute),
    )


def test_runner_accepts_full_launch_traces():
    full = KernelTrace(programs=4)
    spec = _adhoc_spec(lambda kernel, device=None: (np.zeros(4, dtype=np.float32), full))
    report = run_check(spec, {"x": 1}, seed=0)
    assert report.status == "passed"
    assert report.trace["programs"] == 4.0


def test_check_report_summary_reads_reasonably():
    report = CheckReport(app="x", config={"a": 1}, reason="because")
    assert "skipped" in report.summary()
    assert report.as_dict()["extrapolated"] is None


# -- the sweep CLI: one execution per configuration, every gate fails it on its own ------


def _vm_launches(run):
    from repro.obs.trace import TRACER, tracing

    with tracing(True):
        TRACER.clear()
        result = run()
        return result, [e for e in TRACER.events() if e["name"] == "vm.execute"]


def test_measured_configurations_launch_exactly_once():
    from repro.tune import autotune

    tuned, launches = _vm_launches(
        lambda: autotune("transpose", measure_top_k=3, verify_top_k=3))
    assert tuned.measured == 3 and [r.status for r in tuned.verification] == ["passed"] * 3
    assert len(launches) == 3  # verification read the measured rung's verdicts
    report, launches = _vm_launches(
        lambda: main(["--apps", "softmax,nw", "--samples", "1", "--fuzz", "0", "--json", "-"]))
    assert report["ok"] and report["failures"] == []
    assert len(launches) == report["measured"] > 0


def test_check_sweep_cli_writes_artifact(tmp_path):
    path = tmp_path / "BENCH_check.json"
    report = main(["--apps", "softmax", "--samples", "1", "--fuzz", "0", "--json", str(path)])
    assert report["ok"] is True
    assert json.loads(path.read_text())["verified"] == report["verified"]
    rows = report["apps"]["softmax"]
    assert rows["measured"] >= 1
    measured_rows = [r for r in rows["rows"] if r["extrapolated"] is not None]
    assert measured_rows[0]["measured_ms"] > 0
    assert measured_rows[0]["analytic_ms"] > 0
    assert "coalescing_efficiency" in measured_rows[0]["trace"]


def _sweep(*argv):
    return main(["--samples", "1", "--fuzz", "0", "--json", "-", *argv])


def test_analytic_bound_fails_the_sweep_though_every_verdict_passes(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "BENCH_check.json"
    run = subprocess.run(
        [sys.executable, "-m", "repro.check", "--apps", "transpose", "--samples", "1",
         "--fuzz", "0", "--max-error-for", "transpose=1.0", "--json", str(path)],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    report = json.loads(path.read_text())
    group = report["apps"]["transpose"]
    assert report["ok"] is False and report["failed"] == 0 and report["verified"] > 0
    assert group["max_error"] == 1.0 and group["max_analytic_error"] > 1.0
    assert not group["errors_ok"]
    assert "ANALYTIC ERROR transpose" in run.stdout


@pytest.mark.parametrize("value, message", [
    ("transpsoe=100", "transpsoe not in the sweep"),
    ("transpose=abc", "'abc' is not a positive number"),
    ("transpose=0", "'0' is not a positive number"),
    ("transpose", "expected APP=BOUND"),
])
def test_max_error_for_rejects_bad_input_as_a_usage_error(value, message, capsys):
    with pytest.raises(SystemExit) as exited:
        _sweep("--apps", "transpose", "--max-error-for", value)
    assert exited.value.code == 2
    error = capsys.readouterr().err
    assert "argument --max-error-for" in error and message in error


@pytest.mark.parametrize("argv, message", [
    (("--apps", "transpose,transpsoe"), "argument --apps: unknown app(s) transpsoe"),
    (("--apps", "transpose", "--samples", "0"), "argument --samples: '0' is not a positive integer"),
])
def test_bad_sweep_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--json", "-"])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err


def test_wrong_output_fails_the_sweep(monkeypatch):
    from repro.apps import lud

    real = lud._lud_internal_block_kernel

    def collapsed_rows(ctx, m, offset, block):
        ctx.ty = ctx.ty // 2 * 2
        real(ctx, m, offset, block)

    monkeypatch.setattr(lud, "_lud_internal_block_kernel", collapsed_rows)
    report = _sweep("--apps", "lud")
    assert not report["ok"] and report["failed"] >= 1
    assert all("disagrees" in failure["reason"] for failure in report["failures"])
    assert all(failure["extrapolated"] is None for failure in report["failures"])


def test_failed_measurement_fails_the_sweep(monkeypatch):
    import repro.check.runner as runner

    def broken(*args, **kwargs):
        raise RuntimeError("no cost for this trace")

    monkeypatch.setattr(runner, "trace_to_cost", broken)
    report = _sweep("--apps", "softmax")
    assert not report["ok"] and report["verified"] == 0 and report["failed"] >= 1
    assert all("RuntimeError: no cost" in failure["reason"] for failure in report["failures"])


def test_app_with_no_measured_row_fails_the_sweep(monkeypatch):
    from repro.apps import registry

    spec = get_app("softmax")
    monkeypatch.setitem(registry._APPS, "softmax", dataclasses.replace(
        spec, case=lambda config, rng, device=None: None))
    report = _sweep("--apps", "softmax")
    assert not report["ok"] and report["failed"] == 0
    assert report["apps"]["softmax"]["measured"] == 0


def test_fuzz_failure_fails_the_sweep(broken_mod_rule):
    # NW's case runs a hand-written kernel, so only the fuzz can see the broken rule
    report = main(["--apps", "nw", "--samples", "1", "--fuzz", "60", "--json", "-"])
    assert not report["ok"] and report["failures"] == []
    assert report["failed"] == len(report["fuzz"]["failures"]) > 0


# -- mutation tests: a deliberately broken rewrite must be caught -------------------------


@pytest.fixture
def broken_mod_rule():
    """Install ``a % b -> a`` (wrong) as the highest-priority Mod rule."""
    broken = simplify_module.RewriteRule(
        name="broken-mod-identity",
        node_type=Mod,
        description="deliberately wrong rewrite for the mutation test",
        fn=lambda expr, env, rw: expr.args[0],
    )
    original = simplify_module._RULES_BY_TYPE.get(Mod, ())
    simplify_module._RULES_BY_TYPE[Mod] = (broken,) + original
    try:
        yield
    finally:
        simplify_module._RULES_BY_TYPE[Mod] = original
        clear_memos()  # drop every answer memoised while the broken rule was live


def test_differential_runner_catches_broken_rewrite(broken_mod_rule):
    report = run_check("matmul", {"variant": "nn", "BM": 128, "BN": 128, "BK": 64, "GM": 8}, seed=0)
    assert report.status == "failed", report.summary()


def test_fuzzer_catches_broken_rewrite(broken_mod_rule):
    report = fuzz_symbolic(trials=120, seed=3)
    assert not report.ok
    assert any(f.property in ("simplify", "fixpoint", "lowering") for f in report.failures)
    # every failure carries the seed that replays it
    failure = report.failures[0]
    assert fuzz_trial(failure.seed), "printed seed must reproduce the failure"


# -- the fuzzer on healthy rules ----------------------------------------------------------


def test_fuzz_symbolic_is_clean_and_deterministic():
    first = fuzz_symbolic(trials=60, seed=0)
    second = fuzz_symbolic(trials=60, seed=0)
    assert first.ok, [f.as_dict() for f in first.failures]
    assert first.as_dict() == second.as_dict()
    assert first.checked == {
        "simplify": 60, "fixpoint": 60, "printer": 60, "lowering": 60, "range": 60, "refuter": 60,
        "sharing": 60,
    }


def test_fuzzer_catches_answers_shared_across_fact_sets(monkeypatch):
    from repro.symbolic import SymbolicEnv

    # a fact token blind to the declared ranges: the fuzzer's four value
    # ranges collapse onto one token and serve each other's answers
    real = SymbolicEnv._fact_key
    monkeypatch.setattr(SymbolicEnv, "_fact_key", lambda env: ((),) + real(env)[1:])
    report = fuzz_symbolic(trials=60, seed=0)
    assert any(f.property == "sharing" for f in report.failures)


def test_fuzzer_catches_unsound_range_transfer(monkeypatch):
    from repro.symbolic import Interval

    # a floordiv transfer function that forgets numerators can be negative
    monkeypatch.setattr(
        Interval, "floordiv", lambda self, other: Interval(0, max(0, self.hi))
    )
    report = fuzz_symbolic(trials=200, seed=1)
    assert any(f.property == "range" for f in report.failures)


def test_search_space_sample_is_valid_and_deterministic():
    space = get_app("lud").space
    draws = space.sample(4, 123)
    assert draws == space.sample(4, 123)
    assert all(config["block"] % config["cuda_block"] == 0 for config in draws)
    assert len({tuple(sorted(c.items())) for c in draws}) == len(draws)  # no replacement
    small = SearchSpace(Choice("a", (1, 2)))
    assert small.sample(10) == [{"a": 1}, {"a": 2}]  # count covers the space
    with pytest.raises(ValueError):
        small.sample(0)


# -- integration hooks --------------------------------------------------------------------


def _corrupting_compiler(request):
    """Compile normally, then shift every A-tile load by one element."""
    kernel = default_compiler(request)
    return dataclasses.replace(kernel, source=kernel.source.replace("a_ptrs = a_ptr + ", "a_ptrs = a_ptr + 1 + "))


def test_service_verify_rejects_wrong_kernels_before_caching():
    with CompileService(workers=1, compiler=_corrupting_compiler,
                        verify=differential_verifier(seed=0)) as service:
        request = CompileRequest(app="matmul", config={"variant": "nn"})
        with pytest.raises(CheckFailure):
            service.compile(request)
        stats = service.stats()
        assert stats.errors == 1
        assert stats.compiled == 0  # the wrong kernel never reached a cache tier
        # the failure is not cached either: a retry re-verifies and re-raises
        with pytest.raises(CheckFailure):
            service.compile(request)


def test_service_verify_passes_correct_kernels_once():
    checked = []

    def verifier(request, kernel):
        checked.append(request.local_key())
        differential_verifier(seed=0)(request, kernel)

    with CompileService(workers=2, verify=verifier) as service:
        request = CompileRequest(app="matmul", config={"variant": "tn"})
        first = service.compile(request)
        second = service.compile(request)
        assert first.source == second.source
    assert len(checked) == 1  # verification runs on first compilation only


def test_check_through_service_with_warm_durable_store(tmp_path):
    """A kernel restored from the durable tier has no live MLIR module; the
    runner must check a freshly generated twin instead of crashing."""
    store = tmp_path / "kernels.json"
    config = {"variant": "smem", "skew": 1, "tile": 8, "generator": "lego"}
    with CompileService(workers=1, store=store) as warmup:
        assert run_check("transpose", config, seed=0, service=warmup).passed
    # fresh service: cold memory tier, warm durable tier -> PersistedKernel
    with CompileService(workers=1, store=store) as restored:
        report = run_check("transpose", config, seed=0, service=restored)
        assert report.status == "passed", report.summary()
        assert restored.stats().store_hits == 1


def test_service_verifies_unstamped_durable_restores(tmp_path):
    """A store warmed without a verifier must not bypass a consumer's gate."""
    store = tmp_path / "kernels.json"
    request = CompileRequest(app="matmul", config={"variant": "nn"})
    with CompileService(workers=1, compiler=_corrupting_compiler, store=store) as producer:
        producer.compile(request)  # wrong kernel persisted, unverified
    with CompileService(workers=1, store=store, verify=differential_verifier(seed=0)) as consumer:
        with pytest.raises(CheckFailure):
            consumer.compile(request)
    # a healthy unstamped store verifies once on restore, then is stamped
    good_store = tmp_path / "good.json"
    with CompileService(workers=1, store=good_store) as producer:
        producer.compile(request)
    checked = []

    def counting_verifier(req, kernel):
        checked.append(req.local_key())
        differential_verifier(seed=0)(req, kernel)

    for _ in range(2):  # second service restores the now-stamped entry
        with CompileService(workers=1, store=good_store, verify=counting_verifier) as consumer:
            assert consumer.compile(request) is not None
            assert consumer.stats().store_hits == 1
    assert len(checked) == 1


def test_autotune_verify_top_k_attaches_reports():
    from repro import tune

    space = get_app("matmul").space.subspace(variant=("nn", "tn"), BM=(128,), BN=(128,),
                                            BK=(64,), GM=(8,))
    result = tune.autotune("matmul", space=space, verify_top_k=2)
    assert len(result.verification) == 2
    assert all(report.passed for report in result.verification)


def test_autotune_verify_top_k_raises_on_broken_rewrite(broken_mod_rule):
    from repro import tune
    from repro.serve import CompileService

    space = get_app("matmul").space.subspace(variant=("nn",), BM=(128,), BN=(128,),
                                            BK=(64,), GM=(8,))
    # a private service: the broken kernel must not enter the shared default cache
    with CompileService(workers=1) as service:
        with pytest.raises(CheckFailure):
            tune.autotune("matmul", space=space, service=service, verify_top_k=1)
