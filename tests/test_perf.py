"""Measurement in the evidence pass: trace->cost adapters, profile(), two-stage tuning.

The adapter tests pin the measured :class:`KernelCost` of one app per
substrate against hand-computed element/byte/transaction counts on tiny
fixed configurations, and the extrapolation test asserts that
``KernelCost.scaled`` of a one-block launch reproduces the wider launch.  The tuning tests are the acceptance bar: ``autotune(measure_top_k=)``
must reproduce the paper-preferred winners under *measured* ranking.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.lud import LudConfig, lud_case, run_lud_internal
from repro.apps.registry import Case, get_app
from repro.apps.softmax import generate_softmax_kernel, run_softmax
from repro.apps.transpose import TransposeConfig, generate_transpose, run_transpose
from repro.gpusim import A100_80GB, KernelCost, occupancy_factor
from repro.check import profile, sweep, trace_summary, trace_to_cost
from repro.obs.metrics import percentile
from repro.serve.metrics import LaneLedger
from repro.tune import autotune


# -- satellite: latency percentile bias ---------------------------------------------


def test_percentile_nearest_rank_even_window():
    # p50 of [1, 2, 3, 4] is the 2nd smallest under ceil-based nearest rank;
    # the old round(q * (len - 1)) picked the 3rd (banker's rounding of 1.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
    assert percentile([1.0, 2.0], 0.50) == 1.0
    assert percentile([1.0, 2.0, 3.0], 0.50) == 2.0


def test_percentile_pins_p50_p95_p99_exactly():
    ledger = LaneLedger(10_000)
    for v in range(1, 101):  # 1..100 milliseconds
        ledger.settle("compiled", v / 1e3)
    snap = ledger.read()["latency"]
    # nearest rank over n=100: p-th percentile is the p-th smallest sample
    assert snap["p50_ms"] == pytest.approx(50.0)
    assert snap["p95_ms"] == pytest.approx(95.0)
    assert snap["p99_ms"] == pytest.approx(99.0)
    assert snap["max_ms"] == pytest.approx(100.0)


def test_percentile_empty_and_single():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0


# -- satellite: occupancy clamps -----------------------------------------------------


def test_occupancy_clamped_by_max_blocks_per_sm():
    from dataclasses import replace

    # 32-thread blocks: the thread limit alone would allow 2048/32 = 64
    # resident blocks; the hardware scheduler stops at max_blocks_per_sm
    tiny_blocks = KernelCost(blocks=1e6, threads_per_block=32.0)
    capped = replace(A100_80GB, max_blocks_per_sm=2)
    assert occupancy_factor(tiny_blocks, capped) < occupancy_factor(tiny_blocks, A100_80GB)


def test_occupancy_penalises_narrow_blocks_with_few_resident_warps():
    # identical residency pressure, but 64-thread blocks contribute only two
    # warps each: too few resident warps to hide latency
    wide = KernelCost(blocks=1e6, threads_per_block=256.0, smem_per_block=32768.0)
    narrow = KernelCost(blocks=1e6, threads_per_block=64.0, smem_per_block=32768.0)
    assert occupancy_factor(narrow, A100_80GB) < occupancy_factor(wide, A100_80GB)


# -- adapters: one app per substrate, hand-computed -----------------------------------


def test_triton_adapter_matches_hand_computed_softmax_counts():
    m, n = 4, 8
    rng = np.random.default_rng(0)
    x = rng.standard_normal((m, n)).astype(np.float32)
    _, trace = run_softmax(generate_softmax_kernel(), x)
    # one program per row: each loads its 8-float row (32 bytes, exactly one
    # aligned sector) and stores it back
    assert trace.load_elements == m * n
    assert trace.store_elements == m * n
    assert trace.load_bytes == m * n * 4
    assert trace.load_transactions == m  # one 32-byte sector per row
    assert trace.store_transactions == m
    # counted flops: tl.max + tl.exp + tl.sum, one per element each
    assert trace.flops == 3 * m * n
    cost = trace_to_cost(trace, A100_80GB, name="softmax")
    assert cost.dram_bytes == 2 * m * n * 4  # moved == useful: fully coalesced
    assert cost.flops == 3 * m * n
    assert cost.blocks == m
    assert cost.tensor_core is False and cost.dtype == "fp32"
    summary = trace_summary(trace, A100_80GB)
    assert summary["coalescing_efficiency"] == pytest.approx(1.0)
    assert summary["programs"] == m and summary["load_elements"] == m * n


def test_cuda_adapter_matches_hand_computed_lud_counts():
    B = 8
    cfg = LudConfig(n=2 * B, block=B, cuda_block=B)  # one trailing block, r=1
    rng = np.random.default_rng(1)
    matrix = (rng.standard_normal((cfg.n, cfg.n)) + cfg.n * np.eye(cfg.n)).astype(np.float32)
    out, trace = run_lud_internal(matrix, cfg)
    # semantics: the wave applies m[B:, B:] -= m[B:, :B] @ m[:B, B:]
    expected = matrix.copy()
    expected[B:, B:] -= matrix[B:, :B] @ matrix[:B, B:]
    np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)
    # global traffic: two staged B x B panels + read-modify-write of the block
    assert trace.load_elements == 3 * B * B
    assert trace.store_elements == B * B
    # every 8-float row segment is 32 bytes in one aligned sector; a warp
    # covers 4 rows, so each 64-lane access costs 8 sector transactions
    assert trace.load_transactions == 3 * B  # 3 staged/read accesses x 8 rows
    assert trace.store_transactions == B
    # arithmetic: one multiply-add per (i, j, k)
    assert trace.flops == 2 * B**3
    # shared traffic: 2 B^2 staging stores + register-blocked 2 r b t^2 loads
    assert trace.smem_store_bytes == 2 * B * B * 4
    assert trace.smem_load_bytes == 2 * 1 * B * (B * B) * 4
    cost = trace_to_cost(trace, A100_80GB, name="lud_internal")
    assert cost.dram_bytes == 4 * B * B * 4  # fully coalesced: moved == useful
    assert cost.smem_bytes == trace.smem_load_bytes + trace.smem_store_bytes
    assert cost.blocks == 1 and cost.threads_per_block == B * B
    assert cost.smem_per_block == 2 * B * B * 4


def test_mlir_adapter_matches_hand_computed_transpose_counts():
    tile = 4
    cfg = TransposeConfig(n=2 * tile, tile=tile)
    kernel = generate_transpose(cfg, "smem", skew=True)
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((cfg.n, cfg.n)).astype(np.float32)
    out, trace = run_transpose(kernel, matrix, cfg)
    np.testing.assert_allclose(out, matrix.T)
    blocks = (cfg.n // tile) ** 2
    # each block reads its tile once and writes it once
    assert trace.load_elements == cfg.n * cfg.n
    assert trace.store_elements == cfg.n * cfg.n
    # 4-float row segments: the distinct sectors one block's tile touches
    row_bytes = np.array([(r * cfg.n + c) * 4 for r in range(tile) for c in range(tile)])
    sectors_per_block_access = np.unique(row_bytes // A100_80GB.dram_sector_bytes).size
    assert trace.load_transactions == blocks * sectors_per_block_access
    assert trace.store_transactions == blocks * sectors_per_block_access
    # staged through shared memory: one store + one load per element
    assert trace.smem_bytes == 2 * cfg.n * cfg.n * 4
    assert trace.bank_conflict_factor == 1.0  # the skewed layout's whole point
    cost = trace_to_cost(trace, A100_80GB, name="transpose")
    expected_moved = (trace.load_transactions + trace.store_transactions) * 32.0
    assert cost.dram_bytes == max(expected_moved, 2 * cfg.n * cfg.n * 4)
    assert cost.blocks == blocks and cost.threads_per_block == tile * tile


def test_trace_to_cost_rejects_unknown_trace_types():
    with pytest.raises(TypeError, match="no trace->cost mapping for SimpleNamespace"):
        trace_to_cost(SimpleNamespace(flops=0.0), A100_80GB)
    # the per-type registry and its MRO walk are gone with their three registrants
    import repro.check

    for gone in ("register_adapter", "adapter_for"):
        assert not hasattr(repro.check, gone) and not hasattr(repro.check.adapters, gone)


def test_profile_threads_the_device_into_substrate_recording():
    from dataclasses import replace

    # a 128-byte-sector device: each 64-byte softmax row (16 floats)
    # half-fills its sector, so the recorded coalescing efficiency drops to
    # 0.5 — the device must reach the substrate's recorder, not just the
    # cost adapter
    wide = replace(A100_80GB, dram_sector_bytes=128)
    default = profile("softmax", {"implementation": "lego"})
    coarse = profile("softmax", {"implementation": "lego"}, device=wide)
    assert default.measured is not None and coarse.measured is not None
    assert default.trace["coalescing_efficiency"] == pytest.approx(1.0)
    assert coarse.trace["coalescing_efficiency"] == pytest.approx(0.5)
    assert coarse.trace["moved_dram_bytes"] == 2 * default.trace["moved_dram_bytes"]


def test_lud_static_smem_limit_follows_the_device():
    from dataclasses import replace

    roomy = replace(A100_80GB, max_static_smem_bytes=256 * 1024)
    rng = np.random.default_rng(0)
    assert lud_case({"block": 128, "cuda_block": 16}, rng) is None
    case = lud_case({"block": 128, "cuda_block": 16}, rng, device=roomy)
    assert isinstance(case, Case)


def test_adapter_charges_recorded_sector_granularity():
    from repro.minitriton.language import KernelTrace

    # transactions counted at a 64-byte granularity must be charged at it
    trace = KernelTrace(load_bytes=64.0, load_transactions=2.0, sector_bytes=64)
    cost = trace_to_cost(trace, A100_80GB)
    assert cost.dram_bytes == 128.0  # 2 transactions x the 64-byte sectors


# -- small-launch extrapolation (KernelCost.scaled) ---------------------------------


def test_scaled_lud_cost_matches_wider_wave():
    # one measured block extrapolated by KernelCost.scaled must equal a real
    # launch with that many blocks (the kernel is uniform per block)
    B = 8
    rng = np.random.default_rng(4)
    one = LudConfig(n=2 * B, block=B, cuda_block=B)
    four = LudConfig(n=3 * B, block=B, cuda_block=B)  # 2 x 2 trailing blocks
    m1 = (rng.standard_normal((one.n, one.n)) + one.n * np.eye(one.n)).astype(np.float32)
    m4 = (rng.standard_normal((four.n, four.n)) + four.n * np.eye(four.n)).astype(np.float32)
    _, t1 = run_lud_internal(m1, one)
    _, t4 = run_lud_internal(m4, four)
    scaled = trace_to_cost(t1, A100_80GB).scaled(4.0)
    real = trace_to_cost(t4, A100_80GB)
    assert scaled.flops == pytest.approx(real.flops)
    assert scaled.smem_bytes == pytest.approx(real.smem_bytes)
    assert scaled.blocks == pytest.approx(real.blocks)
    assert scaled.dram_bytes == pytest.approx(real.dram_bytes)


# -- profile() ----------------------------------------------------------------------


def test_profile_transpose_measures_and_compares():
    report = profile("transpose", {"variant": "smem", "skew": 1, "tile": 32,
                                   "generator": "lego"})
    assert report.passed and report.measured is not None
    assert report.measured_seconds > 0
    assert report.analytic_seconds > 0
    assert report.analytic_error < 3.0
    assert report.target_config["n"] == 2048
    assert report.scale == (2048 // 32) ** 2 / 4.0
    assert report.trace["bank_conflict_factor"] == pytest.approx(1.0)
    row = report.as_dict()
    assert row["status"] == "passed" and row["bound"] in ("dram", "smem", "compute", "l2")


def test_profile_skips_evaluation_only_baselines():
    report = profile("transpose", {"variant": "smem", "skew": 1, "tile": 32,
                                   "generator": "cuda_sdk"})
    assert report.skipped
    assert "no executable kernel" in report.reason


def test_profile_is_seed_deterministic():
    config = {"layout": "antidiagonal", "block": 8}
    a = profile("nw", config, seed=7)
    b = profile("nw", config, seed=7)
    assert a.measured is not None and b.measured is not None
    assert a.measured_seconds == b.measured_seconds
    assert a.trace == b.trace


def test_profile_and_search_take_no_engine():
    """One executor per substrate: nothing selects one, nothing records one."""
    from repro.tune import search

    config = {"variant": "smem", "skew": 1, "tile": 32, "generator": "lego"}
    measured = profile("transpose", config)
    tuned = autotune("transpose", measure_top_k=1)
    assert measured.measured is not None
    assert [p.extrapolated is not None for p in tuned.profiles] == [True]
    for artifact in (measured, tuned, *tuned.profiles):
        assert not hasattr(artifact, "engine")
    assert "engine" not in measured.as_dict() and "engine" not in tuned.summary()
    for call in (lambda: profile("transpose", config, engine="treewalk"),
                 lambda: sweep(["transpose"], 1, engine="treewalk"),
                 lambda: autotune("transpose", engine="treewalk"),
                 lambda: search("transpose", engine="treewalk")):
        with pytest.raises(TypeError, match="unexpected keyword argument 'engine'"):
            call()


# -- one execution: what is measured is what is verified -------------------------------


def _counting_spec(corrupt=()):
    """Two candidates (x=1 leads analytically) that log every ``execute`` call;
    configurations in ``corrupt`` return an output their reference disagrees with."""
    from repro.apps.registry import AppSpec
    from repro.minitriton.language import KernelTrace
    from repro.tune.space import Choice, SearchSpace

    calls = []

    def case(config, rng, device=None):
        x = rng.standard_normal(4).astype(np.float32)

        def execute(kernel, device=None):
            calls.append(config["x"])
            trace = KernelTrace(programs=1, load_bytes=16.0, load_transactions=1.0, flops=4.0)
            return (x + 1.0 if config["x"] in corrupt else x.copy()), trace

        return Case(config=dict(config), inputs={"x": x}, execute=execute)

    spec = AppSpec(name="adhoc", backend="triton", space=SearchSpace(Choice("x", (1, 2))),
                   evaluate=lambda config, device=None: 1e-3 * config["x"],
                   reference=lambda config, inputs: inputs["x"], case=case)
    return spec, calls


def test_profile_executes_its_case_once_and_carries_the_verdict():
    spec, calls = _counting_spec()
    report = profile(spec, {"x": 1})
    assert report.measured is not None and calls == [1]
    assert report.passed and report.elements == 4
    row = report.as_dict()
    assert {key: row[key] for key in ("status", "max_abs_error", "max_rel_error")} == {
        "status": "passed", "max_abs_error": 0.0, "max_rel_error": 0.0}


def test_wrong_output_is_a_failed_profile_the_ladder_demotes():
    from repro.check import CheckFailure
    from repro.tune import search

    spec, calls = _counting_spec(corrupt={1})
    bad = profile(spec, {"x": 1})
    assert bad.status == "failed" and "disagrees with the reference" in bad.reason
    assert bad.measured is None and bad.extrapolated is None
    result = search(spec, measure_top_k=2)
    assert [p.status for p in result.profiles] == ["failed", "passed"]
    assert result.best.config == {"x": 2} and result.best.measured
    assert result.ranked[-1].metrics["profile_status"] == "failed"
    # the verdicts are read back, not re-executed: two more launches, then the raise
    del calls[:]
    with pytest.raises(CheckFailure):
        search(spec, measure_top_k=2, verify_top_k=2)
    assert sorted(calls) == [1, 2]


def test_sweep_always_includes_the_preferred_config():
    rows = sweep(["lud"], samples=1)["lud"]
    first = next(iter(get_app("lud").space))
    assert rows[0].config == first
    assert any(row.measured is not None for row in rows)


def test_lud_perf_case_rejects_static_smem_overflow():
    rng = np.random.default_rng(0)
    assert lud_case({"block": 128, "cuda_block": 16}, rng) is None
    case = lud_case({"block": 64, "cuda_block": 16}, rng)
    assert isinstance(case, Case)
    nb = 2048 // 64
    assert case.scale == sum(j * j for j in range(1, nb))
    assert case.launches == 3 * nb
    with pytest.raises(ValueError, match="static shared"):
        run_lud_internal(np.eye(256, dtype=np.float32), LudConfig(n=256, block=128))


# -- two-stage tuning: the paper's winners under measured ranking ---------------------


def test_measured_autotune_reproduces_lud_block64_coarsen4():
    result = autotune("lud", measure_top_k=5)
    best = result.best
    assert best.measured
    assert best.config["block"] == 64
    assert best.config["cuda_block"] == 16  # coarsening 64 / 16 = 4
    assert best.metrics["analytic_error"] < 10.0
    # five distinct kernels measured; the block-128/256 leaders between
    # them need more static shared memory than the device allows
    measured = [p for p in result.profiles if p.measured is not None]
    skipped = [p for p in result.profiles if p.measured is None]
    assert len(measured) == 5
    assert all(p.status == "skipped" and p.config["block"] >= 128 for p in skipped)
    assert result.summary()["max_analytic_error"] < 10.0
    # measured candidates re-rank strictly ahead of analytic-only ones
    measured = [c for c in result.ranked if c.measured]
    assert result.ranked[: len(measured)] == measured


def test_measured_autotune_reproduces_nw_skewed_layout():
    result = autotune("nw", measure_top_k=4)
    best = result.best
    assert best.measured
    # the paper's fix: a conflict-free (anti-diagonal / skewed) buffer layout
    # (the staging phase contributes a trace of boundary conflicts, so the
    # wavefront-phase factor is near 1, not exactly 1)
    assert best.config["layout"] not in ("row", "col")
    assert best.metrics["bank_conflict_factor"] < 1.1
    assert result.summary()["max_analytic_error"] < 10.0
    conflicted = [p for p in result.profiles
                  if p.measured is not None and p.config["layout"] in ("row", "col")]
    for p in conflicted:
        assert p.trace["bank_conflict_factor"] > 1.1


def test_measured_autotune_reproduces_transpose_smem_over_naive():
    result = autotune("transpose", measure_top_k=5)
    best = result.best
    assert best.measured
    assert best.config["variant"] == "smem"
    assert best.config["generator"] == "lego"
    summary = result.summary()
    assert summary["candidates_measured"] >= 1
    assert summary["max_analytic_error"] < 10.0
    assert summary["best_measured_time_ms"] > 0


def test_measured_autotune_records_disagreement_per_candidate():
    result = autotune("lud", measure_top_k=3)
    measured = [c for c in result.evaluations if c.measured]
    assert measured
    for candidate in measured:
        assert candidate.metrics["analytic_error"] >= 1.0
        assert "coalescing_efficiency" in candidate.metrics
        assert candidate.metrics["measured_bound"] in ("dram", "smem", "compute", "l2")
