"""``python -m repro.perf`` — the measured-profiling sweep.

Draws randomized valid configurations from every app's search space (the
paper-preferred configuration always included), executes each kernel's
case on its substrate, converts the trace into a measured
:class:`~repro.gpusim.KernelCost` and compares the device-model time
against the app's analytic estimate::

    PYTHONPATH=src python -m repro.perf --apps all --samples 3 --seed 0

Writes a JSON artifact (default ``BENCH_perf.json``) with per-app measured
vs analytic times, bound resources, coalescing efficiencies and
bank-conflict factors — the seed of the performance trajectory, uploaded by
the ``perf-smoke`` CI job.  The sweep fails (exit 1) when any measured vs
analytic disagreement exceeds ``--max-error``: a model whose analytic and
measured answers differ by an order of magnitude is broken on one side or
the other, and the tripwire catches it before the tuner trusts either.
The bound is per-app: ``--max-error-for APP=BOUND`` overrides the global
``--max-error`` (the CI job pins matmul/transpose/nw at 10x and gives the
stencil its own wide bound, because the cache-less substrates honestly
over-charge the cube stencils' neighbour reuse — every one of the
125-point stencil's passes is billed as DRAM traffic where real
hardware's L2 absorbs them; see DESIGN.md, "Measured profiling").

Besides the sampled configurations the sweep always profiles the 125-point
cube stencil (the widest launch of the eight apps) in both layouts.  Every
profile carries the differential verdict on the output of the execution it
measured (:attr:`KernelProfile.check`), so a configuration is launched
once; a disagreeing output is a failed profile, listed under
``check_failures``.  The substrates run under the ambient :mod:`repro.vm`
engine mode (``REPRO_VM=treewalk`` sweeps the reference interpreters).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..apps.registry import available_apps
from ..vm.engine import engine_mode
from .profile import profile, profile_all

__all__ = ["main", "run_sweep"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Measure generated kernels on their substrates and compare to the analytic model.",
    )
    parser.add_argument("--apps", default="all",
                        help="comma-separated app names, or 'all' (default)")
    parser.add_argument("--samples", type=int, default=3,
                        help="randomly sampled configurations per app (default: 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; every config draw and input buffer derives from it (default: 0)")
    parser.add_argument("--max-error", type=float, default=20.0, dest="max_error",
                        help="fail when measured vs analytic disagree by more than this factor (default: 20)")
    parser.add_argument("--max-error-for", action="append", default=[], metavar="APP=BOUND",
                        dest="max_error_for",
                        help="per-app override of --max-error (repeatable, e.g. --max-error-for matmul=10)")
    parser.add_argument("--json", default="BENCH_perf.json", metavar="PATH", dest="json_path",
                        help="write the report here (default: BENCH_perf.json; '-' disables)")
    return parser


def _per_app_bounds(args: argparse.Namespace) -> dict[str, float]:
    bounds: dict[str, float] = {}
    for item in getattr(args, "max_error_for", None) or []:
        app, _, bound = item.partition("=")
        if not bound:
            raise SystemExit(f"--max-error-for expects APP=BOUND, got {item!r}")
        bounds[app.strip()] = float(bound)
    return bounds


def run_sweep(args: argparse.Namespace) -> dict:
    apps = available_apps() if args.apps == "all" else [a.strip() for a in args.apps.split(",") if a.strip()]
    bounds = _per_app_bounds(args)
    results = profile_all(apps, samples=args.samples, seed=args.seed)
    if "stencil" in results:
        # the widest launch of the eight apps, whatever the draw
        for layout in ("brick", "array"):
            config = {"stencil": "cube-125pt", "layout": layout, "brick": 8}
            results["stencil"].append(profile("stencil", config, seed=args.seed))
    report: dict = {
        "seed": args.seed,
        "samples": args.samples,
        "max_error": args.max_error,
        "max_error_for": dict(bounds),
        "engine": engine_mode(),
        "apps": {},
        "failures": [],
        "check_failures": [],
    }
    measured = failed = skipped = 0
    worst = 1.0
    errors_ok = True
    for name, profiles in results.items():
        rows = [p.as_dict() for p in profiles]
        good = [p for p in profiles if p.ok]
        bad = [p for p in profiles if p.status == "failed"]
        app_worst = max((p.analytic_error for p in good), default=1.0)
        app_bound = bounds.get(name, args.max_error)
        app_errors_ok = app_worst <= app_bound
        report["apps"][name] = {
            "configs": len(profiles),
            "measured": len(good),
            "failed": len(bad),
            "skipped": sum(1 for p in profiles if p.skipped),
            "max_analytic_error": app_worst,
            "max_error": app_bound,
            "errors_ok": app_errors_ok,
            "rows": rows,
        }
        report["failures"].extend(p.as_dict() for p in bad)
        measured += len(good)
        failed += len(bad)
        skipped += sum(1 for p in profiles if p.skipped)
        worst = max(worst, app_worst)
        errors_ok = errors_ok and app_errors_ok
        report["check_failures"].extend(
            p.check.as_dict() for p in bad if p.check is not None)
    report["measured"] = measured
    report["failed"] = failed
    report["skipped"] = skipped
    report["max_analytic_error"] = worst
    # the sweep is healthy when nothing errored or computed a wrong answer
    # (both are failed profiles), every app measured at least one kernel and
    # no measured/analytic pair tripped its app's sanity bound
    report["ok"] = (
        failed == 0
        and errors_ok
        and all(row["measured"] > 0 for row in report["apps"].values())
    )
    return report


def main(argv: list[str] | None = None) -> dict:
    args = _build_parser().parse_args(argv)
    report = run_sweep(args)
    for name, row in report["apps"].items():
        print(
            f"{name:>14}: {row['measured']}/{row['configs']} measured"
            f" ({row['skipped']} skipped, {row['failed']} failed)"
            f"  worst analytic error {row['max_analytic_error']:.2f}x"
        )
        for entry in row["rows"]:
            if entry["status"] != "measured":
                continue
            print(
                f"{'':>16}{entry['config']}: measured={entry['measured_ms']:.4g}ms "
                f"analytic={entry['analytic_ms']:.4g}ms error={entry['analytic_error']:.2f}x "
                f"bound={entry['bound']} "
                f"coalescing={entry['metrics']['coalescing_efficiency']:.2f} "
                f"conflicts={entry['metrics']['bank_conflict_factor']:.2f}"
            )
    for failure in report["failures"]:
        print(f"FAILED {failure['app']} {failure['config']}: {failure['reason']} "
              f"(seed={failure['seed']})")
    for check in report["check_failures"]:
        print(f"CHECK FAILED {check['app']} {check['config']}: {check['reason']} "
              f"(seed={check['seed']})")
    print(
        f"seed={report['seed']} measured={report['measured']} skipped={report['skipped']} "
        f"failed={report['failed']} max_error={report['max_analytic_error']:.2f}x "
        f"ok={report['ok']}"
    )
    if args.json_path and args.json_path != "-":
        Path(args.json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


if __name__ == "__main__":
    sys.exit(0 if main()["ok"] else 1)
