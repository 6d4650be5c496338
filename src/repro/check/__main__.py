"""``python -m repro.check`` — the evidence sweep.

Draws randomized valid configurations from every app's search space (the
paper-preferred one always included) and runs the one pass over each:
generate the kernel, execute a small full launch on its substrate, compare
the output with the app's NumPy reference model and cost the trace of that
same run against the app's analytic model.  The 125-point cube stencil, the
widest launch of the eight apps, is always added in both layouts (reported
apart from the draw).  Then the symbolic layer is fuzzed.  Everything
derives from the one ``--seed``, so any printed failure replays exactly::

    PYTHONPATH=src python -m repro.check --apps all --samples 3 --seed 0 \\
        --max-error 20 --max-error-for matmul=10 --max-error-for transpose=10 \\
        --max-error-for nw=10 --max-error-for stencil=130

The sweep fails (exit 1) when a row failed — a wrong output, or a
configuration that could not be built, executed or costed — when an app
measured no row, when a measured vs analytic disagreement exceeds its app's
bound (``--max-error``, overridden per app by ``--max-error-for APP=BOUND``)
or when the fuzz failed.  The bounds above are CI's: matmul, transpose and
NW must agree within 10x, and the stencil gets a wide one because the
cache-less substrates bill every neighbour pass of the cube stencils as
DRAM traffic that real hardware's L2 absorbs (DESIGN.md, "Verification and
measurement").  A malformed flag is a usage error (exit 2).

Writes ``BENCH_check.json``: per-app verified and measured counts, maximum
output errors, worst analytic error against its bound, every row, and the
fuzz report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from ..apps.registry import available_apps
from .fuzz import fuzz_symbolic
from .runner import profile, sweep

__all__ = ["main", "run_sweep"]


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _app_bound(text: str) -> tuple[str, float]:
    app, sep, bound = text.partition("=")
    if not sep or not app.strip():
        raise argparse.ArgumentTypeError(f"expected APP=BOUND, got {text!r}")
    return app.strip(), _positive(bound)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Verify generated kernels against NumPy reference models and measure them "
                    "against the analytic model, in one execution each.",
    )
    parser.add_argument("--apps", default="all",
                        help="comma-separated app names, or 'all' (default)")
    parser.add_argument("--samples", type=_count, default=3,
                        help="randomly sampled configurations per app (default: 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; every config draw and input buffer derives from it (default: 0)")
    parser.add_argument("--fuzz", type=int, default=150,
                        help="symbolic-layer fuzz trials (default: 150; 0 disables)")
    parser.add_argument("--max-error", type=_positive, default=20.0, dest="max_error",
                        help="fail when measured vs analytic disagree by more than this factor (default: 20)")
    parser.add_argument("--max-error-for", type=_app_bound, action="append", default=[],
                        metavar="APP=BOUND", dest="max_error_for",
                        help="per-app override of --max-error (repeatable, e.g. --max-error-for matmul=10)")
    parser.add_argument("--json", default="BENCH_check.json", metavar="PATH", dest="json_path",
                        help="write the report here (default: BENCH_check.json; '-' disables)")
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    registered = available_apps()
    args.apps = registered if args.apps == "all" else [
        name.strip() for name in args.apps.split(",") if name.strip()]
    unknown = sorted(set(args.apps) - set(registered))
    if unknown:
        parser.error(f"argument --apps: unknown app(s) {', '.join(unknown)} "
                     f"(registered: {', '.join(registered)})")
    outside = sorted({app for app, _ in args.max_error_for} - set(args.apps))
    if outside:
        parser.error(f"argument --max-error-for: {', '.join(outside)} not in the sweep "
                     f"(apps: {', '.join(args.apps)})")
    return args


def _group(rows, bound: float) -> dict:
    """Counts, worst errors and the analytic-bound verdict of some rows."""
    passed = [row for row in rows if row.passed]
    measured = [row for row in passed if row.extrapolated is not None]
    worst = max((row.analytic_error for row in measured), default=1.0)
    return {
        "configs": len(rows),
        "verified": len(passed),
        "measured": len(measured),
        "failed": sum(row.status == "failed" for row in rows),
        "skipped": sum(row.skipped for row in rows),
        "max_abs_error": max((row.max_abs_error for row in passed), default=0.0),
        "max_rel_error": max((row.max_rel_error for row in passed), default=0.0),
        "max_analytic_error": worst,
        "max_error": bound,
        "errors_ok": worst <= bound,
        "rows": [row.as_dict() for row in rows],
    }


def run_sweep(args: argparse.Namespace) -> dict:
    """The sweep's report for arguments parsed by :func:`main`."""
    bounds = dict(args.max_error_for)
    results = sweep(args.apps, samples=args.samples, seed=args.seed)
    report: dict = {
        "seed": args.seed,
        "samples": args.samples,
        "max_error": args.max_error,
        "max_error_for": bounds,
        "apps": {name: _group(rows, bounds.get(name, args.max_error))
                 for name, rows in results.items()},
    }
    groups = list(report["apps"].values())
    if "stencil" in results:
        widest = [profile("stencil", {"stencil": "cube-125pt", "layout": layout, "brick": 8},
                          seed=args.seed) for layout in ("brick", "array")]
        report["widest"] = _group(widest, bounds.get("stencil", args.max_error))
        groups.append(report["widest"])
    report["failures"] = [row for group in groups for row in group["rows"]
                          if row["status"] == "failed"]
    failed = len(report["failures"])
    if args.fuzz > 0:
        fuzz = fuzz_symbolic(trials=args.fuzz, seed=args.seed)
        report["fuzz"] = fuzz.as_dict()
        failed += len(fuzz.failures)
    # the totals count the draw; `failed` counts every failure source the
    # `ok` verdict is based on (the widest rows and the fuzz included)
    for key in ("verified", "measured", "skipped"):
        report[key] = sum(group[key] for group in report["apps"].values())
    report["failed"] = failed
    report["max_analytic_error"] = max((group["max_analytic_error"] for group in groups), default=1.0)
    report["ok"] = (
        failed == 0
        and all(group["errors_ok"] for group in groups)
        and all(group["measured"] > 0 for group in report["apps"].values())
    )
    return report


def _print(report: dict) -> None:
    named = list(report["apps"].items())
    if "widest" in report:
        named.append(("cube-125pt", report["widest"]))
    for name, group in named:
        print(f"{name:>14}: {group['verified']}/{group['configs']} verified"
              f" ({group['skipped']} skipped, {group['failed']} failed)"
              f"  max_abs={group['max_abs_error']:.3g} max_rel={group['max_rel_error']:.3g}"
              f"  worst analytic error {group['max_analytic_error']:.2f}x"
              f" (limit {group['max_error']:g}x)")
        for row in group["rows"]:
            if row["extrapolated"] is not None:
                print(f"{'':>16}{row['config']}: measured={row['measured_ms']:.4g}ms "
                      f"analytic={row['analytic_ms']:.4g}ms error={row['analytic_error']:.2f}x "
                      f"bound={row['bound']} "
                      f"coalescing={row['trace']['coalescing_efficiency']:.2f} "
                      f"conflicts={row['trace']['bank_conflict_factor']:.2f}")
        if not group["errors_ok"]:
            print(f"ANALYTIC ERROR {name}: {group['max_analytic_error']:.2f}x exceeds "
                  f"{group['max_error']:g}x")
    for name, group in report["apps"].items():
        if group["measured"] == 0:
            print(f"NOT MEASURED {name}: no row of the draw passed and was measured")
    for failure in report["failures"]:
        print(f"FAILED {failure['app']} {failure['config']}: {failure['reason']} "
              f"(seed={failure['seed']})")
    if "fuzz" in report:
        fuzz = report["fuzz"]
        print(f"{'fuzz':>14}: {fuzz['trials']} trials x {len(fuzz['checked'])} properties, "
              f"{len(fuzz['failures'])} failures")
        for failure in fuzz["failures"]:
            print(f"FUZZ FAILED [{failure['property']}] {failure['expression']} "
                  f"{failure['bindings']}: {failure['detail']} (seed={failure['seed']})")
    print(f"seed={report['seed']} verified={report['verified']} measured={report['measured']} "
          f"skipped={report['skipped']} failed={report['failed']} "
          f"max_error={report['max_analytic_error']:.2f}x ok={report['ok']}")


def main(argv: list[str] | None = None) -> dict:
    args = _parse(argv)
    report = run_sweep(args)
    _print(report)
    if args.json_path != "-":
        Path(args.json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


if __name__ == "__main__":
    sys.exit(0 if main()["ok"] else 1)
