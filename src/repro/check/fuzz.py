"""Property-based fuzzing of the symbolic layer (the Table II substrate).

The paper's rewrite rules are pinned by targeted property tests; this module
complements them with randomized coverage: random :class:`~repro.symbolic.Expr`
trees over a small variable set, random integer bindings, and seven properties
checked per trial —

* ``simplify(e, env)`` evaluates exactly like ``e`` under the bindings,
* ``simplify_fixpoint(e, env)`` likewise (the rules are sound to a fixpoint),
* the :class:`~repro.symbolic.PythonPrinter` round-trips: evaluating the
  printed text as Python reproduces the expression's value,
* the full lowering path (``lower_expression``: expand-vs-not variant
  selection plus simplification) preserves the value,
* the value lies within ``env.range_of(expr)`` — the range analysis the
  prover and guard elimination trust (a symbolic end is evaluated under the
  bindings),
* when ``0 <= e`` is refuted at a witness valuation of the environment, the
  prover's proving stages (run directly, beneath the refuter) do not prove it,
* sharing is invisible: ``simplify_fixpoint``, ``range_of`` and the ``0 <= e``
  verdict read off the memo table as every earlier trial left it (four fact
  sets serve all trials) equal the answers derived on an empty table
  (:func:`fuzz_symbolic` checks this across trials and leaves the table empty).

Half the trials declare (and draw bindings from) a range with a negative
lower end, so the negative floor-division/modulo paths are fuzzed too.

Floor-division and modulo denominators are wrapped in ``Max(.., 1)`` so every
generated tree is total over the sampled bindings — the same discipline the
layout algebra itself follows for its extents.

Seed discipline (the satellite contract): every trial derives its RNG from an
explicit integer seed recorded on any failure, with no module-level RNG state
anywhere, so ``fuzz_trial(reported_seed)`` replays one failure exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..codegen.context import lower_expression
from ..symbolic import (
    Const,
    Expr,
    Max,
    Min,
    PythonPrinter,
    SymbolicEnv,
    Var,
    clear_memos,
    prove_le,
    simplify,
    simplify_fixpoint,
)
from ..symbolic.prover import _ladder_stages, refuted
from .runner import stable_seed

__all__ = [
    "FUZZ_VARS",
    "FuzzFailure",
    "FuzzReport",
    "random_expr",
    "fuzz_trial",
    "fuzz_symbolic",
]

#: the variable alphabet of generated expressions
FUZZ_VARS = ("i", "j", "k", "m", "n")

#: each trial declares one of these inclusive ranges for every variable and
#: draws its bindings from it
VALUE_RANGES = ((0, 12), (0, 12), (-6, 6), (-9, 3))

#: the properties one trial asserts, in evaluation order
PROPERTIES = ("simplify", "fixpoint", "printer", "lowering", "range", "refuter", "sharing")


@dataclass(frozen=True)
class FuzzFailure:
    """One violated property, with everything needed to replay it."""

    trial: int
    seed: int
    property: str
    expression: str
    bindings: dict
    detail: str

    def as_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "property": self.property,
            "expression": self.expression,
            "bindings": dict(self.bindings),
            "detail": self.detail,
        }


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    trials: int
    seed: int
    checked: dict = field(default_factory=dict)  # property -> assertions run
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "checked": dict(self.checked),
            "failures": [f.as_dict() for f in self.failures],
        }


def random_expr(rng: random.Random, depth: int = 4) -> Expr:
    """A random expression tree over :data:`FUZZ_VARS`.

    Division and modulo denominators are ``Max(sub, 1)`` — provably positive
    under range analysis, so the tree evaluates (and simplifies) without
    division-by-zero for any binding in :data:`VALUE_RANGES`.
    """
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(FUZZ_VARS))
        return Const(rng.randint(-3, 9))
    op = rng.choice(("add", "add", "mul", "mul", "sub", "div", "mod", "min", "max"))
    lhs = random_expr(rng, depth - 1)
    rhs = random_expr(rng, depth - 1)
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "min":
        return Min(lhs, rhs)
    if op == "max":
        return Max(lhs, rhs)
    denominator = Max(rhs, 1)
    return lhs // denominator if op == "div" else lhs % denominator


def _draw_trial(trial_seed: int, depth: int) -> tuple[Expr, tuple[int, int], dict, SymbolicEnv]:
    """The one place a trial's expression, declared range, bindings and
    environment are derived from its seed — replay and reporting must never
    re-implement this sequence."""
    rng = random.Random(trial_seed)
    expr = random_expr(rng, depth)
    value_range = rng.choice(VALUE_RANGES)
    bindings = {name: rng.randint(*value_range) for name in FUZZ_VARS}
    env = SymbolicEnv()
    for name in FUZZ_VARS:
        env.declare_range(name, *value_range)
    return expr, value_range, bindings, env


def _memoised_answers(trial_seed: int, depth: int) -> tuple:
    """What the sharing property compares: one answer per memo family (or the
    exception deriving them raised), on the memo table as it stands."""
    expr, _, _, env = _draw_trial(trial_seed, depth)
    try:
        return simplify_fixpoint(expr, env), env.range_of(expr), prove_le(Const(0), expr, env)
    except Exception as exc:  # noqa: BLE001 - a crash must be the same crash with or without sharing
        return type(exc).__name__, str(exc)


def fuzz_trial(trial_seed: int, depth: int = 4) -> list[tuple[str, str]]:
    """Run one trial from its seed; returns ``(property, detail)`` violations
    of the six properties a trial can judge alone.

    This is the replay entry point: feed it the ``seed`` printed on a
    :class:`FuzzFailure` and it rebuilds the identical expression, bindings
    and environment.
    """
    expr, value_range, bindings, env = _draw_trial(trial_seed, depth)
    expected = expr.evaluate(bindings)
    violations: list[tuple[str, str]] = []

    def check(prop: str, fn, holds=lambda got: got == expected) -> None:
        try:
            got = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is as much a soundness bug as a wrong value
            violations.append((prop, f"raised {type(exc).__name__}: {exc}"))
            return
        if not holds(got):
            violations.append((prop, f"evaluated to {got}, expression gives {expected}"))

    def range_ends() -> tuple:
        r = env.range_of(expr)
        return tuple(None if end is None else end.evaluate(bindings) for end in (r.lo, r.hi))

    check("simplify", lambda: simplify(expr, env).evaluate(bindings))
    check("fixpoint", lambda: simplify_fixpoint(expr, env).evaluate(bindings))
    check(
        "printer",
        lambda: eval(  # noqa: S307 - text printed from our own IR
            PythonPrinter().doprint(expr),
            {"__builtins__": {}, "min": min, "max": max},
            dict(bindings),
        ),
    )
    check("lowering", lambda: lower_expression(expr, env)[0].evaluate(bindings))
    check(
        "range",
        range_ends,
        lambda ends: (ends[0] is None or ends[0] <= expected)
        and (ends[1] is None or expected <= ends[1]),
    )
    check(
        "refuter",
        lambda: refuted(Const(0), expr, env) and _ladder_stages(expr, env),
        lambda refuted_yet_proven: not refuted_yet_proven,
    )
    if violations:
        # annotate with the replay material once, not per property
        printed = str(expr)
        violations = [
            (prop, f"{detail} [expr: {printed}; declared: {value_range}; bindings: {bindings}]")
            for prop, detail in violations
        ]
    return violations


def fuzz_symbolic(trials: int = 200, seed: int = 0, depth: int = 4) -> FuzzReport:
    """Run ``trials`` randomized soundness trials of the symbolic layer."""
    report = FuzzReport(trials=trials, seed=seed, checked={prop: trials for prop in PROPERTIES})
    seeds = [stable_seed(seed, "fuzz", trial) for trial in range(trials)]
    shared, found = [], []
    for trial, trial_seed in enumerate(seeds):
        # asked first, so the table holds only what earlier trials left in it
        shared.append(_memoised_answers(trial_seed, depth))
        found += [(trial, prop, detail) for prop, detail in fuzz_trial(trial_seed, depth)]
    for trial, trial_seed in enumerate(seeds):
        clear_memos()
        alone = _memoised_answers(trial_seed, depth)
        if alone != shared[trial]:
            found.append((trial, "sharing", f"after the earlier trials: {shared[trial]}, "
                                            f"on an empty table: {alone}"))
    clear_memos()
    for trial, prop, detail in found:
        expr, _, bindings, _ = _draw_trial(seeds[trial], depth)
        report.failures.append(
            FuzzFailure(
                trial=trial,
                seed=seeds[trial],
                property=prop,
                expression=str(expr),
                bindings=bindings,
                detail=detail,
            )
        )
    return report
