"""Witness valuations: the prover's refuter, and the oracle it doubles as.

A witness is a concrete valuation of an environment's variables at which every
declared fact holds.  The prover uses one to *refute* (an obligation false
there cannot follow from the facts); these tests use the same points the other
way round: every obligation the ladder *proves* must hold at all of them.
"""

import sys
from contextlib import contextmanager

import pytest

from repro.apps.registry import available_apps, get_app
from repro.symbolic import (
    CACHE_PREFIX,
    Interval,
    SymbolicEnv,
    Var,
    as_expr,
    cache_statistics,
    clear_memos,
    prove_le,
    prove_lt,
    prove_nonneg,
    prover,
)
from test_prover_completeness import generation_sweep

simplify_module = sys.modules["repro.symbolic.simplify"]  # the package re-exports the function


def compile_corpus():
    """Every distinct ``(app, generate_config(cfg))`` — perfbench's 85 kernels."""
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
                yield spec, projected


def generate_everything():
    kernels = []
    for spec, config in compile_corpus():
        clear_memos()  # every kernel derives (and checks) its own algebra
        kernels.append(spec.generate(config))
    assert len(kernels) == 85
    generation_sweep()


def holds(env: SymbolicEnv, point: dict) -> bool:
    """The four fact families at ``point``, written out independently of the builder."""
    for name, bound in env.variables().items():
        if bound.lo is not None and not bound.lo.evaluate(point) <= point[name]:
            return False
        if bound.hi is not None and not point[name] <= bound.hi.evaluate(point):
            return False
    return (
        all(x.evaluate(point) % d.evaluate(point) == 0 for x, d in env.divisibility_facts())
        and all(e.evaluate(point) >= 1 for e in env._positive_exprs)
        and all(a.evaluate(point) <= b.evaluate(point) for a, b in env.le_facts())
    )


def ladder_counts() -> dict:
    rules = CACHE_PREFIX + "rule_applications."
    return {k[len(rules):]: v for k, v in cache_statistics().items()
            if k.startswith((rules + "ladder:", rules + "witness:"))}


def ladder_delta(before: dict) -> dict:
    after = ladder_counts()
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


# -- the builder --------------------------------------------------------------------


def test_every_corpus_witness_satisfies_all_four_fact_families(monkeypatch):
    built = []
    original = SymbolicEnv.witnesses

    def checked(env):
        points = original(env)
        assert all(holds(env, point) for point in points), env
        built.append(len(points))
        return points

    monkeypatch.setattr(SymbolicEnv, "witnesses", checked)
    generate_everything()
    assert built and min(built) >= 1, "a corpus environment has no witness"
    assert max(built) == 6


def test_witnesses_are_deterministic_and_cover_symbolic_ends():
    def matmul_like():
        env = SymbolicEnv()
        env.declare_size("K", "BK", "nt_m", "nt_n")
        env.declare_divisible(Var("K"), Var("BK"))
        env.declare_index("k", Var("K") // Var("BK"))
        env.declare_index("pid", Var("nt_m") * Var("nt_n"))
        return env

    first, second = matmul_like().witnesses(), matmul_like().witnesses()
    assert first == second and len(first) == 6
    assert all(p["K"] % p["BK"] == 0 and 0 <= p["k"] < p["K"] // p["BK"] for p in first)


def test_contradictory_facts_yield_no_witnesses_and_change_nothing():
    env = SymbolicEnv()
    i = env.declare_range("i", 5, 2)
    before = ladder_counts()
    assert env.witnesses() == ()
    assert prove_nonneg(i, env)  # lower end 5, as ever
    with pytest.raises(ValueError, match="empty interval"):
        prove_nonneg(as_expr(i) - 10, env)  # the integer kernel's complaint, as ever
    assert ladder_delta(before) == {"witness:none": 1, "ladder:structure": 1}


def test_undeclared_variables_are_skipped_never_guessed():
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    before = ladder_counts().get("ladder:refuted", 0)
    # ``n`` has no value at any witness: nothing to refute with, the ladder abstains
    assert not prove_le(as_expr(i) + 100, Var("n"), env)
    assert ladder_counts().get("ladder:refuted", 0) == before


# -- the refuter --------------------------------------------------------------------


def test_refuted_at_every_level_counts_once():
    env = SymbolicEnv()
    env.declare_size("BN")
    i = env.declare_index("i", Var("BN"))
    j = env.declare_index("j", 64)
    for query in (
        lambda: prove_lt(as_expr(j) * 2, 64, env),          # prove_le's own exit
        lambda: prove_nonneg(as_expr(i) - 1, env),          # the ladder's first rung
        lambda: simplify_module.simplify((as_expr(j) + 64) // 64, env),  # rule 4, outermost
    ):
        before = ladder_counts()
        query()
        delta = ladder_delta(before)
        assert delta.get("ladder:refuted") == 1 and "ladder:abstain" not in delta, delta


# -- the oracle: nothing the ladder proves is false at a witness -----------------------


@contextmanager
def proofs_checked_at_witnesses(monkeypatch):
    """Bypass the refuter everywhere (so the stages see every obligation, as
    they did before there was one) and check each obligation they prove at
    every witness of its environment; yields the list of violations."""
    violations = []
    stages = prover._ladder_stages

    def checked(expr, env):
        proven = stages(expr, env)
        if proven:
            for point in env.witnesses():
                try:
                    if expr.evaluate(point) < 0:
                        violations.append((str(expr), point))
                except (KeyError, ZeroDivisionError):
                    continue
        return proven

    with monkeypatch.context() as patch:
        patch.setattr(prover, "refuted", lambda *args, **kwargs: False)
        patch.setattr(simplify_module, "refuted", lambda *args, **kwargs: False)
        patch.setattr(prover, "_ladder_stages", checked)
        yield violations


def test_every_proven_obligation_holds_at_every_witness(monkeypatch):
    before = ladder_counts()
    with proofs_checked_at_witnesses(monkeypatch) as violations:
        generate_everything()
    assert not violations, violations[:5]
    delta = ladder_delta(before)
    # the bypass really ran the stages on the false obligations too
    assert delta["ladder:abstain"] > 500 and "ladder:refuted" not in delta


def test_the_oracle_catches_a_broken_transfer_function(monkeypatch):
    mod = Interval.mod

    def mod_one_short(self, other):
        out = mod(self, other)
        return Interval(out.lo, None if out.hi is None else out.hi - 1)

    def obligation():
        env = SymbolicEnv()
        x = env.declare_range("x", 0, 40)
        return prove_le(as_expr(x) % 4, 2, env)  # false whenever x % 4 == 3

    with proofs_checked_at_witnesses(monkeypatch) as violations:
        assert not obligation() and not violations
        monkeypatch.setattr(Interval, "mod", mod_one_short)
        clear_memos()  # the rule of ``clear_memos``: swap a transfer function, clear
        assert obligation(), "the mutation should make the range stage over-claim"
    assert violations, "a proven-but-false obligation went unnoticed"
    # and with the refuter in place the same mutation no longer yields a wrong proof
    clear_memos()
    assert not obligation()
