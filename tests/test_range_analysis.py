"""Range analysis: the integer kernel, the one walker, unified caches, proofs."""

import operator

import pytest

from repro.obs import REGISTRY
from repro.symbolic import (
    CACHE_PREFIX,
    Const,
    Interval,
    Min,
    SymbolicEnv,
    SymInterval,
    Var,
    affine_strides,
    as_expr,
    cache_statistics,
    clear_memos,
    constant_interval,
    is_mixed_radix_bijection,
    is_nonzero,
    is_positive,
    prove_in_bounds,
    prove_le,
    prove_lt,
    prove_nonneg,
    prove_positive,
    record_proof_queries,
    simplify_fixpoint,
)


def _delta(before: dict) -> dict:
    """Symbolic cache counts since the ``before`` snapshot, by field name."""
    delta = REGISTRY.delta(before, cache_statistics())
    return {key[len(CACHE_PREFIX):]: value for key, value in delta.items()}


# -- one soundness oracle for every Interval transfer function ----------------------


_ENDPOINTS = (-6, -3, -1, 0, 1, 3, 6)

_BOUNDED = [Interval(lo, hi) for lo in _ENDPOINTS for hi in _ENDPOINTS if lo <= hi]

#: (abstract transfer function, concrete operation); ``neg`` is unary
_TRANSFER = {
    "add": (Interval.__add__, operator.add),
    "neg": (Interval.__neg__, operator.neg),
    "sub": (Interval.__sub__, operator.sub),
    "mul": (Interval.__mul__, operator.mul),
    "floordiv": (Interval.floordiv, operator.floordiv),
    "mod": (Interval.mod, operator.mod),
    "min": (Interval.min, min),
    "max": (Interval.max, max),
}


def _sample_values(interval, spread=25):
    lo = interval.lo if interval.lo is not None else -spread
    hi = interval.hi if interval.hi is not None else spread
    return range(lo, hi + 1)


def _assert_transfer_sound(name, lhs_intervals, rhs_intervals):
    """The oracle: every concrete result lands inside the abstract one."""
    abstract, concrete = _TRANSFER[name]
    if name == "neg":
        for a in list(lhs_intervals) + list(rhs_intervals):
            result = abstract(a)
            for x in _sample_values(a):
                assert result.contains(concrete(x)), (name, a, x, result)
        return
    for a in lhs_intervals:
        for b in rhs_intervals:
            result = abstract(a, b)
            for x in _sample_values(a):
                for y in _sample_values(b):
                    if y == 0 and name in ("floordiv", "mod"):
                        continue  # undefined executions need no cover
                    assert result.contains(concrete(x, y)), (name, a, b, x, y, result)


@pytest.mark.parametrize("name", ["add", "neg", "sub", "mul", "min", "max"])
def test_interval_transfer_sound_on_bounded_intervals(name):
    _assert_transfer_sound(name, _BOUNDED, _BOUNDED)


def test_interval_floordiv_sound_on_bounded_intervals():
    _assert_transfer_sound("floordiv", _BOUNDED, _BOUNDED)


def test_interval_mod_sound_on_bounded_intervals():
    _assert_transfer_sound("mod", _BOUNDED, _BOUNDED)


@pytest.mark.parametrize("num", [
    Interval(None, -1), Interval(None, 6), Interval(-3, None),
    Interval(0, None), Interval(None, None),
])
@pytest.mark.parametrize("den", [
    Interval(1, 4), Interval(-4, -1), Interval(-3, 5),
    Interval(2, None), Interval(None, -2), Interval(None, None),
])
def test_interval_divmod_sound_on_half_bounded_intervals(num, den):
    # every transfer function, not only div/mod, over each half-bounded pair
    for name in _TRANSFER:
        _assert_transfer_sound(name, [num], [den])
        if name in ("add", "mul", "min", "max"):
            continue  # commutative: one order covers both
        _assert_transfer_sound(name, [den], [num])


def test_interval_min_max_keep_the_finite_end():
    # the smaller value is below either finite upper end, the larger above
    # either finite lower end: an unbounded partner must not erase them
    assert Interval(0, 5).min(Interval(2, None)) == Interval(0, 5)
    assert Interval(2, None).min(Interval(0, 5)) == Interval(0, 5)
    assert Interval(None, 5).max(Interval(2, 7)) == Interval(2, 7)
    assert Interval(2, 7).max(Interval(None, 5)) == Interval(2, 7)
    assert Interval(None, 5).min(Interval(2, 7)) == Interval(None, 5)
    assert Interval(0, None).max(Interval(2, 7)) == Interval(2, None)


def test_interval_floordiv_precision():
    # tight, not just sound: the positive-divisor corners
    assert Interval(0, 7).floordiv(Interval(2, 2)) == Interval(0, 3)
    assert Interval(-7, -1).floordiv(Interval(2, 2)) == Interval(-4, -1)
    # negative numerator with an unbounded divisor stays strictly negative
    assert Interval(-7, -3).floordiv(Interval(1, None)) == Interval(-7, -1)
    # negative divisor through the x//d == (-x)//(-d) identity
    assert Interval(1, 7).floordiv(Interval(-2, -2)) == Interval(-4, -1)


def test_interval_mod_precision():
    assert Interval(0, 100).mod(Interval(8, 8)) == Interval(0, 7)
    # the nonneg identity: a value already below the divisor is unchanged
    assert Interval(2, 5).mod(Interval(8, 8)) == Interval(2, 5)
    # negative divisor: python mod lands in (d, 0]
    assert Interval(0, 100).mod(Interval(-8, -8)) == Interval(-7, 0)


# -- the one walker: env.range_of / constant_interval -------------------------------


def test_index_range_of_declared_index_is_constant():
    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    r = env.range_of(i)
    assert r.is_literal()
    assert r.constant_bounds() == (0, 15)
    assert constant_interval(i, env) == Interval(0, 15)
    assert constant_interval(i * 4 + 3, env) == Interval(3, 63)


def test_index_range_add_cancels_opaque_bases():
    env = SymbolicEnv()
    x = Var("x")  # undeclared: no bounds at all
    # an unbounded term is its own exact bound, so the sum cancels it
    assert env.range_of(x - x) == SymInterval(0, 0)
    assert constant_interval(x - x, env) == Interval(0, 0)
    r = env.range_of((x + 3) - x)
    assert r.constant_bounds() == (3, 3)


def test_index_range_strides_track_affine_coefficients():
    env = SymbolicEnv()
    i = env.declare_index("i", 4)
    x = Var("x")
    expr = x * 16 + i
    r = env.range_of(expr)
    # the unbounded part stays symbolic in both ends, offset by i's bounds
    assert not r.is_literal()
    assert (r.lo, r.hi) == (x * 16, x * 16 + 3)
    assert constant_interval(expr - x * 16, env) == Interval(0, 3)
    assert affine_strides(expr, ("x", "i")) == (0, {"x": 16, "i": 1})


def test_index_range_mod_by_positive_constant_bounds():
    env = SymbolicEnv()
    x = Var("x")
    r = env.range_of(x % 8)
    assert r.is_literal()
    assert constant_interval(x % 8, env) == Interval(0, 7)


def test_range_of_scales_through_a_possibly_negative_factor():
    env = SymbolicEnv()
    x = env.declare_range("x", -5, 5)
    y = Var("y")
    assert constant_interval(-3 * as_expr(x) + 1, env) == Interval(-14, 16)
    # a single unbounded factor bounds the product by itself, sign flipped
    assert env.range_of(-2 * y) == SymInterval(-2 * y, -2 * y)
    # half-bounded: the known end scales, the unknown one stays symbolic
    k = env.declare_range("k", -3, None)
    assert env.range_of(-2 * as_expr(k)).hi == Const(6)
    assert constant_interval(as_expr(k) // 4, env) == Interval(-1, None)


def test_range_of_sound_with_partially_declared_variables():
    # repro.check's fuzzer declares every variable fully, which keeps the
    # walker on its integer path; here some variables are half-bounded or
    # undeclared, so the symbolic rules (self-bounded ends) are exercised
    import random

    from repro.check.fuzz import FUZZ_VARS, random_expr

    for trial in range(400):
        rng = random.Random(trial)
        expr = random_expr(rng, 4)
        lo, hi = rng.choice(((0, 12), (-6, 6), (-9, 3)))
        env = SymbolicEnv()
        for name in FUZZ_VARS:
            declared = rng.choice(((lo, hi), (lo, hi), (lo, None), (None, hi), None))
            if declared is not None:
                env.declare_range(name, *declared)
        bindings = {name: rng.randint(lo, hi) for name in FUZZ_VARS}
        value = expr.evaluate(bindings)
        r = env.range_of(expr)
        assert r.lo is None or r.lo.evaluate(bindings) <= value, (trial, str(expr), r)
        assert r.hi is None or value <= r.hi.evaluate(bindings), (trial, str(expr), r)


# -- affine_strides / is_mixed_radix_bijection --------------------------------------


def test_affine_strides_exact_decomposition():
    tx, ty, r_j, r_i = Var("tx"), Var("ty"), Var("r_j"), Var("r_i")
    expr = tx + 16 * (ty + 16 * (r_j + 4 * r_i))
    assert affine_strides(expr, ("tx", "ty", "r_j", "r_i")) == (
        0,
        {"tx": 1, "ty": 16, "r_j": 256, "r_i": 1024},
    )


def test_affine_strides_rejects_foreign_vars_and_nonaffine():
    tx, other = Var("tx"), Var("other")
    assert affine_strides(tx + other, ("tx",)) is None
    assert affine_strides((tx * 5) % 7, ("tx",)) is None
    assert affine_strides(tx * tx, ("tx",)) is None


def test_mixed_radix_bijection_verdicts():
    # the LUD golden shape: strides (1, 16, 256, 1024), extents (16, 16, 4, 4)
    good = [(1, 16), (16, 16), (256, 4), (1024, 4)]
    assert is_mixed_radix_bijection(0, good, 4096)
    # permuted order is still a basis
    assert is_mixed_radix_bijection(0, list(reversed(good)), 4096)
    # extent-1 dimensions contribute nothing
    assert is_mixed_radix_bijection(0, good + [(7, 1)], 4096)
    # broken chains, offsets and wrong totals are all rejected
    assert not is_mixed_radix_bijection(1, good, 4096)
    assert not is_mixed_radix_bijection(0, [(1, 16), (8, 16)], 256)
    assert not is_mixed_radix_bijection(0, good, 2048)
    assert not is_mixed_radix_bijection(0, [(1, 4), (-4, 4)], 16)


# -- one memo table keyed by (expression, fact token) -------------------------------


def test_a_changed_fact_changes_the_token_and_the_answers():
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    wrapped = (i + 8) % 16
    # populate every family through its public entry point
    assert simplify_fixpoint(wrapped, env) == i + 8
    assert prove_le(i, 7, env)
    assert env.range_of(i * 2 + 1) == SymInterval(1, 15)
    token, entries = env.fact_token, cache_statistics()[CACHE_PREFIX + "memo_entries"]
    assert entries > 0
    env.declare_index("i", 8)  # a no-op declaration keeps the token and the answers
    before = cache_statistics()
    assert env.fact_token == token
    assert simplify_fixpoint(wrapped, env) == i + 8
    assert _delta(before)["fixpoint_hits"] == 1
    env.declare_range("i", 8, 15)  # a changed fact: new token, new answers
    assert env.fact_token != token
    assert simplify_fixpoint(wrapped, env) == i - 8
    assert not prove_le(i, 7, env)
    assert env.range_of(i * 2 + 1) == SymInterval(17, 31)
    # nothing was dropped: the old fact set's entries are still there for
    # whoever declares those facts again
    assert cache_statistics()[CACHE_PREFIX + "memo_entries"] > entries
    again = SymbolicEnv()
    again.declare_index("i", 8)
    assert again.fact_token == token


def test_declaring_a_fact_drops_the_witnesses():
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    assert not prove_nonneg(as_expr(i) - 8, env)  # refuted: i - 8 < 0 at every witness
    points = env.witnesses()
    assert points and all(0 <= p["i"] < 8 for p in points)
    assert env.witnesses() is points  # memoised until the next declare
    assert env.copy().witnesses() is points  # same facts, same valuations
    env.declare_range("i", 8, 15)
    assert env.witnesses() is not points
    assert prove_nonneg(as_expr(i) - 8, env)
    assert all(8 <= p["i"] <= 15 for p in env.witnesses())


def test_a_diverging_copy_does_not_disturb_the_original():
    env = SymbolicEnv()
    i = env.declare_index("i", 8)
    assert env.range_of(i * 2 + 1) == SymInterval(1, 15)
    clone = env.copy()
    assert clone.fact_token == env.fact_token
    before = cache_statistics()
    assert clone.range_of(i * 2 + 1) == SymInterval(1, 15)  # the original's entry
    assert _delta(before)["range_misses"] == 0
    clone.declare_range("i", 0, 3)
    assert clone.fact_token != env.fact_token
    assert clone.range_of(i * 2 + 1) == SymInterval(1, 7)
    before = cache_statistics()
    assert env.range_of(i * 2 + 1) == SymInterval(1, 15)  # still a hit, still right
    assert _delta(before)["range_misses"] == 0


def _matmul_like_env(order):
    """The same five facts, declared in ``order``."""
    K, BK = Var("K"), Var("BK")
    env = SymbolicEnv()
    declare = {
        "size": lambda: env.declare_size(K, BK),
        "div": lambda: env.declare_divisible(K, BK),
        "k": lambda: env.declare_index("k", K // BK),
        "r": lambda: env.declare_index("r", BK),
        "le": lambda: env.declare_le(BK, K),
    }
    for step in order:
        declare[step]()
    return env


def test_same_facts_in_any_order_share_every_answer():
    K, BK, k, r = Var("K"), Var("BK"), Var("k"), Var("r")
    expr = ((k * BK + r) // BK) * BK + (k * BK + r) % BK
    first = _matmul_like_env(["size", "div", "k", "r", "le"])
    second = _matmul_like_env(["r", "le", "size", "k", "div"])
    assert first is not second and first.fact_token == second.fact_token
    answer = simplify_fixpoint(expr, first)
    before = cache_statistics()
    assert simplify_fixpoint(expr, second) is answer
    delta = _delta(before)
    assert (delta["fixpoint_hits"], delta["fixpoint_misses"]) == (1, 0)
    assert delta["simplify_misses"] == delta["proof_misses"] == delta["range_misses"] == 0
    # ``<=`` facts are ordered (the prover takes the first that fits): two of
    # them in the other order are a different fact set
    one_way, other_way = (_matmul_like_env(["size", "div", "k", "r"]) for _ in range(2))
    one_way.declare_le(BK, K)
    one_way.declare_le(k, K)
    other_way.declare_le(k, K)
    other_way.declare_le(BK, K)
    assert one_way.fact_token != other_way.fact_token


def _application_index_expressions():
    """(index expression, facts) pairs the matmul, NW and LUD kernels lower."""
    from repro.apps import lud, matmul
    from repro.codegen import CodegenContext
    from repro.core.slicing import LayoutSlice

    ctx = matmul.build_matmul_context("nn")
    pairs = []
    for value in ctx._bindings.values():
        if isinstance(value, LayoutSlice):
            value.contribute_env(ctx.env)
            value = value.offset
        pairs.append((as_expr(value), ctx.env))
    # NW's anti-diagonal staging index (its layout is a GenP device function)
    nw_ctx = CodegenContext(name="nw")
    i0, i1 = nw_ctx.index("i0", 16), nw_ctx.index("i1", 16)
    wave = i0 + i1
    pairs.append((as_expr((wave % 31) * 16 + (wave * 16 + i0) % 16), nw_ctx.env))
    lud_ctx = CodegenContext(name="lud")
    coords = [lud_ctx.index(name, extent)
              for name, extent in (("r_i", 4), ("r_j", 4), ("ty", 16), ("tx", 16))]
    pairs.append((as_expr(lud.coarsened_thread_layout(64, 16).apply(*coords)), lud_ctx.env))
    return pairs


def test_unchanged_facts_resimplify_every_application_expression_from_the_memo():
    pairs = _application_index_expressions()
    answers = [simplify_fixpoint(expr, env) for expr, env in pairs]
    before = cache_statistics()
    again = [simplify_fixpoint(expr, env) for expr, env in pairs]
    assert all(a is b for a, b in zip(again, answers))
    delta = _delta(before)
    assert (delta["fixpoint_hits"], delta["fixpoint_misses"]) == (len(pairs), 0)
    assert delta["simplify_misses"] == delta["proof_misses"] == delta["range_misses"] == 0


def _one_fact_apart():
    """(name, expression, env A, env B): A and B differ in exactly one fact of
    one family, and the expression's answers differ with it."""
    x, d = Var("x"), Var("d")

    def ranged(hi):
        env = SymbolicEnv()
        env.declare_range("x", 0, hi)
        return env

    def sized(extra):
        env = SymbolicEnv()
        env.declare_size(d)
        env.declare_nonneg(x)
        extra(env)
        return env

    yield "range", x % 8, ranged(7), ranged(8)
    yield "divisible", (x // d) * d, sized(lambda e: e.declare_divisible(x, d)), sized(lambda e: None)
    yield "positive", (x % (d - 1)) // (d - 1), sized(lambda e: e.declare_positive(d - 1)), sized(lambda e: None)
    yield "le", Min(x, d), sized(lambda e: e.declare_le(x, d)), sized(lambda e: None)


def _answers(expr, env):
    return (
        simplify_fixpoint(expr, env),
        env.range_of(expr),
        prove_le(expr, Var("x"), env),
        is_positive(Var("d") - 1, env),
    )


@pytest.mark.parametrize("reverse", [False, True], ids=["weaker-last", "weaker-first"])
def test_envs_one_fact_apart_never_share(reverse):
    """On a kept table, in both orders: an entry written under one fact set is
    never served under a weaker or a stronger one."""
    for name, expr, strong, weak in _one_fact_apart():
        assert strong.fact_token != weak.fact_token, name
        shared = [_answers(expr, env) for env in ((weak, strong) if reverse else (strong, weak))]
        if reverse:
            shared.reverse()
        alone = []
        for env in (strong, weak):
            clear_memos()
            alone.append(_answers(expr, env))
        assert shared == alone, name
        assert shared[0] != shared[1], f"{name}: the fact should have mattered"


@pytest.mark.parametrize("family", range(4), ids=["range", "divisible", "positive", "le"])
def test_a_token_that_ignores_a_family_is_caught(family, monkeypatch):
    """The mutation the test above exists for: drop one family from the key
    and two different fact sets collide on one token."""
    real = SymbolicEnv._fact_key
    monkeypatch.setattr(
        SymbolicEnv,
        "_fact_key",
        lambda env: tuple(() if n == family else part for n, part in enumerate(real(env))),
    )
    name, expr, strong, weak = list(_one_fact_apart())[family]
    assert strong.fact_token == weak.fact_token
    assert _answers(expr, strong) == _answers(expr, weak), f"{name}: stale answers are served"


def test_filling_past_the_cap_resets_without_reusing_tokens(monkeypatch):
    from repro.symbolic import memo

    monkeypatch.setattr(memo, "MEMO_CAP", 64)
    x = Var("x")
    old = SymbolicEnv()
    old.declare_range("x", 0, 7)
    old_token = old.fact_token
    assert simplify_fixpoint(x % 8, old) == x
    resets = cache_statistics()[CACHE_PREFIX + "memo_resets"]
    n = 0
    while cache_statistics()[CACHE_PREFIX + "memo_resets"] == resets:  # fill under the old token
        n += 1
        assert simplify_fixpoint((x + 8 * n) % 8, old) == x
        assert n < 64, "the cap never fired"
    assert cache_statistics()[CACHE_PREFIX + "memo_resets"] == resets + 1
    assert cache_statistics()[CACHE_PREFIX + "memo_entries"] < 64
    # a different fact set minted after the reset must not get the old token:
    # ``old`` still holds it, and still files entries under it
    new = SymbolicEnv()
    new.declare_range("x", 0, 8)
    assert new.fact_token != old_token == old.fact_token
    assert simplify_fixpoint(x % 8, new) == x % 8
    assert simplify_fixpoint(x % 8, old) == x
    assert new.range_of(x % 8) == SymInterval(0, 7) and old.range_of(x) == SymInterval(0, 7)
    assert not prove_le(x, 7, new) and prove_le(x, 7, old)


# -- simplify rules fed by range facts ----------------------------------------------


def test_div_interval_collapse_handles_negative_ranges():
    env = SymbolicEnv()
    j = env.declare_range("j", -3, -1)
    # [-3, -1] lies within [-4, 0), so j // 4 is the constant -1 — out of
    # reach of the nonneg-only div rules
    assert simplify_fixpoint(as_expr(j) // 4, env) == Const(-1)


def test_mod_interval_collapse_rewrites_to_offset():
    env = SymbolicEnv()
    j = env.declare_range("j", -3, -1)
    simplified = simplify_fixpoint(as_expr(j) % 4, env)
    for value in (-3, -2, -1):
        assert simplified.evaluate({"j": value}) == value % 4


# -- prover: the range stage and the in-bounds query --------------------------------


def test_prove_nonneg_through_possibly_negative_scaling():
    env = SymbolicEnv()
    x = env.declare_range("x", -5, 5)
    # the range stage bounds 2x + 10 to [0, 20] by integer arithmetic
    assert prove_nonneg(2 * as_expr(x) + 10, env)
    assert not prove_nonneg(2 * as_expr(x) + 9, env)


def test_entry_points_agree_on_strict_positivity():
    # one ladder behind every entry point: 2x + 11 is in [1, 21]
    env = SymbolicEnv()
    x = env.declare_range("x", -5, 5)
    expr = 2 * as_expr(x) + 11
    assert prove_lt(0, expr, env)
    assert prove_positive(expr, env)
    assert is_nonzero(expr, env)
    assert is_nonzero(-expr, env)
    assert not prove_positive(expr - 1, env)
    assert not is_nonzero(expr - 1, env)


def test_ladder_counts_the_discharging_stage():
    def ladder_counts():
        rules = CACHE_PREFIX + "rule_applications."
        return {k[len(rules):]: v for k, v in cache_statistics().items()
                if k.startswith(rules + "ladder:")}

    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    x = env.declare_range("x", -5, 5)
    before = ladder_counts()
    prove_nonneg(i, env)                      # sign of a declared index
    prove_nonneg(2 * as_expr(x) + 10, env)    # needs the integer bounds
    prove_nonneg(as_expr(i) - 16, env)        # false at every witness: refuted, no stage runs
    prove_nonneg(as_expr(i) // Var("n"), env)  # no witness values n, no stage proves it
    prove_nonneg(i, env)                      # proof-cache hit: not a miss
    after = ladder_counts()
    delta = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
    assert delta == {
        "ladder:structure": 1, "ladder:range": 1, "ladder:refuted": 1, "ladder:abstain": 1,
    }


def test_prove_in_bounds_is_inclusive_two_sided():
    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    expr = i * 4 + 3
    assert prove_in_bounds(expr, 0, 63, env)
    assert prove_in_bounds(expr, 3, 63, env)
    assert not prove_in_bounds(expr, 0, 62, env)
    assert not prove_in_bounds(expr, 4, 63, env)


def test_record_proof_queries_captures_all_kinds():
    env = SymbolicEnv()
    i = env.declare_index("i", 16)
    with record_proof_queries() as log:
        prove_le(i, 15, env)
        prove_le(i, 15, env)  # cache hit is still a query
        prove_nonneg(i, env)
        prove_in_bounds(i, 0, 15, env)
    kinds = [kind for kind, _, _ in log]
    assert kinds.count("le") >= 2
    assert "nonneg" in kinds and "in_bounds" in kinds
    assert all(proven for _, _, proven in log)
    # recording is scoped: nothing records outside the context
    with record_proof_queries() as log2:
        pass
    prove_le(i, 15, env)
    assert log2 == []
