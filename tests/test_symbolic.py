"""Symbolic engine: expressions, ranges, simplification rules, prover, cost, printers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    Add,
    CPrinter,
    Const,
    CostWeights,
    FloorDiv,
    Interval,
    Max,
    Min,
    Mod,
    Mul,
    PythonPrinter,
    constant_interval,
    SymbolicEnv,
    SymInterval,
    TritonPrinter,
    Var,
    as_expr,
    brute_force_check,
    expand,
    operation_count,
    prove,
    prove_le,
    prove_lt,
    prove_nonneg,
    simplify,
    simplify_fixpoint,
    symbols,
)
from repro.symbolic.expr import Cmp


# -- expression construction and evaluation ------------------------------------------


def test_as_expr_and_constants_fold():
    assert as_expr(3) == Const(3)
    assert (Const(2) + 3).evaluate({}) == 5
    assert (Const(2) * 3 - 1).evaluate({}) == 5


def test_operator_overloading_builds_nodes():
    x, y = symbols("x y")
    expr = (x + 2) * y - x // 3 + x % 4
    assert expr.evaluate({"x": 7, "y": 2}) == (7 + 2) * 2 - 7 // 3 + 7 % 4


def test_add_collects_like_terms():
    x = Var("x")
    assert (x + x) == Mul(2, x)
    assert (x - x) == Const(0)
    assert (2 * x + 3 * x) == Mul(5, x)


def test_mul_folds_constants_and_zero():
    x = Var("x")
    assert Mul(2, 3, x) == Mul(6, x)
    assert Mul(0, x) == Const(0)
    assert Mul(1, x) == x


def test_floordiv_and_mod_by_one():
    x = Var("x")
    assert FloorDiv(x, 1) == x
    assert Mod(x, 1) == Const(0)


def test_min_max_constant_folding():
    assert Min(3, 5) == Const(3)
    assert Max(3, 5, 2) == Const(5)
    x = Var("x")
    assert Min(x, x) == x


def test_expr_equality_and_hash_are_structural():
    x1, x2 = Var("x"), Var("x")
    assert x1 == x2
    assert hash(x1 + 1) == hash(x2 + 1)
    assert (x1 + 1) != (x1 + 2)


def test_subs_replaces_subexpressions():
    x, y = symbols("x y")
    expr = x * y + x
    replaced = expr.subs({x: Const(3)})
    assert replaced.evaluate({"y": 2}) == 9


def test_free_vars_and_walk():
    x, y = symbols("x y")
    expr = (x + y) // 2 % 5
    assert expr.free_vars() == {"x", "y"}
    assert any(isinstance(node, FloorDiv) for node in expr.walk())


def test_evaluate_missing_variable_raises():
    with pytest.raises(KeyError):
        Var("missing").evaluate({})


def test_comparisons_evaluate_to_bool():
    x = Var("x")
    assert x.lt(5).evaluate({"x": 3}) is True
    assert x.ge(5).evaluate({"x": 3}) is False


# -- intervals -----------------------------------------------------------------------


def test_interval_arithmetic():
    a = Interval(0, 3)
    b = Interval(1, 2)
    assert (a + b) == Interval(1, 5)
    assert (a * b) == Interval(0, 6)
    assert a.contains(2)
    assert not a.contains(4)


def test_interval_floordiv_and_mod():
    a = Interval(0, 10)
    d = Interval(2, 2)
    assert a.floordiv(d) == Interval(0, 5)
    assert a.mod(Interval(4, 4)).hi <= 3


def test_range_env_range_of():
    env = SymbolicEnv()
    x = env.declare_range("x", 0, 7)
    assert env.range_of(x * 2 + 1) == SymInterval(1, 15)
    assert constant_interval(x * 2 + 1, env) == Interval(1, 15)


def test_sym_interval_constructors():
    assert SymInterval.index(Var("N")).lo == Const(0)
    assert SymInterval.positive().lo == Const(1)
    lo, hi = SymInterval.point(4).constant_bounds()
    assert (lo, hi) == (4, 4)


# -- the Table II rules -----------------------------------------------------------------


@pytest.fixture()
def env():
    environment = SymbolicEnv()
    return environment


def test_rule1_multiple_plus_remainder_mod(env):
    d, q, r = symbols("d q r")
    env.declare_size(d)
    env.declare_nonneg(q)
    env.declare_index(r, d)
    assert simplify_fixpoint(Mod(d * q + r, d), env) == r


def test_rule2_multiple_plus_remainder_div(env):
    d, q, r = symbols("d q r")
    env.declare_size(d)
    env.declare_nonneg(q)
    env.declare_index(r, d)
    assert simplify_fixpoint(FloorDiv(d * q + r, d), env) == q


def test_rule3_mod_over_div(env):
    x, d = symbols("x d")
    env.declare_size(d)
    env.declare_nonneg(x)
    assert simplify_fixpoint(FloorDiv(Mod(x, d), d), env) == Const(0)


def test_rule4_small_numerator_div(env):
    x, a = symbols("x a")
    env.declare_size(a)
    env.declare_index(x, a)
    assert simplify_fixpoint(FloorDiv(x, a), env) == Const(0)


def test_rule5_small_value_mod(env):
    x, a = symbols("x a")
    env.declare_size(a)
    env.declare_index(x, a)
    assert simplify_fixpoint(Mod(x, a), env) == x


def test_rule6_division_by_one(env):
    n, y = symbols("n y")
    assert simplify_fixpoint(FloorDiv(n + y, 1), env) == n + y


def test_rule7_div_mod_recombination(env):
    x, a = symbols("x a")
    env.declare_size(a)
    env.declare_nonneg(x)
    assert simplify_fixpoint(a * FloorDiv(x, a) + Mod(x, a), env) == x


def test_rules_do_not_fire_without_side_conditions(env):
    x, a = symbols("x a")
    # x unconstrained: x % a must NOT simplify to x
    env.declare_size(a)
    assert simplify_fixpoint(Mod(x, a), env) != x


def test_divisibility_fact_enables_folding(env):
    K, BK = symbols("K BK")
    env.declare_size(K, BK)
    env.declare_divisible(K, BK)
    assert simplify_fixpoint(Mod(K, BK), env) == Const(0)
    assert simplify_fixpoint(Mul(BK, FloorDiv(K, BK)), env) == K


def test_nested_mod_collapses_with_divisibility(env):
    x, m, d = symbols("x m d")
    env.declare_size(m, d)
    env.declare_nonneg(x)
    env.declare_divisible(m, d)
    assert simplify_fixpoint(Mod(Mod(x, m), d), env) == Mod(x, d)


def test_simplified_matmul_pointer_expression(env):
    """The la_optr lowering of Figure 10 (pointer arithmetic collapses to <= 7 ops)."""
    from repro.core import Row, TileBy

    M, K, BM, BK, pid_m, k = symbols("M K BM BK pid_m k")
    env.declare_size(M, K, BM, BK)
    env.declare_index(pid_m, M // BM)
    env.declare_index(k, K // BK)
    env.declare_divisible(K, BK)
    env.declare_divisible(M, BM)
    layout = TileBy([M // BM, K // BK], [BM, BK]).OrderBy(Row(M, K))
    sl = layout[pid_m, k, :, :]
    sl.contribute_env(env)
    raw = sl.offset
    simplified = simplify_fixpoint(expand(raw), env)
    assert operation_count(simplified) <= 7
    # brute-force agreement on a concrete configuration
    atom_names = [atom.name for atom in sl.atoms]
    domains = {"M": [8], "K": [6], "BM": [4], "BK": [3], "pid_m": range(2), "k": range(2),
               atom_names[0]: range(4), atom_names[1]: range(3)}
    assert brute_force_check(raw, domains, equivalent_to=simplified)


def test_grouped_pid_m_matches_figure10(env):
    """The grouped thread-block inverse collapses to the Figure 10 expression."""
    nt_m, nt_n, GM, pid = symbols("nt_m nt_n GM pid")
    env.declare_size(nt_m, nt_n, GM)
    env.declare_index(pid, nt_m * nt_n)
    mn = Min(GM, nt_m)
    mx = Max(1, nt_m // GM)
    inner = nt_n * (Mod(pid // (nt_n * mn), mx) * mn + Mod(pid, mn)) + Mod(pid, nt_n * mn) // mn
    expr = FloorDiv(Mod(inner, nt_m * nt_n), nt_n)
    simplified = simplify_fixpoint(expr, env)
    expected = Mod(pid // (nt_n * mn), mx) * mn + Mod(pid, mn)
    assert simplified == expected


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_rule2_agrees_with_python_semantics(d, q, r):
    r = r % d
    x = Var("x")
    env = SymbolicEnv()
    env.declare_size(Var("d"))
    expr = FloorDiv(Var("d") * q + r, Var("d"))
    assert expr.evaluate({"d": d}) == (d * q + r) // d


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=63))
@settings(max_examples=60, deadline=None)
def test_rule7_oracle_property(a, x):
    expr = Const(a) * FloorDiv(Const(x), Const(a)) + Mod(Const(x), Const(a))
    assert expr.evaluate({}) == x


# -- prover ---------------------------------------------------------------------------------


def test_prove_nonneg_and_le():
    env = SymbolicEnv()
    n, i = symbols("N i")
    env.declare_size(n)
    env.declare_index(i, n)
    assert prove_nonneg(i, env)
    assert prove_le(i, n - 1, env)
    assert prove_lt(i, n, env)
    assert not prove_lt(n, i, env)


def test_prove_with_user_le_fact():
    env = SymbolicEnv()
    a, b = symbols("a b")
    env.declare_size(a, b)
    assert not prove_le(a, b, env)
    env.declare_le(a, b)
    assert prove_le(a, b, env)
    assert prove_le(2 * a, 2 * b, env)


def test_prove_structural_floordiv_identity():
    env = SymbolicEnv()
    x, d = symbols("x d")
    env.declare_size(d)
    env.declare_nonneg(x)
    assert prove_le(d * FloorDiv(x, d), x, env)


def test_prove_min_max_product_lemma():
    env = SymbolicEnv()
    a, b = symbols("a b")
    env.declare_size(a, b)
    assert prove_le(Min(a, b) * Max(1, a // b), a, env)


def test_prove_predicate_nodes():
    env = SymbolicEnv()
    i, n = symbols("i n")
    env.declare_size(n)
    env.declare_index(i, n)
    assert prove(Cmp("<", i, n), env)
    assert prove(Cmp(">=", i, 0), env)
    assert not prove(Cmp("<", n, i), env)


def test_brute_force_check_detects_inequivalence():
    x = Var("x")
    assert not brute_force_check(Mod(x, 4), {"x": range(8)}, equivalent_to=x)
    assert brute_force_check(Mod(x, 4), {"x": range(4)}, equivalent_to=x)


def test_declared_positive_expression():
    env = SymbolicEnv()
    K, BK, k = symbols("K BK k")
    env.declare_size(K, BK)
    env.declare_index(k, K // BK)  # implies K // BK >= 1
    assert env.is_declared_positive(K // BK)
    assert simplify_fixpoint(FloorDiv(k, K // BK), env) == Const(0)


# -- cost model and expansion choice ------------------------------------------------------------


def test_operation_count_counts_nodes():
    x, y = symbols("x y")
    assert operation_count(x + y) == 1
    assert operation_count((x + y) * 2) == 2
    assert operation_count([x + y, x * y]) == 2
    assert operation_count(x // y, CostWeights(floordiv=8)) == 8


def test_expand_distributes_products():
    x, y, z = symbols("x y z")
    expanded = expand((x + y) * z)
    assert expanded == x * z + y * z


# -- printers -------------------------------------------------------------------------------------


def test_python_and_triton_printers():
    x, y = symbols("x y")
    expr = (x + 1) * y // 4 % 3
    printed = PythonPrinter().doprint(expr)
    # the printed text must evaluate back to the same values as the expression
    for xv in range(5):
        for yv in range(5):
            assert eval(printed, {}, {"x": xv, "y": yv}) == expr.evaluate({"x": xv, "y": yv})
    rendered = TritonPrinter({"x": "tl.arange(0, 4)"}).doprint(x + 1)
    assert "tl.arange" in rendered


def test_c_printer_uses_c_operators():
    x = Var("x")
    text = CPrinter().doprint(x // 4 + x % 3)
    assert "/" in text and "%" in text and "//" not in text
