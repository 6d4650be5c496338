"""The constructors read the canonical form; this file holds them to it.

``Add`` / ``Mul`` no longer re-derive what their operands already are: a
like-term split takes a ``Mul``'s tail as it stands, a term whose part is met
once is kept, and the whole answer is filed in the memo under the operands'
identities.  Three things pin that:

* the **reference canonicaliser** below — the constructors as they were before
  they relied on the invariant, kept verbatim as an oracle — must return the
  *identical object* for any operand list, memo cleared or warm;
* the **canonical-form invariant** itself must hold on every node the 85-kernel
  corpus interns (it is what ``_split_coeff`` reads);
* the memo **families** (constructor answers, collection op counts, canonical
  text) must only ever save work: same values across ``clear_memos()``, and
  the goldens byte-identical under a cap small enough to flush mid-constructor.
"""

import random
import sys
from typing import Iterable

import pytest

from golden_kernels import GOLDEN_DIR, build_artifacts
from repro.codegen import CodegenContext
from repro.symbolic import CostWeights, clear_memos, operation_count
from repro.symbolic.expr import _INTERN, _TYPE_ORDER, Add, Const, Expr, Mul, Var, as_expr
from test_witnesses import compile_corpus

memo_module = sys.modules["repro.symbolic.memo"]


# -- the reference canonicaliser (the constructors before this invariant) -----------


def _old_sort_key(e: Expr) -> tuple:
    return (_TYPE_ORDER.get(type(e).__name__, 99), e._ekey)


def reference_add(*operands) -> Expr:
    terms: list[Expr] = []
    const_total = 0
    for op in operands:
        op = as_expr(op)
        if isinstance(op, Add):
            children: Iterable[Expr] = op.args
        else:
            children = (op,)
        for child in children:
            if isinstance(child, Const):
                const_total += child.value
            else:
                terms.append(child)
    # Collect like terms by their non-constant part.
    collected: dict[Expr, int] = {}
    order: list[Expr] = []
    for term in terms:
        coeff, rest = reference_split_coeff(term)
        if rest not in collected:
            collected[rest] = 0
            order.append(rest)
        collected[rest] += coeff
    final_terms: list[Expr] = []
    for rest in order:
        coeff = collected[rest]
        if coeff == 0:
            continue
        if coeff == 1:
            final_terms.append(rest)
        else:
            final_terms.append(reference_mul(coeff, rest))
    if const_total != 0:
        final_terms.append(Const(const_total))
    if not final_terms:
        return Const(0)
    if len(final_terms) == 1:
        return final_terms[0]
    final_terms.sort(key=lambda e: _old_sort_key(e))
    return Add._make(tuple(final_terms))


def reference_mul(*operands) -> Expr:
    factors: list[Expr] = []
    const_total = 1
    for op in operands:
        op = as_expr(op)
        if isinstance(op, Mul):
            children: Iterable[Expr] = op.args
        else:
            children = (op,)
        for child in children:
            if isinstance(child, Const):
                const_total *= child.value
            else:
                factors.append(child)
    if const_total == 0:
        return Const(0)
    if not factors:
        return Const(const_total)
    factors.sort(key=lambda e: _old_sort_key(e))
    if const_total != 1:
        factors = [Const(const_total)] + factors
    if len(factors) == 1:
        return factors[0]
    return Mul._make(tuple(factors))


def reference_split_coeff(term: Expr) -> tuple[int, Expr]:
    if isinstance(term, Mul):
        consts = [a for a in term.args if isinstance(a, Const)]
        rest = [a for a in term.args if not isinstance(a, Const)]
        coeff = 1
        for c in consts:
            coeff *= c.value
        if not rest:
            return coeff, Const(1)
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, reference_mul(*rest)
    if isinstance(term, Const):
        return term.value, Const(1)
    return 1, term


# -- random operand lists -----------------------------------------------------------

_LITERALS = (0, 1, -1, True, 2, 3, -3, 7)


def _leaves() -> list[Expr]:
    plain = [Var(name) for name in "cf_a cf_b cf_c".split()]
    # same name, different rendering hints: equal, hashed alike, distinct nodes
    hinted = [Var("cf_a", {"render": "A"}), Var("cf_b", {"render": "B"})]
    return plain + hinted


def _random_operands(rng: random.Random, depth: int, pool: list[Expr]) -> list:
    """Operands for one constructor call; ``pool`` collects every node built so
    far, so later lists repeat earlier parts (and their negations) and collect."""
    operands: list = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.2:
            operands.append(rng.choice(_LITERALS))
        elif roll < 0.3:
            # a literal that is some node's id: must not alias that node in the memo
            operands.append(rng.choice(pool).expr_id)
        elif roll < 0.6 or depth == 0:
            operands.append(rng.choice(pool))
        else:
            builder = rng.choice((Add, Mul))
            operands.append(_build_both(builder, _random_operands(rng, depth - 1, pool), pool))
    if operands and rng.random() < 0.4:
        # a repeated part: cancels to 0 under Add, collects to a coefficient under Add,
        # and (times -1 twice) folds to 1 under Mul
        again = rng.choice(operands)
        operands.append(rng.choice((again, Mul(-1, again), -1)))
    rng.shuffle(operands)
    return operands


def _build_both(builder, operands: list, pool: list[Expr]) -> Expr:
    reference = reference_add if builder is Add else reference_mul
    built = builder(*operands)
    assert built is reference(*operands), f"{builder.__name__}{tuple(operands)!r} -> {built}"
    assert builder(*operands) is built  # and again, from the memo
    if not isinstance(built, Const) and sum(1 for _ in built.walk()) <= 24:
        pool.append(built)  # small parts only: structural keys are tree-sized
    return built


@pytest.mark.parametrize("warm", [False, True], ids=["memo-cleared", "memo-warm"])
def test_constructors_agree_with_the_reference_canonicaliser(warm):
    rng = random.Random(23)
    pool = _leaves()
    for _ in range(600):
        if not warm:
            clear_memos()
        _build_both(rng.choice((Add, Mul)), _random_operands(rng, 3, pool), pool)
        if len(pool) > 60:  # keep parts repeating
            pool[5:] = rng.sample(pool[5:], 30)


def test_a_literal_int_never_aliases_the_node_with_that_id():
    x, y = Var("cf_a"), Var("cf_b")
    assert Add(x, y) is reference_add(x, y)
    assert Add(x, y.expr_id) is reference_add(x, y.expr_id)
    assert Mul(x, y) is reference_mul(x, y)
    assert Mul(x, y.expr_id) is reference_mul(x, y.expr_id)
    assert Mul(True, x) is x and Add(False, x) is x


def test_non_integer_operands_still_raise_with_a_warm_memo():
    x = Var("cf_a")
    assert Add(x, 1) is Add(x, 1)
    with pytest.raises(TypeError):
        Add(x, 1.0)
    with pytest.raises(TypeError):
        Mul(x, "1")


# -- the invariant the constructors read --------------------------------------------


def test_every_interned_node_of_the_corpus_is_canonical():
    kernels = [spec.generate(config) for spec, config in compile_corpus()]
    assert len(kernels) == 85
    nodes = list(_INTERN.values())
    assert sum(isinstance(n, (Add, Mul)) for n in nodes) > 500
    for node in nodes:
        assert node.sort_key() == _old_sort_key(node)
        if not isinstance(node, (Add, Mul)):
            continue
        args = node.args
        keys = [a.sort_key() for a in args]
        assert len(args) >= 2 and keys == sorted(keys), node
        assert not any(isinstance(a, type(node)) for a in args), node
        assert not any(isinstance(a, Const) for a in args[1:]), node
        if isinstance(node, Mul) and isinstance(args[0], Const):
            assert args[0].value not in (0, 1), node


# -- the families only save work ----------------------------------------------------


def test_collection_counts_and_text_survive_a_clear():
    a, b = Var("cf_a"), Var("cf_b")
    first, second = (a * 4 + b) // 3, (a * 4 + b) % 3 + a * 4
    gpu = CostWeights.gpu_default()
    counts = [operation_count([first, second], w) for w in (None, gpu)]
    texts = [str(first), str(second)]
    # shared sub-expressions are counted once across the collection
    assert counts[0] < operation_count(first) + operation_count(second)
    assert counts == [operation_count([first, second], w) for w in (None, gpu)]  # memo hits
    assert operation_count([second, first]) == counts[0]
    clear_memos()
    assert counts == [operation_count([first, second], w) for w in (None, gpu)]
    assert texts == [str(first), str(second)] == ["(cf_b + 4*cf_a)//3", "4*cf_a + (cf_b + 4*cf_a) % 3"]


def test_the_text_family_never_serves_a_printer_with_substitutions():
    ctx = CodegenContext(name="subst")
    pid = ctx.index("cf_pid", 64)
    lane = ctx.index("cf_lane", 32)
    ctx.bind("offset", pid * 32 + lane)
    lowered = ctx.lower()["offset"]
    canonical = str(lowered.expr)  # filed under ("str", id) before the render below
    ctx.substitute(cf_pid="tl.program_id(0)")
    rendered = ctx.render()["offset"]
    assert rendered != canonical
    assert "tl.program_id(0)" in rendered and "tl.program_id(0)" not in canonical
    assert str(lowered.expr) == canonical


def test_goldens_are_byte_identical_under_a_tiny_memo_cap(monkeypatch):
    """A cap flush in the middle of a constructor loses entries, never answers."""
    from repro.symbolic import cache_statistics

    monkeypatch.setattr(memo_module, "MEMO_CAP", 64)
    resets = cache_statistics()["memo_resets"]
    artifacts = build_artifacts()
    assert cache_statistics()["memo_resets"] - resets > 20
    for path in GOLDEN_DIR.iterdir():
        assert artifacts[path.name] == path.read_text(), path.name
