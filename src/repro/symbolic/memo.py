"""The one process-wide memo table of the symbolic layer.

Every memoised answer — a one-pass rewrite, a fixpoint, a prover verdict, a
range, an expansion, an operation count, the canonical text, an ``Add`` /
``Mul`` constructor's result — is a pure function of interned expressions and
the facts it was derived under (none, for the last three).  Expression ids are
global and never reused, so the table is keyed ``(family, expr id..., fact
token)`` (``ops``: the collection's ids and the weights; ``add`` / ``mul``: the
operands' ids, a literal int as a 1-tuple; ``str``: the id alone): the
token is interned here from an environment's *whole* declared fact set
(:attr:`SymbolicEnv.fact_token`), equal tokens mean equal fact sets, and an
entry is therefore never served under weaker or different facts — while
sibling kernels and repeat compiles that declare the same facts share every
answer, whichever environment object asked first.

Concurrency: dict reads and writes are individually atomic and every value is
a pure function of its key, so two threads racing on one entry write the same
interned answer and last-writer-wins changes nothing; a clear racing a writer
only loses entries.  No lock, no thread-confinement contract.
"""

from __future__ import annotations

import itertools

from ..obs.metrics import REGISTRY
from .stats import CACHE_PREFIX, MEMO_RESETS

__all__ = ["MEMO", "MEMO_CAP", "FACT_TOKENS", "NO_FACTS", "intern_facts", "memo_put", "clear_memos"]

#: ``(family, expr id..., fact token) -> answer``; never ``None``
MEMO: dict[tuple, object] = {}

#: One cap for every family.  Measured on the 85-kernel corpus: 5.2 k entries
#: (constructor answers 1.4 k, simplify 1.2 k, range 0.8 k, proofs 0.7 k, op
#: counts 0.3 k, text 0.07 k, the rest 0.6 k) under 39 tokens, 93 B an entry
#: for the table and its key tuples, values on top (``SymInterval``s, texts;
#: the nodes live in the intern table either way).  32 k entries is six
#: corpora for ~3 MB of table and keys.  Past it everything is dropped at
#: once: entries are cheap to re-derive, and with no per-entry bookkeeping a
#: hit stays one dict lookup.
MEMO_CAP = 1 << 15

#: the token of the empty fact set (what env-free ``expand`` is filed under)
NO_FACTS = 0

#: fact-set key -> token.  Tokens come from a counter that is never rewound: an
#: environment that cached its token before a clear must not collide with a
#: different fact set minted after it.
FACT_TOKENS: dict[tuple, int] = {}
_NEXT_TOKEN = itertools.count(NO_FACTS + 1)

REGISTRY.gauge(CACHE_PREFIX + "memo_entries", fn=lambda: len(MEMO))
REGISTRY.gauge(CACHE_PREFIX + "fact_tokens", fn=lambda: len(FACT_TOKENS))


def intern_facts(facts: tuple) -> int:
    """Intern one fact-set key (a tuple of hashable families) as an int."""
    if not any(facts):
        return NO_FACTS
    token = FACT_TOKENS.get(facts)
    if token is None:
        token = FACT_TOKENS.setdefault(facts, next(_NEXT_TOKEN))
    return token


def memo_put(key: tuple, value: object) -> None:
    """File ``value`` under ``key``, clearing the whole table at the cap."""
    if len(MEMO) >= MEMO_CAP:
        clear_memos()
    MEMO[key] = value


def clear_memos() -> None:
    """Drop every memoised answer of every family, and every fact token.

    Entries are keyed on expressions and facts, not on the code that derived
    them: whoever swaps a rewrite rule or a transfer function at run time
    (tests, mostly) clears the table, or keeps being served the old answers.
    """
    MEMO.clear()
    FACT_TOKENS.clear()
    MEMO_RESETS.inc()
