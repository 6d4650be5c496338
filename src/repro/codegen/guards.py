"""Static guard elimination: prove launch predicates, count the wins.

Generated kernels historically carried their bounds predication at runtime —
``where_blocks`` masks on NW's anti-diagonal waves, ``compact_threads``
interior masks in the stencils — because nothing could prove the masks
always-true for a given launch shape.  The range analysis
(:meth:`repro.symbolic.SymbolicEnv.range_of`) can: apps build the mask's
predicate symbolically over declared index ranges and call
:func:`prove_guard_redundant`; a ``True`` verdict licenses launching the
unguarded kernel.  The NW wavefront and stencil interior launches and LUD's
``element_offset`` bijectivity have no guarded twin to retreat to — a
verdict other than ``True`` there is a :class:`GuardProofError`, not a
slower launch or a runtime enumeration.

Every verdict is observable through :mod:`repro.obs`:

* ``repro.symbolic.guards_eliminated`` — predicates proven always-true
  (a guard was dropped from a launch),
* ``repro.symbolic.proofs_static`` — obligations discharged statically
  (guard proofs, access-in-bounds obligations, bijectivity proofs),
* ``repro.symbolic.proofs_fallback`` — obligations the range analysis
  did not discharge (the name predates the guarded twins' removal: nothing
  checks them at run time — a launch that relies on one raises
  :class:`GuardProofError`).

The proof itself runs inside a ``symbolic.range`` span so trace timelines
attribute the analysis cost.
"""

from __future__ import annotations

from typing import Optional

from ..obs.metrics import counter
from ..symbolic import Expr, ExprLike, SymbolicEnv, as_expr, prove, prove_in_bounds

__all__ = [
    "GuardProofError",
    "prove_guard_redundant",
    "discharge_in_bounds",
    "note_static_proof",
]


class GuardProofError(RuntimeError):
    """A launch relies on a guard proof the range analysis did not discharge."""


GUARDS_ELIMINATED = counter(
    "repro.symbolic.guards_eliminated",
    "bounds guards/predication removed from kernel launches after an always-true proof",
)
PROOFS_STATIC = counter(
    "repro.symbolic.proofs_static",
    "guard/bounds/bijectivity obligations discharged statically by the range analysis",
)
PROOFS_FALLBACK = counter(
    "repro.symbolic.proofs_fallback",
    "obligations the range analysis could not discharge (a launch relying on one raises)",
)


def note_static_proof(amount: int = 1) -> None:
    """Record obligations discharged statically (outside the helpers here)."""
    PROOFS_STATIC.inc(amount)


def prove_guard_redundant(
    predicate: ExprLike, env: SymbolicEnv, *, kernel: str = ""
) -> bool:
    """Is the guard ``predicate`` provably true for every launch point?

    ``predicate`` is a boolean expression (``Cmp``/``BoolAnd``/... nodes)
    over variables whose ranges are declared on ``env``.  Returns ``True``
    only on a proof — ``False`` means *unknown*, and the caller must keep
    the dynamic guard (or refuse the launch).  Verdicts update the guard-elimination counters and
    the proof runs inside a ``symbolic.range`` span.
    """
    from ..obs.trace import span

    predicate = as_expr(predicate)
    with span("symbolic.range", "symbolic", kernel=kernel, query="guard"):
        proven = prove(predicate, env)
    if proven:
        GUARDS_ELIMINATED.inc()
        PROOFS_STATIC.inc()
    else:
        PROOFS_FALLBACK.inc()
    return proven


def discharge_in_bounds(
    expr: ExprLike,
    lo: ExprLike,
    hi: ExprLike,
    env: SymbolicEnv,
    *,
    kernel: str = "",
) -> bool:
    """Discharge the access obligation ``lo <= expr <= hi`` statically.

    The backend proof-obligation API (``CodegenContext.require_in_bounds``)
    funnels here; apps may also call it directly.  Counts toward
    ``proofs_static`` / ``proofs_fallback`` but not ``guards_eliminated`` —
    an in-bounds fact enables guard removal, it is not itself a guard.
    """
    from ..obs.trace import span

    with span("symbolic.range", "symbolic", kernel=kernel, query="in_bounds"):
        proven = prove_in_bounds(expr, lo, hi, env)
    if proven:
        PROOFS_STATIC.inc()
    else:
        PROOFS_FALLBACK.inc()
    return proven
