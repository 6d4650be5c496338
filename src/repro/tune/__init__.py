"""Layout autotuning: declarative search spaces and one tuning driver.

The paper's central claim is "change the layout, not the code"; its
evaluation is a hand-driven sweep over layout/tiling configurations.  This
package makes that sweep a first-class subsystem:

* :class:`SearchSpace` / :class:`Choice` — declarative, streaming
  configuration spaces (tile sizes, orderings, coarsening factors,
  skew/swizzle selections),
* :func:`search` — the one driver: generate every pooled candidate through
  the unified backend registry, evaluate it on the analytic device model,
  rank by (estimated time, GPU-weighted index-op count), re-rank the top
  ``measure_top_k`` of that one ranking by *measured* substrate cost
  through :func:`repro.check.profile`, differentially verify the winners and persist
  them in a :class:`TuningTable`; :func:`autotune` is its exhaustive
  spelling (the whole space, nothing persisted).  Both return a
  :class:`TuneResult`,
* :class:`ResultCache` — persistent evaluation cache keyed off the
  hash-consed lowered index expressions and the device (a sweep keeps
  evaluations only in one its caller passes).

Quickstart::

    from repro import tune
    result = tune.autotune("lud")
    result.best.config      # {'block': 64, 'cuda_block': 16, ...}
    tune.search("matmul", device="h100", budget=512, measure_top_k=4).summary()
"""

from ..cache import ResultCache
from .space import Choice, SearchSpace
from .tuner import Candidate, TuneResult
from .tables import TuningTable, problem_signature
from .search import autotune, measure_candidates, search

__all__ = [
    "Choice",
    "SearchSpace",
    "ResultCache",
    "Candidate",
    "TuneResult",
    "autotune",
    "search",
    "measure_candidates",
    "TuningTable",
    "problem_signature",
]
