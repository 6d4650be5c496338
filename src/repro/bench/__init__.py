"""Benchmark harness: regenerate every table and figure of the evaluation.

:mod:`repro.bench.figures` exposes one function per experiment (``table1``
... ``table5``, ``fig11`` ... ``fig13``), each returning plain Python data
(lists of dict rows) so it can be asserted on in ``tests/test_experiments.py``
or pretty-printed by :func:`repro.bench.harness.format_table`.
"""

from .harness import ExperimentResult, format_series, format_table
from . import figures, roofline

__all__ = ["ExperimentResult", "format_table", "format_series", "figures", "roofline"]
