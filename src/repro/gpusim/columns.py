"""Float-or-column arithmetic: the analytic model costs one config or a pool.

:func:`~repro.gpusim.estimate_time`, :func:`~repro.gpusim.occupancy_factor`
and :func:`repro.apps.matmul.matmul_cost` each have one body that takes
either Python numbers (one configuration) or equal-length NumPy columns (a
pool of them, one row each).  Python's operators already serve both; these
helpers are the builtins and branches that do not.  On scalars each one is
the builtin or conditional it stands for, so numbers in give exactly the
same Python numbers out.  On columns each one is its elementwise NumPy
counterpart, and IEEE-754 arithmetic makes every row bit-identical to the
scalar call on that row's numbers.
"""

from __future__ import annotations

import numpy as np
from numpy import ndarray

__all__ = ["maximum", "minimum", "where", "ratio", "tier", "largest"]


def maximum(a, b):
    """``max(a, b)``, elementwise when either is a column."""
    if a.__class__ is ndarray or b.__class__ is ndarray:
        return np.maximum(a, b)
    return b if b > a else a  # max() keeps the first unless a later one is greater


def minimum(a, b):
    """``min(a, b)``, elementwise when either is a column."""
    if a.__class__ is ndarray or b.__class__ is ndarray:
        return np.minimum(a, b)
    return b if b < a else a


def where(condition, if_true, if_false):
    """``if_true if condition else if_false``, per row when ``condition`` is a column.

    Both branches are evaluated first, so neither may raise.
    """
    if condition.__class__ is ndarray:
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def ratio(work, rate):
    """``work / rate``, and ``0.0`` wherever ``work`` is zero (no division there)."""
    if work.__class__ is ndarray:
        shape = np.broadcast(work, rate).shape
        return np.divide(work, rate, out=np.zeros(shape), where=work != 0)
    return work / rate if work else 0.0


def tier(size, tiers, floor):
    """The value of the first ``(threshold, value)`` of ``tiers`` that ``size``
    reaches (``size >= threshold``), else ``floor``."""
    if size.__class__ is ndarray:
        return np.select([size >= threshold for threshold, _ in tiers],
                         [value for _, value in tiers], floor)
    for threshold, value in tiers:
        if size >= threshold:
            return value
    return floor


def largest(names, values):
    """``(the largest value, its name)``; ties go to the first.

    With any column among ``values``: a column of maxima and a column of names.
    """
    for value in values:
        if value.__class__ is ndarray:
            stacked = np.stack(np.broadcast_arrays(*values))
            which = stacked.argmax(axis=0)
            return stacked.max(axis=0), np.asarray(names)[which]
    top = max(values)
    return top, names[values.index(top)]
