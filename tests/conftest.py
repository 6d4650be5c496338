"""Shared fixtures for the tier-1 tests."""

import pytest

from repro.symbolic import clear_memos


@pytest.fixture(autouse=True)
def _empty_memo_table():
    """Every test starts on an empty symbolic memo table.

    The table is process-wide, so without this a test's hit/miss counts, its
    recorded proof queries and the rule it monkeypatches would depend on which
    tests ran before it.
    """
    clear_memos()
