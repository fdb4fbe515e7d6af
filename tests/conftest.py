"""Fixtures shared across test modules."""
import functools

import pytest

from mmrom.bench import reproduce_table


@pytest.fixture(scope="session")
def reproduced():
    """reproduce_table with each table run at most once per session, so tests
    that read the same grid (T3-res-n1000 takes seconds) share one run.
    Callers must not modify the returned results."""
    return functools.cache(reproduce_table)
