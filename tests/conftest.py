"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def real_pools(monkeypatch):
    """The max_workers of every process pool a sweep starts; the pools are real."""
    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    # sweep_generic imports the pool class where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return started
