"""Checks and helpers shared by every test module."""

import threading
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread alive which it did not find running."""
    before = set(threading.enumerate())
    yield
    extra = [t for t in threading.enumerate() if t not in before]
    if extra:
        pytest.fail(f"threads left alive: {[t.name for t in extra]}")


@pytest.fixture
def traced_peak_grids():
    """``measure(call, grid_bytes)`` runs ``call()`` once under tracemalloc
    and returns its traced peak above the memory traced when it starts, in
    units of ``grid_bytes``. Fill any cache the bound should not count
    before measuring; what the call itself keeps counts."""

    def measure(call, grid_bytes):
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - baseline) / grid_bytes

    return measure
