"""Checks shared by every test module."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread alive which it did not find running."""
    before = set(threading.enumerate())
    yield
    extra = [t for t in threading.enumerate() if t not in before]
    if extra:
        pytest.fail(f"threads left alive: {[t.name for t in extra]}")
