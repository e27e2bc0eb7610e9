import pytest


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing capture.

    The acceptance tests use this for their one pass/fail line per
    criterion.
    """

    def emit(text):
        with capsys.disabled():
            print(text)

    return emit


@pytest.fixture
def pool_starts(monkeypatch):
    """Run enumeration pools in-process on a 3-CPU machine; the list
    records the worker count of every pool started."""
    from turantools import enumeration

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    return started
