"""Marks the benchmark's smoke tests (``perfbench/``) slow: each one runs
the benchmark in fresh processes, so ``pytest -m "not slow"`` leaves them
out of the fast loop, as it does the Monte Carlo acceptance criteria."""

import pathlib

import pytest

_PERFBENCH = pathlib.Path(__file__).resolve().parent / "perfbench"


def pytest_collection_modifyitems(items):
    for item in items:
        if _PERFBENCH in item.path.parents:
            item.add_marker(pytest.mark.slow)
