"""The benchmark's traced replays wrap hdlrt functions by name
(``perfbench/tracing.py``, ``WRAPPED``); a refactor that drops or renames
one of those names must fail here, not in the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize("module_name, attr, span", _wrapped())
def test_traced_name_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))
