"""The benchmark's tracer (perfbench/tracing.py) wraps library entry points by
module and attribute name. A rename there would only show up as a missing
layer in a benchmark run; these tests make it fail the test suite instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import eigenvanish

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in tracing.CALL_SITES]
)
def test_call_site_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("attr", sorted(tracing.API_SPANS))
def test_api_span_exists(attr):
    assert callable(getattr(eigenvanish, attr, None))


def test_scan_counts_takes_the_element_count_third():
    # the tracer reads the scan's element count as its third positional argument
    periods = importlib.import_module("eigenvanish.periods")
    params = list(inspect.signature(periods.scan_counts).parameters)
    assert params[:5] == ["cols", "trace", "total", "p", "q"]
