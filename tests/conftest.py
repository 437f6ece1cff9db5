"""Shared fixtures for the test suite."""

import tracemalloc

import pytest

from repro.arch import (
    ComputingMode,
    functional_testbed,
    isaac_baseline,
    table2_example,
)
from repro.models import conv_relu_example, mlp, residual_toy, tiny_conv


@pytest.fixture
def baseline_arch():
    """The Table 3 ISAAC-like baseline (WLM mode)."""
    return isaac_baseline()


@pytest.fixture
def toy_arch():
    """The Table 2 walkthrough architecture (WLM mode)."""
    return table2_example()


@pytest.fixture
def testbed_xbm():
    """Roomy functional-simulation chip in XBM mode."""
    return functional_testbed(ComputingMode.XBM)


@pytest.fixture
def tiny_graph():
    return tiny_conv()


@pytest.fixture
def mlp_graph():
    return mlp()


@pytest.fixture
def residual_graph():
    return residual_toy()


@pytest.fixture
def conv_relu_graph():
    return conv_relu_example()


@pytest.fixture
def traced_peak():
    """``measure(fn)`` runs ``fn()`` under :mod:`tracemalloc` and returns
    ``(result, peak, retained)``: the bytes traced at the call's peak
    and at its end, both above what was traced when it started."""
    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return result, peak - base, retained - base
    return measure
