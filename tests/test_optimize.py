"""The reference scalar minimizers: golden section and the brute-force scan oracle."""

import math

import numpy as np
import pytest
from reference import golden_section, scan_then_golden


def test_golden_section_quadratic():
    x, fx = golden_section(lambda x: (x - 1.7) ** 2 + 0.25, 0.0, 3.0, tol=1e-10)
    assert x == pytest.approx(1.7, abs=1e-7)
    assert fx == pytest.approx(0.25, abs=1e-12)


def test_golden_section_asymmetric_function():
    x, fx = golden_section(lambda x: math.cos(x) + 0.1 * x, 0.0, 2.0 * math.pi, tol=1e-10)
    # stationary point of cos(x) + 0.1 x: sin(x) = 0.1
    expected = math.pi - math.asin(0.1)
    assert x == pytest.approx(expected, abs=1e-6)
    assert fx == pytest.approx(math.cos(expected) + 0.1 * expected, abs=1e-10)


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(ValueError):
        golden_section(lambda x: x * x, 1.0, 1.0)
    with pytest.raises(ValueError):
        golden_section(lambda x: x * x, 2.0, 1.0)


def test_scan_then_golden_finds_global_among_local_minima():
    def two_wells(x):
        return min((x - 0.5) ** 2 + 0.1, (x - 2.5) ** 2)

    x, fx = scan_then_golden(two_wells, 0.0, 3.0, 61, tol=1e-10)
    assert x == pytest.approx(2.5, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_scan_then_golden_cosine():
    x, fx = scan_then_golden(math.cos, 0.0, 2.0 * math.pi, 101, tol=1e-12)
    assert x == pytest.approx(math.pi, abs=1e-6)
    assert fx == pytest.approx(-1.0, abs=1e-12)


def test_scan_then_golden_never_worse_than_grid():
    grid = np.linspace(0.0, 2.0 * math.pi, 101)
    best_grid = np.min(np.cos(grid))
    _, fx = scan_then_golden(math.cos, 0.0, 2.0 * math.pi, 101, tol=1e-12)
    assert fx <= best_grid + 1e-15


def test_scan_then_golden_validation():
    with pytest.raises(ValueError):
        scan_then_golden(math.cos, 0.0, 1.0, 2)


def test_deterministic_repeat():
    a = scan_then_golden(math.cos, 0.0, 2.0 * math.pi, 101, tol=1e-12)
    b = scan_then_golden(math.cos, 0.0, 2.0 * math.pi, 101, tol=1e-12)
    assert a == b
