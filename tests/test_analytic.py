"""Closed-form twisting and uniform-field squeezing expressions.

The two frozen optima in this file were produced by an independent
brute-force minimization (dense mesh plus coordinate golden-section
refinement) before the closed-form route was trusted; the smaller mesh
cross-checks here keep that derivation alive in the suite.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import golden_section, scan_then_golden

from ohsqueeze import analytic

# Frozen by the first oracle run: global minimum of the twisting squeezing
# parameter at the closed-form analysis angle, and the optimal field ratio
# of the uniform-field scheme with the value of its objective there.
KU_XI_MIN = 0.761696134439837
R_OPT = 3.3221153532430465
XI_MIN_AT_R_OPT = 0.9085954557318339
XI_AT_R_3P3 = 0.9086013610299306


def test_matched_convention_constant():
    assert analytic.MATCHED_C_CONST == -1


def test_twist_envelope_start():
    growth, shear, tilt = analytic.twist_envelope(1.0, 0.0)
    assert growth == 0.0
    assert shear == 0.0
    assert tilt == 0.0


def test_optimal_angle_small_time_limit():
    n = analytic.optimal_axis_angle(1.0, 1e-8)
    assert n == pytest.approx(math.pi / 4.0, abs=1e-6)


def test_ku_moments_at_t_zero():
    mean, var_y, var_z = analytic.ku_moments(0.7, 0.0, 0.3)
    assert mean == pytest.approx(1.5, abs=1e-15)
    assert var_y == pytest.approx(0.75, abs=1e-15)
    assert var_z == pytest.approx(0.75, abs=1e-15)


def test_ku_transverse_variance_sum_rule():
    # the rotated variances always add up to (3/4)(2 + growth)
    rng = np.random.default_rng(23)
    for _ in range(20):
        kappa = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.0, 6.0)
        n = rng.uniform(0.0, math.pi)
        growth, _, _ = analytic.twist_envelope(kappa, t)
        _, var_y, var_z = analytic.ku_moments(kappa, t, n)
        assert var_y + var_z == pytest.approx(0.75 * (2.0 + growth), abs=1e-12)


def test_ku_minimum_against_brute_force():
    ts = np.linspace(1e-4, math.pi, 1201)
    ns = np.linspace(0.0, math.pi, 721)
    grid_t, grid_n = np.meshgrid(ts, ns, indexing="ij")
    xi_y, _ = analytic.ku_xi(1.0, grid_t, grid_n)
    i, j = np.unravel_index(np.argmin(xi_y), xi_y.shape)
    t0, n0 = ts[i], ns[j]
    for _ in range(40):
        t0, _ = golden_section(
            lambda t: analytic.ku_xi(1.0, t, n0)[0], t0 - 5e-3, t0 + 5e-3, tol=1e-13
        )
        n0, _ = golden_section(
            lambda n: analytic.ku_xi(1.0, t0, n)[0], n0 - 5e-3, n0 + 5e-3, tol=1e-13
        )
    brute = analytic.ku_xi(1.0, t0, n0)[0]

    def xi_at_formula_angle(t):
        return analytic.ku_xi(1.0, t, analytic.optimal_axis_angle(1.0, t))[0]

    _, formula = scan_then_golden(xi_at_formula_angle, 1e-6, math.pi, 4001, tol=1e-12)
    assert abs(formula - brute) < 1e-6
    assert formula == pytest.approx(KU_XI_MIN, abs=1e-9)
    assert abs(formula - 0.75) < 0.02


def test_ku_anti_squeezed_quadrature_never_below_one():
    t = np.linspace(0.0, math.pi, 2001)
    n = analytic.optimal_axis_angle(0.0625, t / 0.0625)
    _, xi_z = analytic.ku_xi(0.0625, t / 0.0625, n)
    assert np.all(xi_z >= 1.0 - 1e-9)


def test_ku_xi_sign_symmetry():
    t = np.linspace(0.0, 3.0, 301)
    up = analytic.ku_xi(0.4, t, analytic.optimal_axis_angle(0.4, t))
    down = analytic.ku_xi(-0.4, t, analytic.optimal_axis_angle(-0.4, t))
    assert np.allclose(up[0], down[0], atol=1e-12)
    assert np.allclose(up[1], down[1], atol=1e-12)


def test_precession_rate_identities():
    assert analytic.precession_rate(0.0, 0.7) == pytest.approx(0.7, rel=1e-15)
    assert analytic.precession_rate(0.5, 0.0) == pytest.approx(0.5, rel=1e-15)
    kappa, b = 0.3, 1.1
    p = analytic.precession_rate(kappa, b)
    assert p * p == pytest.approx(b * b - b * kappa + kappa * kappa, rel=1e-14)


def test_extremal_time_quarter_phase():
    kappa, b = 0.04, 0.13
    p = analytic.precession_rate(kappa, b)
    assert analytic.extremal_time(kappa, b) == pytest.approx(math.pi / (4.0 * p), rel=1e-15)
    with pytest.raises(ValueError):
        analytic.extremal_time(0.0, 0.0)


def test_lnl_moments_start_and_periodicity():
    kappa, b = 0.0625, 3.3 * 0.0625
    mean0, var_x0, var_y0 = analytic.lnl_moments(kappa, b, 0.0)
    assert mean0 == pytest.approx(1.5, abs=1e-15)
    assert var_x0 == pytest.approx(0.75, abs=1e-15)
    assert var_y0 == pytest.approx(0.75, abs=1e-15)
    p = analytic.precession_rate(kappa, b)
    t = 0.4 / p
    period = math.pi / p
    a = analytic.lnl_moments(kappa, b, t)
    c = analytic.lnl_moments(kappa, b, t + period)
    assert np.allclose(a, c, atol=1e-12)


def test_xi_y_at_ts_matches_moment_route():
    rng = np.random.default_rng(31)
    for _ in range(50):
        r = rng.uniform(0.2, 20.0)
        kappa = rng.uniform(0.01, 0.5)
        b = r * kappa
        t_s = analytic.extremal_time(kappa, b)
        _, xi_y = analytic.lnl_xi(kappa, b, t_s)
        assert xi_y == pytest.approx(analytic.xi_y_at_ts(r), abs=1e-9)


def test_xi_y_at_ts_array_input():
    r = np.array([0.5, 3.3, 10.0])
    values = analytic.xi_y_at_ts(r)
    assert values.shape == (3,)
    assert values[1] == pytest.approx(XI_AT_R_3P3, abs=1e-12)


def test_optimize_r_frozen_values():
    r_opt, xi_min = analytic.optimize_r()
    assert r_opt == pytest.approx(R_OPT, abs=1e-6)
    assert xi_min == pytest.approx(XI_MIN_AT_R_OPT, abs=1e-9)
    assert abs(r_opt - 3.3) <= 0.05
    assert abs(xi_min - 0.9086) <= 1e-3
    # the 0.8 figure sometimes associated with this optimum is not what the
    # formula yields; the derived minimum is pinned instead
    assert abs(xi_min - 0.8) > 0.05


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3))
@example(0.1)
@example(0.4344)
@example(3.3)
@example(3.3221)
@example(3.33)
@example(100.0)
def test_optimize_r_never_worse_than_brute_force(r_max):
    r_opt, xi_min = analytic.optimize_r(r_max)
    assert 0.0 <= r_opt <= r_max
    assert xi_min == analytic.xi_y_at_ts(r_opt)
    _, brute = scan_then_golden(analytic.xi_y_at_ts, 0.0, r_max, 1001, tol=1e-8)
    assert xi_min <= brute + 1e-15


@pytest.mark.parametrize(
    "r_max, message",
    [
        (-1.0, "finite and positive"),
        (0.0, "finite and positive"),
        (math.nan, "finite and positive"),
        (math.inf, "finite and positive"),
        # finite, but xi_y_at_ts overflows to nan there (warnings are errors)
        (1e200, "overflows"),
    ],
)
def test_optimize_r_rejects_bad_bound(r_max, message):
    with pytest.raises(ValueError, match=message):
        analytic.optimize_r(r_max)


def test_xi_infinite_at_zero_polarization():
    assert math.isinf(analytic.xi_wineland(math.sqrt(0.75), 0.0))
    out = analytic.xi_wineland(np.sqrt([0.75, 0.75]), np.array([1.5, 0.0]))
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert math.isinf(out[1])


def test_xi_infinite_at_subnormal_polarization_without_warning():
    # the quotient overflows; pytest turns a numpy overflow warning into an error
    out = analytic.xi_wineland(np.sqrt([0.75, 0.75]), np.array([1.08599809e-309, -5e-324]))
    assert np.all(np.isposinf(out))


def test_scalar_inputs_return_floats():
    mean, var_y, var_z = analytic.ku_moments(0.5, 0.3, 0.2)
    assert isinstance(mean, float)
    assert isinstance(var_y, float)
    assert isinstance(var_z, float)
    assert isinstance(analytic.xi_y_at_ts(3.3), float)
