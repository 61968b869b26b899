"""Physical invariants of ``run_series`` over random fields and time grids."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ohsqueeze.dynamics import MODELS, SqueezeSeries, max_heisenberg_violation, run_series
from ohsqueeze.hamiltonians import HamiltonianKind, build_named
from ohsqueeze.units import FieldParams

POLICIES = st.one_of(st.sampled_from(["formula", "scan"]), st.floats(-math.pi, math.pi))
TIMES = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=64).map(np.array)


@st.composite
def fields(draw, scenario):
    """Reduced fields the scenario's Hamiltonian accepts.

    ``e_t`` in [0.01, 0.5], ``b_t = r e_t**2`` with r in [-5, 5] (zero for
    pure twisting), theta pinned by "ku" and "lnl" and free in [0, pi]
    otherwise, and either sign convention.
    """
    e_t = draw(st.floats(0.01, 0.5))
    c_const = draw(st.sampled_from([1, -1]))
    if scenario == "ku":
        b_t, theta = 0.0, 0.0
    else:
        b_t = draw(st.floats(-5.0, 5.0)) * e_t**2
        theta = 0.5 * math.pi if scenario == "lnl" else draw(st.floats(0.0, math.pi))
    return FieldParams(delta_t=1.0, b_t=b_t, e_t=e_t, theta=theta, c_const=c_const)


@st.composite
def runs(draw):
    scenario = draw(st.sampled_from(["ku", "lnl", "general"]))
    return draw(fields(scenario)), scenario, draw(st.sampled_from(MODELS))


@settings(max_examples=150, deadline=None)
@given(run=runs(), times=TIMES, n_policy=POLICIES)
def test_states_stay_physical(run, times, n_policy):
    params, scenario, model = run
    series = run_series(params, scenario, model, times, n_policy)
    if model == "four_dim":
        assert np.all(np.abs(series.purity - 1.0) <= 1e-12)
    else:
        # the reduced state of a pure eight-level state has rank <= 2
        assert np.all(series.purity >= 0.5 - 1e-12)
        assert np.all(series.purity <= 1.0 + 1e-12)
    # A variance <J^2> - <J>^2 near zero carries ~1e-15 of cancellation
    # error, which the spread's square root lifts to a few 1e-8 of apparent
    # shortfall (1.1e-8 at theta = 1e-8 from the -z-stretched state).
    assert max_heisenberg_violation(series) <= 1e-7
    # a polarization zero gives an inf sentinel, never nan
    for column in (series.xi_y_n, series.xi_z_n, series.xi_x, series.xi_y):
        assert not np.isnan(column).any()


@settings(max_examples=50, deadline=None)
@given(params=fields("lnl"), model=st.sampled_from(MODELS), times=TIMES)
def test_general_at_ninety_degrees_is_lnl_bit_for_bit(params, model, times):
    lnl = run_series(params, "lnl", model, times)
    general = run_series(params, "general", model, times)
    for field in dataclasses.fields(SqueezeSeries):
        if field.name == "scenario":
            continue
        ours, theirs = getattr(general, field.name), getattr(lnl, field.name)
        if isinstance(ours, np.ndarray):
            assert ours.tobytes() == theirs.tobytes(), field.name
        else:
            assert ours == theirs, field.name


@settings(max_examples=50, deadline=None)
@given(params=fields("ku"), model=st.sampled_from(MODELS), times=TIMES)
def test_scan_policy_never_loses_to_formula_on_random_twisting(params, model, times):
    formula = run_series(params, "ku", model, times, "formula")
    scan = run_series(params, "ku", model, times, "scan")
    assert np.all(scan.var_jy_n <= formula.var_jy_n + 1e-9)


@settings(max_examples=100, deadline=None)
@given(params=fields("general"))
def test_rotated_frame_form_is_isospectral(params):
    general = np.linalg.eigvalsh(build_named(HamiltonianKind.GENERAL_THETA, params))
    rotated = np.linalg.eigvalsh(build_named(HamiltonianKind.AGARWAL_PURI_ROTATED, params))
    scale = max(1.0, float(np.max(np.abs(general))))
    assert np.allclose(rotated, general, rtol=0.0, atol=1e-12 * scale)
