"""Physical invariants of ``run_series`` over random fields and time grids."""

import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import reference
from reference import build_rotated_frame

from ohsqueeze import cli, dynamics
from ohsqueeze.dynamics import (
    MODELS,
    SCENARIOS,
    SqueezeSeries,
    max_heisenberg_violation,
    run_series,
)
from ohsqueeze.hamiltonians import build_reduced
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


def assert_same_bits(ours: SqueezeSeries, theirs: SqueezeSeries, skip=()) -> None:
    """Every field equal, arrays compared by their bytes."""
    for field in dataclasses.fields(SqueezeSeries):
        if field.name in skip:
            continue
        mine, other = getattr(ours, field.name), getattr(theirs, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.tobytes() == other.tobytes(), field.name
        else:
            assert mine == other, field.name


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
    assert max_heisenberg_violation(series) <= 1e-9
    # a polarization zero gives an inf sentinel, never nan
    for column in (series.xi_y_n, series.xi_z_n, series.xi_x, series.xi_y):
        assert not np.isnan(column).any()


@settings(max_examples=50, deadline=None)
@given(params=fields("lnl"), model=st.sampled_from(MODELS), times=TIMES)
def test_general_at_ninety_degrees_is_lnl_bit_for_bit(params, model, times):
    lnl = run_series(params, "lnl", model, times)
    general = run_series(params, "general", model, times)
    assert_same_bits(general, lnl, skip=("scenario",))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), times=TIMES, n_policy=POLICIES)
def test_batch_of_fields_equals_single_field_runs(monkeypatch, data, times, n_policy):
    scenario = data.draw(st.sampled_from(SCENARIOS))
    model = data.draw(st.sampled_from(MODELS))
    batch = data.draw(st.lists(fields(scenario), min_size=1, max_size=12))
    # A budget below one grid walks each field in tiles that split the grid;
    # one of 1 to 4 grids puts 1 to 4 fields in a block, so blocks split
    # mid-batch.  Tile lengths follow the budget, so the single-field runs
    # share it: the same bits at the same constant.
    budget = data.draw(st.integers(1, 4 * times.size))
    monkeypatch.setattr(dynamics, "_BATCH_POINTS", budget)
    singles = [run_series(params, scenario, model, times, n_policy) for params in batch]
    batched = run_series(batch, scenario, model, times, n_policy)
    assert isinstance(batched, list) and len(batched) == len(batch)
    for one, many in zip(singles, batched):
        assert_same_bits(many, one)


def summary_floats(minima: dict, violation: float) -> list[str]:
    """One run's summaries as exact hex text: xi minima, their times, the shortfall."""
    values = [float(v) for rec in minima.values() for v in rec.values()]
    return [*minima, *(v.hex() for v in [*values, violation])]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), times=TIMES, n_policy=POLICIES)
def test_batched_summaries_equal_per_run_route(data, times, n_policy):
    scenario = data.draw(st.sampled_from(SCENARIOS))
    model = data.draw(st.sampled_from(MODELS))
    batch = data.draw(st.lists(fields(scenario), min_size=1, max_size=8))
    runs = run_series(batch, scenario, model, times, n_policy)
    minima = cli._xi_minima(runs)
    violations = max_heisenberg_violation(runs)
    assert len(minima) == len(violations) == len(runs)
    for run, got, violation in zip(runs, minima, violations):
        want = summary_floats(reference.xi_minima(run), reference.max_heisenberg_violation(run))
        assert summary_floats(got, violation) == want


@settings(max_examples=50, deadline=None)
@given(params=fields("ku"), model=st.sampled_from(MODELS), times=TIMES)
def test_scan_policy_never_loses_to_formula_on_random_twisting(params, model, times):
    formula = run_series(params, "ku", model, times, "formula")
    scan = run_series(params, "ku", model, times, "scan")
    roundoff = 1e-12 * np.maximum(1.0, np.abs(formula.var_jy_n))
    assert np.all(scan.var_jy_n <= formula.var_jy_n + roundoff)


@settings(max_examples=50, deadline=None)
@given(params=fields("ku"), model=st.sampled_from(MODELS), times=TIMES)
def test_scan_angle_is_the_exact_minimizer(params, model, times):
    # t = 0 is the isotropic row: B = C = 0 up to roundoff, every angle ties.
    times = np.concatenate([[0.0], times])
    scan = run_series(params, "ku", model, times, "scan")
    assert np.all((scan.n_angle >= 0.0) & (scan.n_angle < math.pi))
    # The rotated variance A + B cos 2n - C sin 2n is least at A - hypot(B, C).
    a = 0.5 * (scan.var_jy + scan.var_jz)
    b = 0.5 * (scan.var_jy - scan.var_jz)
    np.testing.assert_allclose(scan.var_jy_n, a - np.hypot(b, scan.cov_jy_jz), rtol=1e-12, atol=0)
    for var_y, var_z, cov, got in zip(scan.var_jy, scan.var_jz, scan.cov_jy_jz, scan.var_jy_n):

        def rotated_var(n, var_y=var_y, var_z=var_z, cov=cov):
            c, s = math.cos(n), math.sin(n)
            return c * c * var_y + s * s * var_z - math.sin(2.0 * n) * cov

        _, brute = reference.scan_then_golden(rotated_var, 0.0, math.pi, 181, tol=1e-10)
        assert got <= brute + 1e-12 * max(1.0, abs(brute))


@settings(max_examples=100, deadline=None)
@given(
    params=st.builds(
        FieldParams,
        delta_t=st.floats(0.5, 2.0),
        b_t=st.floats(-1.0, 1.0),
        e_t=st.floats(0.0, 1.0),
        theta=st.floats(0.0, math.pi),
        c_const=st.sampled_from([1, -1]),
    )
)
def test_rotated_frame_form_is_isospectral(params):
    general = np.linalg.eigvalsh(build_reduced(params))
    rotated = np.linalg.eigvalsh(build_rotated_frame(params))
    scale = max(1.0, float(np.max(np.abs(general))))
    assert np.allclose(rotated, general, rtol=0.0, atol=1e-12 * scale)


MOMENT_COLUMNS = (
    "mean_jx", "mean_jy", "mean_jz", "var_jx", "var_jy", "var_jz", "cov_jy_jz",
    "mean_jy_n", "mean_jz_n", "var_jy_n", "var_jz_n", "purity",
)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    data=st.data(),
    run=runs(),
    times=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=64).map(np.array),
    n_policy=st.one_of(st.just("formula"), st.floats(-math.pi, math.pi)),
)
def test_tiled_run_agrees_with_untiled_run(monkeypatch, data, run, times, n_policy):
    params, scenario, model = run
    whole = run_series(params, scenario, model, times, n_policy)
    # A budget below the grid walks it in tiles, the last one possibly short.
    monkeypatch.setattr(dynamics, "_BATCH_POINTS", data.draw(st.integers(1, times.size - 1)))
    tiled = run_series(params, scenario, model, times, n_policy)
    assert np.array_equal(tiled.n_angle, whole.n_angle)
    for name in MOMENT_COLUMNS:
        np.testing.assert_allclose(getattr(tiled, name), getattr(whole, name), rtol=0, atol=1e-12)
