"""Time evolution, moment extraction, and scenario runs."""

import math
import tracemalloc

import numpy as np
import pytest

import reference
from ohsqueeze import analytic, dynamics
from ohsqueeze.dynamics import (
    max_heisenberg_violation,
    run_series,
    time_scale,
    xi_wineland,
)
from ohsqueeze.spin import embed_initial_state, make_spin_ops
from ohsqueeze.units import FieldParams

OPS = make_spin_ops(1.5)


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _twisting_params(e_t=0.25):
    # c_const = -1 gives positive twisting strength e_t**2 / delta_t
    return FieldParams(delta_t=1.0, b_t=0.0, e_t=e_t, theta=0.0, c_const=-1)


def _uniform_field_params(r=3.3, e_t=0.25):
    kappa = e_t**2
    return FieldParams(
        delta_t=1.0, b_t=r * kappa, e_t=e_t, theta=0.5 * math.pi, c_const=-1
    )


# ---------------------------------------------------------------------------
# the single-point reference routes (tests/reference.py)


def test_expect_vector_density_agree():
    rng = np.random.default_rng(5)
    psi = _random_state(rng, 4)
    rho = np.outer(psi, psi.conj())
    for op in (OPS.jx, OPS.jy, OPS.jz, OPS.jx @ OPS.jx):
        assert reference.expect(op, psi) == pytest.approx(reference.expect(op, rho), abs=1e-12)


def test_evolve_preserves_norm_and_starts_at_identity():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T)
    psi = _random_state(rng, 4)
    assert np.allclose(reference.propagator(h, 0.0) @ psi, psi, atol=1e-14)
    psi_t = reference.propagator(h, 1.7) @ psi
    assert np.linalg.norm(psi_t) == pytest.approx(1.0, abs=1e-13)


def test_evolve_matches_eigenphase_on_diagonal_generator():
    h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    psi = np.full(4, 0.5, dtype=complex)
    out = reference.propagator(h, 0.9) @ psi
    assert np.allclose(out, 0.5 * np.exp(-1j * 0.9 * np.arange(4)), atol=1e-14)


def test_reduce_projects_out_pseudo_spin():
    psi4 = _random_state(np.random.default_rng(3), 4)
    psi8 = embed_initial_state(psi4, "f")
    rho = reference.partial_trace_slow(np.outer(psi8, psi8.conj()), 2, 4)
    assert np.allclose(rho, np.outer(psi4, psi4.conj()), atol=1e-14)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# rotated moments and the squeezing parameter


def test_rotated_moments_zero_angle_is_direct():
    times = np.linspace(0.0, 3.0, 31)
    series = run_series(_twisting_params(), "ku", "eight_dim", times, n_policy=0.0)
    assert np.array_equal(series.mean_jy_n, series.mean_jy)
    assert np.array_equal(series.mean_jz_n, series.mean_jz)
    assert np.allclose(series.var_jy_n, series.var_jy, atol=1e-14)
    assert np.allclose(series.var_jz_n, series.var_jz, atol=1e-14)


def test_rotated_moments_match_rotated_state():
    # rotating the operators forward (the kernel) equals rotating the state
    # backward (the reference)
    n = 0.8
    series = run_series(_twisting_params(), "ku", "four_dim", [1.3], n_policy=n)
    ref = reference.moments(_twisting_params(), "ku", "four_dim", series.times_phys[0], n)
    assert series.mean_jy_n[0] == pytest.approx(ref["mean_jy_n"], abs=1e-12)
    assert series.var_jz_n[0] == pytest.approx(ref["var_jz_n"], abs=1e-12)
    assert series.mean_jx[0] == pytest.approx(ref["mean_jx"], abs=1e-12)


def _random_params(rng, scenario):
    e_t = float(rng.uniform(0.05, 0.5))
    c_const = int(rng.choice([1, -1]))
    if scenario == "ku":
        return FieldParams(delta_t=1.0, b_t=0.0, e_t=e_t, theta=0.0, c_const=c_const)
    theta = 0.5 * math.pi if scenario == "lnl" else float(rng.uniform(0.05, math.pi - 0.05))
    b_t = float(rng.uniform(-5.0, 5.0)) * e_t**2
    return FieldParams(delta_t=1.0, b_t=b_t, e_t=e_t, theta=theta, c_const=c_const)


ORACLE_FIELDS = ("mean_jx", "mean_jy_n", "var_jy_n", "var_jz_n", "cov_jy_jz", "purity")


@pytest.mark.parametrize("model", ["four_dim", "eight_dim"])
@pytest.mark.parametrize(
    "scenario, n_policy",
    [
        ("ku", "formula"),
        ("ku", "scan"),
        ("ku", 0.7),
        ("lnl", "formula"),
        ("general", "formula"),
        ("general", 0.4),
    ],
)
def test_run_series_matches_single_point_reference(scenario, n_policy, model):
    seed = ["ku", "lnl", "general"].index(scenario) + 10 * ["four_dim", "eight_dim"].index(model)
    rng = np.random.default_rng(seed)
    params = _random_params(rng, scenario)
    times = np.linspace(0.0, 3.0, 61)
    series = run_series(params, scenario, model, times, n_policy=n_policy)
    for k in np.concatenate([[0, times.size - 1], rng.choice(times.size, 6, replace=False)]):
        ref = reference.moments(
            params, scenario, model, series.times_phys[k], series.n_angle[k]
        )
        for name in ORACLE_FIELDS:
            assert getattr(series, name)[k] == pytest.approx(ref[name], abs=1e-12), (name, k)


def test_xi_wineland_coherent_baseline_and_sentinel():
    assert xi_wineland(math.sqrt(0.75), 1.5) == pytest.approx(1.0, abs=1e-15)
    assert math.isinf(xi_wineland(0.5, 0.0))
    out = xi_wineland(np.array([math.sqrt(0.75), 0.1]), np.array([1.5, 0.0]))
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert math.isinf(out[1])


# ---------------------------------------------------------------------------
# scenario runs against the closed forms


def test_run_series_twisting_matches_closed_form():
    params = _twisting_params()
    times = np.linspace(0.0, 3.0, 401)
    series = run_series(params, "ku", "four_dim", times)
    mean, var_y, var_z = analytic.ku_moments(
        params.kappa_t, series.times_phys, series.n_angle
    )
    assert np.allclose(series.mean_jx, mean, atol=1e-12)
    assert np.allclose(series.var_jy_n, var_y, atol=1e-12)
    assert np.allclose(series.var_jz_n, var_z, atol=1e-12)
    xi_y, xi_z = analytic.ku_xi(params.kappa_t, series.times_phys, series.n_angle)
    ok = np.abs(series.mean_jx) >= 0.05
    assert np.allclose(series.xi_y_n[ok], xi_y[ok], rtol=1e-9)
    assert np.allclose(series.xi_z_n[ok], xi_z[ok], rtol=1e-9)
    assert series.time_scale == pytest.approx(abs(params.kappa_t), rel=1e-15)


def test_run_series_uniform_field_matches_closed_form():
    params = _uniform_field_params()
    times = np.linspace(0.0, math.pi, 201)
    series = run_series(params, "lnl", "four_dim", times)
    mean_jz, var_x, var_y = analytic.lnl_moments(
        params.kappa_t, params.b_t, series.times_phys
    )
    # evolution starts from the -z-stretched state, so the polarization is
    # the mirror of the +z branch the closed form quotes
    assert np.allclose(series.mean_jz, -mean_jz, atol=1e-12)
    assert np.allclose(series.var_jx, var_x, atol=1e-12)
    assert np.allclose(series.var_jy, var_y, atol=1e-12)
    xi_x, xi_y = analytic.lnl_xi(params.kappa_t, params.b_t, series.times_phys)
    ok = np.abs(series.mean_jz) >= 0.05
    assert np.allclose(series.xi_x[ok], xi_x[ok], rtol=1e-9)
    assert np.allclose(series.xi_y[ok], xi_y[ok], rtol=1e-9)


def test_xi_pair_selects_scenario_columns():
    times = np.linspace(0.0, 1.0, 11)
    ku = run_series(_twisting_params(), "ku", "four_dim", times)
    labels = [label for label, _ in ku.xi_pair()]
    assert labels == ["xi_y", "xi_z"]
    assert ku.xi_pair()[0][1] is ku.xi_y_n
    lnl = run_series(_uniform_field_params(), "lnl", "four_dim", times)
    labels = [label for label, _ in lnl.xi_pair()]
    assert labels == ["xi_x", "xi_y"]
    assert lnl.xi_pair()[1][1] is lnl.xi_y


def test_scan_policy_never_loses_to_formula():
    times = np.linspace(0.0, 3.0, 181)
    for model in dynamics.MODELS:
        formula = run_series(_twisting_params(), "ku", model, times, n_policy="formula")
        scan = run_series(_twisting_params(), "ku", model, times, n_policy="scan")
        roundoff = 1e-12 * np.maximum(1.0, np.abs(formula.var_jy_n))
        assert np.all(scan.var_jy_n <= formula.var_jy_n + roundoff), model


def test_scan_angle_never_rounds_up_to_pi():
    # Just before t = 0 the eight-level covariance is a tiny negative number
    # while var_y - var_z is a roundoff-sized negative one, so half the atan2
    # is a tiny negative angle, which mod pi rounds up to pi.
    times = [-1e-300, 0.0, 1e-300]
    series = run_series(_twisting_params(e_t=0.2), "ku", "eight_dim", times, n_policy="scan")
    assert series.cov_jy_jz[0] < 0.0
    assert np.all((series.n_angle >= 0.0) & (series.n_angle < math.pi))


def test_fixed_angle_policy():
    times = np.linspace(0.0, 2.0, 41)
    series = run_series(_twisting_params(), "ku", "four_dim", times, n_policy=0.4)
    assert np.all(series.n_angle == 0.4)
    assert series.n_policy == f"fixed:{0.4!r}"
    uniform = run_series(_uniform_field_params(), "lnl", "four_dim", times)
    assert np.all(uniform.n_angle == 0.0)
    assert uniform.n_policy == "fixed:0.0"


def test_run_series_validation():
    params = _twisting_params()
    times = np.linspace(0.0, 1.0, 5)
    # an unknown scenario is one ValueError, from the kernel and from time_scale
    for call in (
        lambda: run_series(params, "bogus", "four_dim", times),
        lambda: run_series([], "bogus", "four_dim", times),
        lambda: time_scale(params, "bogus"),
    ):
        with pytest.raises(ValueError, match="scenario must be one of"):
            call()
    with pytest.raises(ValueError):
        run_series(params, "ku", "six_dim", times)
    with pytest.raises(ValueError):
        run_series(params, "ku", "four_dim", [])
    # a grid is one axis: a second row is not silently dropped
    with pytest.raises(ValueError, match="one-dimensional"):
        run_series(params, "ku", "four_dim", np.ones((2, 3)))
    with pytest.raises(ValueError):
        run_series(params, "ku", "four_dim", [0.0, np.nan])
    with pytest.raises(ValueError):
        run_series(params, "ku", "four_dim", times, n_policy="sideways")
    static = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.0, theta=0.5 * math.pi)
    with pytest.raises(ValueError):
        run_series(static, "lnl", "four_dim", times)
    # an unknown policy string is rejected in every scenario, not only ku
    for scenario in ("lnl", "general"):
        with pytest.raises(ValueError, match="n_policy"):
            run_series(_uniform_field_params(), scenario, "four_dim", times, n_policy="sideways")
    # a nonzero drive whose kappa_t underflows to 0.0 is not "no twisting"
    underflow = _twisting_params(e_t=1e-170)
    assert underflow.kappa_t == 0.0
    with pytest.raises(ValueError, match="underflows"):
        run_series(underflow, "ku", "four_dim", times)
    # a fixed analysis angle must be finite in every scenario
    for scenario, fields in (("ku", params), ("lnl", _uniform_field_params())):
        for angle in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                run_series(fields, scenario, "four_dim", times, n_policy=angle)
    with pytest.raises(ValueError, match="finite"):
        run_series(_uniform_field_params(), "general", "eight_dim", times, n_policy=math.inf)
    # every field of a batch is checked; an empty batch gives no series
    with pytest.raises(ValueError, match="zero precession rate"):
        run_series([_uniform_field_params(), static], "lnl", "four_dim", times)
    with pytest.raises(ValueError, match="overflows"):
        run_series([params, _twisting_params(e_t=1e-155)], "ku", "four_dim", [0.0, 1e300])
    assert run_series([], "lnl", "four_dim", times) == []


@pytest.mark.parametrize("model", ["four_dim", "eight_dim"])
@pytest.mark.parametrize(
    "scenario, params, match",
    [
        ("ku", FieldParams(delta_t=1.0, b_t=0.1, e_t=0.2, theta=0.0, c_const=-1), "b_t"),
        ("ku", FieldParams(delta_t=1.0, b_t=0.0, e_t=0.2, theta=0.1, c_const=-1), "theta"),
        ("lnl", FieldParams(delta_t=1.0, b_t=0.1, e_t=0.2, theta=1.5, c_const=-1), "theta"),
    ],
    ids=["ku-field", "ku-tilted", "lnl-off-ninety"],
)
def test_scenario_rules_hold_for_both_models(scenario, params, match, model):
    with pytest.raises(ValueError, match=match):
        run_series(params, scenario, model, [0.0, 1.0])
    # the fixed angle's tolerance is 1e-12
    fixed = {"ku": 0.0, "lnl": 0.5 * math.pi}[scenario]
    near = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.2, theta=fixed + 1e-13)
    run_series(near, scenario, model, [0.0, 1.0])


def test_twisting_off_is_flat_unit_xi():
    static = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.0)
    series = run_series(static, "ku", "four_dim", np.linspace(0.0, 5.0, 21))
    assert series.time_scale == 1.0
    assert np.allclose(series.xi_y_n, 1.0, atol=1e-12)
    assert np.allclose(series.mean_jx, 1.5, atol=1e-13)


def test_eight_level_run_is_nearly_adiabatic_when_weakly_driven():
    params = _twisting_params(e_t=0.01)
    times = np.linspace(0.0, 1.0, 41)
    series = run_series(params, "ku", "eight_dim", times)
    assert series.purity.min() >= 0.999


def test_uncertainty_bounds_hold_everywhere():
    times = np.linspace(0.0, math.pi, 101)
    runs = [
        run_series(_twisting_params(), "ku", "four_dim", np.linspace(0.0, 3.0, 101)),
        run_series(_uniform_field_params(), "lnl", "four_dim", times),
        run_series(_twisting_params(e_t=0.05), "ku", "eight_dim", np.linspace(0.0, 3.0, 51)),
        run_series(_uniform_field_params(e_t=0.05), "general", "eight_dim", times[:51]),
        # a z-stretched state barely tilted: var_jz_n cancels to roundoff,
        # whose square root would read as a 1e-8 shortfall
        run_series(
            FieldParams(delta_t=1.0, b_t=0.0, e_t=0.5, theta=1e-8, c_const=-1),
            "general",
            "four_dim",
            [0.0, 1.0],
        ),
    ]
    for series in runs:
        assert max_heisenberg_violation(series) <= 1e-9


def test_general_theta_ninety_equals_uniform_field_run():
    times = np.linspace(0.0, 2.0, 51)
    lnl = run_series(_uniform_field_params(), "lnl", "four_dim", times)
    gen = run_series(_uniform_field_params(), "general", "four_dim", times)
    assert np.array_equal(lnl.xi_y, gen.xi_y)
    assert np.array_equal(lnl.mean_jz, gen.mean_jz)


def test_resolved_twist_sign_matches_pinned_convention():
    assert reference.resolve_twist_sign() == -1
    assert reference.resolve_twist_sign() == analytic.MATCHED_C_CONST


def test_run_series_is_bitwise_reproducible():
    times = np.linspace(0.0, 3.0, 101)
    a = run_series(_twisting_params(), "ku", "eight_dim", times, n_policy="scan")
    b = run_series(_twisting_params(), "ku", "eight_dim", times, n_policy="scan")
    assert np.array_equal(a.xi_y_n, b.xi_y_n)
    assert np.array_equal(a.n_angle, b.n_angle)
    assert np.array_equal(a.purity, b.purity)


def test_full_model_twist_rate_is_half_the_reduced_one():
    # the eight-level dynamics twists at e**2/(2 delta): its envelope at
    # dimensionless time 2x matches the reduced run at x, up to O(e**2)
    # corrections (0.0028 at e = 0.05, scaling confirmed at e = 0.02)
    params = _twisting_params(e_t=0.05)
    t4 = np.linspace(0.0, 1.0, 41)
    four = run_series(params, "ku", "four_dim", t4, n_policy="scan")
    eight = run_series(params, "ku", "eight_dim", 2.0 * t4, n_policy="scan")
    assert np.allclose(eight.var_jy_n, four.var_jy_n, atol=5e-3)
    assert np.allclose(eight.cov_jy_jz, four.cov_jy_jz, atol=5e-3)
    assert np.allclose(eight.mean_jx, four.mean_jx, atol=5e-3)


#: (model, analysis-angle policy) pairs; the formula cases keep their model ids.
MEMORY_RUNS = [
    pytest.param(model, n_policy, id=model if n_policy == "formula" else f"{model}-{n_policy}")
    for n_policy in ("formula", "scan")
    for model in ("four_dim", "eight_dim")
]


def _run_peak_bytes(model, n_policy, points):
    """Peak traced allocation of one twisting run over ``points`` times."""
    times = np.linspace(0.0, 3.0, points)
    tracemalloc.start()
    try:
        run_series(_twisting_params(), "ku", model, times, n_policy)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("model", "n_policy"), MEMORY_RUNS)
def test_run_series_memory_per_point_is_bounded(model, n_policy):
    # The time axis is walked in tiles, so the per-point state table and
    # density matrix (over 400 B per point) never exist for the whole grid.
    # What stays is the series itself (18 float columns besides the shared
    # grid, 144 B per point) and the moment rows and temporaries of the
    # full-length columns; the scan angle's costs no more than the formula's.
    small = _run_peak_bytes(model, n_policy, 6000)
    large = _run_peak_bytes(model, n_policy, 60000)
    assert large - small <= 54000 * 224


def _run_retained_bytes(model, n_policy, points):
    """Traced memory a twisting run's series still holds after it returns."""
    times = np.linspace(0.0, 3.0, points)
    tracemalloc.start()
    try:
        series = run_series(_twisting_params(), "ku", model, times, n_policy)
        retained = tracemalloc.get_traced_memory()[0]
        assert series.times is times
        return retained
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("model", "n_policy"), MEMORY_RUNS)
def test_run_series_retained_memory_per_point_is_bounded(model, n_policy):
    # A series keeps its 18 float columns (144 B per point).  Every row of
    # the block's moment array is one of them, so no moment row that no
    # series exposes stays alive with it.
    small = _run_retained_bytes(model, n_policy, 6000)
    large = _run_retained_bytes(model, n_policy, 60000)
    assert large - small <= 54000 * 160
