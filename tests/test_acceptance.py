"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Shared simulation runs are module-scoped fixtures so the whole file stays
fast; every frozen number here was produced by an independent oracle run
before the implementation under test was trusted.
"""

import math

import numpy as np
import pytest
from reference import golden_section, scan_then_golden, verify_equivalence

from ohsqueeze import analytic, cli
from ohsqueeze.dynamics import max_heisenberg_violation, run_series
from ohsqueeze.hamiltonians import build_full
from ohsqueeze.linalg import herm_eig
from ohsqueeze.spin import make_spin_ops
from ohsqueeze.units import FieldParams

GRID = np.linspace(0.0, math.pi, 2001)

# Frozen oracle values (dense-mesh brute force plus golden refinement).
KU_XI_MIN = 0.761696134439837
R_OPT = 3.3221153532430465
XI_MIN_AT_R_OPT = 0.9085954557318339
THETA_SHIFT_FROZEN = 0.02  # oracle measured 0.0089 for 85 vs 90 degrees


def _report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def _ku_params(e_t: float, c_const: int) -> FieldParams:
    return FieldParams(delta_t=1.0, b_t=0.0, e_t=e_t, theta=0.0, c_const=c_const)


def _lnl_params(c_const: int) -> FieldParams:
    return FieldParams(
        delta_t=1.0, b_t=3.3 * 0.0625, e_t=0.25, theta=0.5 * math.pi, c_const=c_const
    )


@pytest.fixture(scope="module")
def ku_matched():
    return run_series(_ku_params(0.25, -1), "ku", "four_dim", GRID)


@pytest.fixture(scope="module")
def lnl_matched():
    return run_series(_lnl_params(-1), "lnl", "four_dim", GRID)


@pytest.fixture(scope="module")
def ku_eight_runs():
    out = {}
    for c_const in (-1, 1):
        params = _ku_params(0.25, c_const)
        out[c_const] = run_series(params, "ku", "eight_dim", GRID, n_policy="formula")
    return out


def _finite_min(values: np.ndarray) -> float:
    return float(np.where(np.isfinite(values), values, np.inf).min())


def test_criterion_01_operator_algebra():
    worst = 0.0
    for j in (0.5, 1.5):
        ops = make_spin_ops(j)
        comm = ops.jx @ ops.jy - ops.jy @ ops.jx - 1j * ops.jz
        dim = ops.jz.shape[0]
        casimir = (
            ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
            - j * (j + 1.0) * np.eye(dim)
        )
        worst = max(worst, np.linalg.norm(comm), np.linalg.norm(casimir))
    _report(1, worst <= 1e-12, f"spin algebra closes, worst defect {worst:.3e}")


def test_criterion_02_matrix_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    all_passed = True
    for _ in range(100):
        params = FieldParams(
            delta_t=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)),
            b_t=float(rng.uniform(-2.0, 2.0)),
            e_t=float(rng.uniform(0.0, 2.0)),
            theta=float(rng.uniform(0.0, math.pi)),
            c_const=int(rng.choice([1, -1])),
        )
        rep = verify_equivalence(params, rtol=1e-12)
        all_passed &= rep.passed
        worst = max(worst, rep.max_abs_diff / max(rep.matrix_scale, 1.0))
    _report(
        2,
        all_passed,
        f"tensor and tabulated eight-level matrices agree, worst relative "
        f"entry gap {worst:.3e} over 100 draws",
    )


def test_criterion_03_twisting_closed_form(ku_matched):
    series = ku_matched
    kappa = 0.0625
    mean, var_y, var_z = analytic.ku_moments(kappa, series.times_phys, series.n_angle)
    gap = max(
        np.abs(series.mean_jx - mean).max(),
        np.abs(series.var_jy_n - var_y).max(),
        np.abs(series.var_jz_n - var_z).max(),
    )
    xi_y, xi_z = analytic.ku_xi(kappa, series.times_phys, series.n_angle)
    ok_band = np.abs(series.mean_jx) >= 0.05
    xi_ok = np.allclose(series.xi_y_n[ok_band], xi_y[ok_band], rtol=1e-9) and np.allclose(
        series.xi_z_n[ok_band], xi_z[ok_band], rtol=1e-9
    )
    _report(
        3,
        gap <= 1e-9 and xi_ok,
        f"four-level twisting run matches the closed-form moments over 2001 "
        f"points, worst gap {gap:.3e} (xi compared away from the "
        f"polarization zero)",
    )


def test_criterion_04_twisting_minimum():
    # independent route: dense 2-dim mesh over (time, angle), then coordinate
    # golden refinement, never consulting the closed-form angle
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
    _, formula = scan_then_golden(
        lambda t: analytic.ku_xi(1.0, t, analytic.optimal_axis_angle(1.0, t))[0],
        1e-6,
        math.pi,
        4001,
        tol=1e-12,
    )
    ok = (
        abs(formula - brute) <= 1e-6
        and abs(formula - KU_XI_MIN) <= 1e-9
        and abs(formula - 0.75) <= 0.02
    )
    _report(
        4,
        ok,
        f"twisting optimum {formula:.12f} matches brute force within "
        f"{abs(formula - brute):.2e} and sits within 0.02 of 0.75",
    )


def test_criterion_05_anti_squeezed_quadrature():
    t = GRID / 0.0625
    _, xi_z = analytic.ku_xi(0.0625, t, analytic.optimal_axis_angle(0.0625, t))
    low = float(xi_z.min())
    _report(5, low >= 1.0 - 1e-9, f"companion quadrature never squeezed, min {low:.12f}")


def test_criterion_06_uniform_field_convention(lnl_matched):
    kappa_ref, b_ref = 0.0625, 3.3 * 0.0625
    matches = {}
    for c_const in (-1, 1):
        series = lnl_matched if c_const == -1 else run_series(
            _lnl_params(1), "lnl", "four_dim", GRID
        )
        mean_ref, var_x_ref, var_y_ref = analytic.lnl_moments(
            kappa_ref, b_ref, series.times_phys
        )
        gap = max(
            np.abs(series.mean_jz + mean_ref).max(),  # opposite-pole start
            np.abs(series.var_jx - var_x_ref).max(),
            np.abs(series.var_jy - var_y_ref).max(),
        )
        matches[c_const] = gap
    ok = matches[-1] <= 1e-9 and matches[1] > 1e-3
    _report(
        6,
        ok,
        f"uniform-field closed form reproduced under exactly one twisting "
        f"sign: c_const=-1 gap {matches[-1]:.3e}, c_const=+1 gap "
        f"{matches[1]:.3e}; recorded convention c_const=-1 (kappa_t > 0)",
    )


def test_criterion_07_field_ratio_optimum():
    r_opt, xi_min = analytic.optimize_r()
    ok = (
        abs(r_opt - 3.3) <= 0.05
        and abs(xi_min - 0.9086) <= 1e-3
        and abs(r_opt - R_OPT) <= 1e-6
        and abs(xi_min - XI_MIN_AT_R_OPT) <= 1e-9
        and abs(xi_min - 0.8) > 0.05
    )
    _report(
        7,
        ok,
        f"optimal field ratio r = {r_opt:.6f}, xi = {xi_min:.6f}; the 0.8 "
        f"figure sometimes quoted for this optimum is not what the formula "
        f"yields, so the derived minimum is pinned instead",
    )


def test_criterion_08_extremal_time_identity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        r = float(rng.uniform(0.2, 20.0))
        kappa = float(rng.uniform(0.01, 0.5))
        b_t = r * kappa
        t_s = analytic.extremal_time(kappa, b_t)
        _, xi_y = analytic.lnl_xi(kappa, b_t, t_s)
        worst = max(worst, abs(xi_y - analytic.xi_y_at_ts(r)))
    _report(
        8,
        worst <= 1e-9,
        f"extremal-time squeezing identity holds for 50 random ratios, "
        f"worst gap {worst:.3e}",
    )


def test_criterion_09_uncertainty_bounds(ku_matched, lnl_matched, ku_eight_runs):
    runs = [ku_matched, lnl_matched, ku_eight_runs[-1], ku_eight_runs[1]]
    runs.append(run_series(_lnl_params(-1), "general", "eight_dim", GRID[:501]))
    worst = max(max_heisenberg_violation(series) for series in runs)
    _report(
        9,
        worst <= 1e-9,
        f"uncertainty bounds hold across all runs, worst shortfall {worst:.3e}",
    )


def test_criterion_10_nonadiabatic_effects(ku_matched, ku_eight_runs):
    # (a) strong drive: the eight-level minimum departs from the reduced one.
    # Under the naive sign guess (c_const=+1) the analysis angle is mirrored
    # against the physically positive twist and the departure is gross; under
    # the matched convention it is a milder rate effect, pinned as regression.
    four_min = _finite_min(ku_matched.xi_y_n)
    eight_naive = _finite_min(ku_eight_runs[1].xi_y_n)
    eight_matched = _finite_min(ku_eight_runs[-1].xi_y_n)
    shift_naive = abs(eight_naive - four_min) / four_min
    shift_matched = abs(eight_matched - four_min) / four_min
    ok_a = shift_naive > 0.05 and 0.02 < shift_matched < 0.06

    # (b) the companion quadrature dips below 1 only for the mirrored angle
    z_naive = _finite_min(ku_eight_runs[1].xi_z_n)
    z_matched = _finite_min(ku_eight_runs[-1].xi_z_n)
    ok_b = z_naive < 1.0 and z_matched >= 1.0 - 1e-9

    # (c) weak drive: reduced and full attainable minima agree within 2%
    # (the per-point angle scan is insensitive to the assumed twist rate)
    weak4 = run_series(_ku_params(0.01, -1), "ku", "four_dim", GRID, n_policy="scan")
    weak8 = run_series(_ku_params(0.01, -1), "ku", "eight_dim", GRID, n_policy="scan")
    weak_gap = abs(_finite_min(weak8.xi_y_n) - _finite_min(weak4.xi_y_n)) / _finite_min(
        weak4.xi_y_n
    )
    ok_c = weak_gap <= 0.02

    # (d) tilting the fields five degrees off perpendicular barely moves the
    # uniform-field optimum (oracle: 0.0089 relative)
    tilted = run_series(
        FieldParams(
            delta_t=1.0,
            b_t=3.3 * 0.0625,
            e_t=0.25,
            theta=math.radians(85.0),
            c_const=-1,
        ),
        "general",
        "four_dim",
        GRID,
    )
    perp = run_series(_lnl_params(-1), "lnl", "four_dim", GRID)
    theta_shift = abs(_finite_min(tilted.xi_y) - _finite_min(perp.xi_y)) / _finite_min(
        perp.xi_y
    )
    ok_d = theta_shift <= 0.20 and theta_shift <= THETA_SHIFT_FROZEN

    _report(
        10,
        ok_a and ok_b and ok_c and ok_d,
        f"(a) strong-drive shift {shift_naive:.1%} naive / "
        f"{shift_matched:.1%} matched, (b) companion quadrature min "
        f"{z_naive:.4f} naive / {z_matched:.4f} matched, (c) weak-drive gap "
        f"{weak_gap:.2%}, (d) tilt shift {theta_shift:.2%}",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    argv = [
        "simulate",
        "--scenario",
        "lnl",
        "--points",
        "301",
        "--model",
        "both",
    ]
    paths = []
    for k in (1, 2):
        out = tmp_path / f"run{k}.csv"
        code = cli.main(argv + ["--out", str(out)])
        assert code == 0
        paths.append(out)
    capsys.readouterr()
    same = paths[0].read_bytes() == paths[1].read_bytes()

    code1 = cli.main(["optimize-r", "--format", "csv", "--grid-points", "101"])
    first = capsys.readouterr().out
    code2 = cli.main(["optimize-r", "--format", "csv", "--grid-points", "101"])
    second = capsys.readouterr().out
    same = same and code1 == code2 == 0 and first == second
    _report(11, same, "repeated invocations emit byte-identical tables")


def test_spectra_are_reproducible_across_calls():
    # determinism underpins criterion 11: the eigensolver itself must be
    # stable call to call on the same matrix
    params = _lnl_params(-1)
    h = build_full(params)
    w1, v1 = herm_eig(h)
    w2, v2 = herm_eig(h)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)
