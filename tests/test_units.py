"""Parameter containers, validation, and lab-to-reduced conversion."""

import dataclasses
import math

import pytest

from ohsqueeze.units import FieldParams, LabParams, adiabaticity_ratio, to_reduced


def test_kappa_sign_follows_c_const():
    minus = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.5, theta=0.0, c_const=-1)
    plus = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.5, theta=0.0, c_const=1)
    assert minus.kappa_t == 0.25
    assert plus.kappa_t == -0.25


def test_kappa_scales_quadratically_in_e():
    p1 = FieldParams(delta_t=2.0, b_t=0.0, e_t=0.2, theta=0.0)
    p2 = FieldParams(delta_t=2.0, b_t=0.0, e_t=0.4, theta=0.0)
    assert p2.kappa_t == pytest.approx(4.0 * p1.kappa_t, rel=1e-15)
    zero = FieldParams(delta_t=2.0, b_t=1.0, e_t=0.0, theta=0.0)
    assert zero.kappa_t == 0.0


def test_field_params_validation():
    with pytest.raises(ValueError):
        FieldParams(delta_t=0.0, b_t=0.0, e_t=0.1, theta=0.0)
    with pytest.raises(ValueError):
        FieldParams(delta_t=1.0, b_t=0.0, e_t=-0.1, theta=0.0)
    with pytest.raises(ValueError):
        FieldParams(delta_t=1.0, b_t=0.0, e_t=0.1, theta=0.0, c_const=2)
    with pytest.raises(ValueError):
        FieldParams(delta_t=math.nan, b_t=0.0, e_t=0.1, theta=0.0)
    for theta in (-0.1, math.nextafter(math.pi, 4.0), 2.0 * math.pi):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            FieldParams(delta_t=1.0, b_t=0.0, e_t=0.1, theta=theta)
    assert FieldParams(delta_t=1.0, b_t=0.0, e_t=0.1, theta=math.pi).theta == math.pi
    # negative detuning and negative field offsets are legitimate inputs
    p = FieldParams(delta_t=-1.0, b_t=-0.3, e_t=0.1, theta=0.2)
    assert p.kappa_t == pytest.approx(0.01, rel=1e-12)


def test_field_params_frozen():
    p = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.1, theta=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.e_t = 0.5


def test_is_adiabatic_strict_inequalities():
    assert FieldParams(delta_t=1.0, b_t=0.1, e_t=0.25, theta=0.0).is_adiabatic
    # boundary case: field scale equal to the splitting is flagged
    assert not FieldParams(delta_t=1.0, b_t=1.0, e_t=0.25, theta=0.0).is_adiabatic
    assert not FieldParams(delta_t=1.0, b_t=0.1, e_t=1.5, theta=0.0).is_adiabatic


def test_lab_params_validation():
    good = dict(
        lambda_doubling=1.66e9,
        e_field=100.0,
        b_field=20.0,
        theta=0.5 * math.pi,
        bohr_magneton=1.3996e6,
        dipole_moment=8.331e5,
    )
    LabParams(**good)
    for key, bad in [
        ("lambda_doubling", 0.0),
        ("e_field", -1.0),
        ("b_field", -1.0),
        ("theta", -0.1),
        ("theta", math.pi + 0.1),
        ("bohr_magneton", 0.0),
        ("dipole_moment", -5.0),
    ]:
        kwargs = dict(good)
        kwargs[key] = bad
        with pytest.raises(ValueError):
            LabParams(**kwargs)


def test_to_reduced_coefficients():
    lab = LabParams(
        lambda_doubling=2.0e9,
        e_field=50.0,
        b_field=10.0,
        theta=0.3,
        bohr_magneton=1.4e6,
        dipole_moment=1.0e6,
    )
    p = to_reduced(lab)
    assert p.delta_t == pytest.approx(1.0e9, rel=1e-15)
    assert p.b_t == pytest.approx(0.8 * 1.4e6 * 10.0, rel=1e-15)
    assert p.e_t == pytest.approx(0.4 * 1.0e6 * 50.0, rel=1e-15)
    assert p.theta == 0.3
    assert p.c_const == 1
    assert to_reduced(lab, c_const=-1).kappa_t == -p.kappa_t


def test_to_reduced_anchor_point():
    # Splitting 1.66 GHz with the dipole coupling tuned so the electric
    # ratio is 0.25 puts the twisting strength at 0.0625 of the reduced
    # splitting, about 51.9 MHz -- within 10% of the approximate 48 MHz
    # anchor used for sanity checks.
    delta = 1.66e9
    e_field = 100.0
    dipole = 0.25 * (delta / 2.0) / (0.4 * e_field)
    lab = LabParams(
        lambda_doubling=delta,
        e_field=e_field,
        b_field=0.0,
        theta=0.0,
        bohr_magneton=1.3996e6,
        dipole_moment=dipole,
    )
    p = to_reduced(lab, c_const=-1)
    ratios = adiabaticity_ratio(p)
    assert ratios[0] == pytest.approx(0.25, rel=1e-12)
    assert abs(p.kappa_t) == pytest.approx(0.0625 * delta / 2.0, rel=1e-12)
    assert abs(p.kappa_t) == pytest.approx(51.875e6, rel=1e-6)
    assert abs(abs(p.kappa_t) - 48e6) <= 0.1 * 48e6


def test_adiabaticity_ratio_example():
    p = FieldParams(delta_t=1.0, b_t=0.1, e_t=0.25, theta=0.0)
    assert adiabaticity_ratio(p) == (0.25, 0.1)
    with pytest.raises(ValueError):
        adiabaticity_ratio(FieldParams(delta_t=-1.0, b_t=0.0, e_t=0.1, theta=0.0))
