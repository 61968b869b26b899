"""Hamiltonian builders: tensor vs tabulated form, the reduced form, symmetry."""

import math

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from ohsqueeze.hamiltonians import (
    build_full,
    build_reduced,
    full_matrix_tabulated,
    twist_axis,
)
from ohsqueeze.linalg import herm_eig, kron
from ohsqueeze.spin import make_spin_ops
from ohsqueeze.units import FieldParams

_J = make_spin_ops(1.5)


def random_params(rng):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return FieldParams(
        delta_t=sign * rng.uniform(0.1, 5.0),
        b_t=rng.uniform(-2.0, 2.0),
        e_t=rng.uniform(0.0, 2.0),
        theta=rng.uniform(0.0, math.pi),
        c_const=1 if rng.random() < 0.5 else -1,
    )


def test_build_full_shape_and_hermitian():
    p = FieldParams(delta_t=1.0, b_t=0.3, e_t=0.5, theta=0.7)
    h = build_full(p)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T, atol=1e-14)


#: Fields for the stacked build: quadrant angles as well as free ones, zero
#: and signed magnetic fields (-0.0 included), zero electric field, both
#: signs of delta_t and of c_const.
STACK_FIELDS = st.builds(
    FieldParams,
    delta_t=st.one_of(st.floats(0.1, 5.0), st.floats(-5.0, -0.1)),
    b_t=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
    e_t=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    theta=st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi]), st.floats(0.0, math.pi)),
    c_const=st.sampled_from([1, -1]),
)


@settings(max_examples=200, deadline=None)
@given(fields=st.lists(STACK_FIELDS, min_size=1, max_size=12))
def test_stacked_build_is_bit_identical_to_single_builds(fields):
    # Bytes, not closeness: the Stark term is the broadcast multiply np.kron
    # makes.  A kron-free form, e_t * (c sigma_x(x)Jz - s sigma_x(x)Jx),
    # differs only in the sign of zero entries, yet eigh's eigenvectors see
    # signed zeros and sweep xi_min values moved by about 1e-15 with it.
    stack = build_full(fields)
    assert stack.shape == (len(fields), 8, 8)
    singles = np.stack([build_full(p) for p in fields])
    assert stack.tobytes() == singles.tobytes()
    three_kron = np.stack([reference.build_full_three_kron(p) for p in fields])
    assert stack.tobytes() == three_kron.tobytes()


def test_tensor_matches_tabulated_on_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        report = reference.verify_equivalence(random_params(rng))
        assert report.passed, report
        assert report.max_abs_diff <= 1e-12 * report.matrix_scale


def test_equivalence_report_fields():
    report = reference.verify_equivalence(FieldParams(delta_t=1.0, b_t=0.2, e_t=0.4, theta=0.9))
    assert report.matrix_scale > 0.0
    assert report.tol == pytest.approx(1e-12 * report.matrix_scale)
    assert report.passed


def test_tabulated_diagonal_and_couplings():
    d, b, e, theta = 0.9, 0.4, 0.6, 0.5
    p = FieldParams(delta_t=d, b_t=b, e_t=e, theta=theta)
    h = full_matrix_tabulated(p)
    zeeman = 1.25 * b  # the lab Zeeman rate; diagonal steps are fifths of it
    diag = np.real(np.diag(h))
    expected = [-d - 1.2 * zeeman, -d - 0.4 * zeeman, -d + 0.4 * zeeman, -d + 1.2 * zeeman]
    assert np.allclose(diag[:4], expected, atol=1e-14)
    assert np.allclose(diag[4:], [v + 2.0 * d for v in expected], atol=1e-14)
    stark = 2.5 * e
    assert h[0, 4] == pytest.approx(0.6 * stark * math.cos(theta), rel=1e-14)
    assert h[0, 5] == pytest.approx(-math.sqrt(3.0) / 5.0 * stark * math.sin(theta), rel=1e-14)


def test_chiral_spectrum_flip():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = random_params(rng)
        flipped = FieldParams(
            delta_t=-p.delta_t,
            b_t=-p.b_t,
            e_t=p.e_t,
            theta=p.theta,
            c_const=p.c_const,
        )
        w, _ = herm_eig(build_full(p))
        w_flipped, _ = herm_eig(build_full(flipped))
        assert np.allclose(w_flipped, -w[::-1], atol=1e-12)


def test_zero_e_field_commutes_with_jz():
    p = FieldParams(delta_t=1.3, b_t=0.7, e_t=0.0, theta=0.4)
    h = build_full(p)
    jz8 = kron(np.eye(2), _J.jz)
    assert np.linalg.norm(h @ jz8 - jz8 @ h) < 1e-13


def test_adiabatic_structure_at_theta_zero():
    p = FieldParams(delta_t=1.0, b_t=0.4, e_t=0.3, theta=0.0, c_const=-1)
    h = build_reduced(p)
    ms = np.array([1.5, 0.5, -0.5, -1.5])
    assert np.allclose(h, np.diag(-0.4 * ms + p.kappa_t * ms**2), atol=1e-14)


def test_named_twisting_forms():
    p = FieldParams(delta_t=1.0, b_t=0.0, e_t=0.25, theta=0.0, c_const=-1)
    h = build_reduced(p)
    assert np.array_equal(h, p.kappa_t * (_J.jz @ _J.jz))
    q = FieldParams(delta_t=1.0, b_t=0.2, e_t=0.25, theta=0.5 * math.pi, c_const=-1)
    h_lnl = build_reduced(q)
    assert np.array_equal(h_lnl, -0.2 * _J.jz + q.kappa_t * (_J.jx @ _J.jx))


def test_general_theta_collapses_exactly_at_quadrants():
    # The field angles a degree input gives at the quadrants: the reduced form
    # is the quadrant's exact form, with no cosine residue.
    for degrees, axis_sq in ((0, _J.jz @ _J.jz), (90, _J.jx @ _J.jx), (180, _J.jz @ _J.jz)):
        q = FieldParams(delta_t=1.0, b_t=0.2, e_t=0.25, theta=math.radians(degrees), c_const=-1)
        assert np.array_equal(build_reduced(q), -0.2 * _J.jz + q.kappa_t * axis_sq), degrees


def test_rotated_frame_is_isospectral_to_general():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = FieldParams(
            delta_t=rng.uniform(0.5, 2.0),
            b_t=rng.uniform(-1.0, 1.0),
            e_t=rng.uniform(0.0, 1.0),
            theta=rng.uniform(0.0, math.pi),
            c_const=1 if rng.random() < 0.5 else -1,
        )
        w_general, _ = herm_eig(build_reduced(p))
        w_rotated, _ = herm_eig(reference.build_rotated_frame(p))
        assert np.allclose(w_general, w_rotated, atol=1e-10)


def test_twist_axis_quadrants():
    assert np.array_equal(twist_axis(0.0), _J.jz)
    assert np.array_equal(twist_axis(0.5 * math.pi), -_J.jx)
    assert np.array_equal(twist_axis(math.pi), -_J.jz)


def test_build_full_matches_three_kron_form_bit_for_bit():
    rng = np.random.default_rng(4096)
    draws = [random_params(rng) for _ in range(2000)]
    draws += [
        FieldParams(delta_t=d, b_t=b, e_t=e, theta=theta)
        for theta in (0.0, 0.5 * math.pi, math.pi)
        for d in (1.0, -0.7)
        for b in (0.4, 0.0, -0.4)
        for e in (0.0, 0.3)
    ]
    assert any(p.delta_t < 0 for p in draws) and any(p.b_t < 0 for p in draws)
    for p in draws:
        assert build_full(p).tobytes() == reference.build_full_three_kron(p).tobytes(), p
