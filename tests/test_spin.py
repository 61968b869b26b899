"""Angular momentum operators and stretched states, plus the rotations of the
single-point reference routes in ``tests/reference.py``."""

import math

import numpy as np
import pytest
from reference import rotation

from ohsqueeze.spin import embed_initial_state, make_spin_ops, stretched_state


def frob(a):
    return np.linalg.norm(a)


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.5])
def test_commutators_and_casimir(j):
    ops = make_spin_ops(j)
    assert frob(ops.jx @ ops.jy - ops.jy @ ops.jx - 1j * ops.jz) < 1e-12
    assert frob(ops.jy @ ops.jz - ops.jz @ ops.jy - 1j * ops.jx) < 1e-12
    assert frob(ops.jz @ ops.jx - ops.jx @ ops.jz - 1j * ops.jy) < 1e-12
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    assert frob(casimir - j * (j + 1) * ops.identity) < 1e-12


def test_operators_hermitian_and_descending():
    ops = make_spin_ops(1.5)
    assert ops.jz.shape == (4, 4)
    for op in (ops.jx, ops.jy, ops.jz):
        assert frob(op - op.conj().T) < 1e-14
    assert np.allclose(np.diag(ops.jz), [1.5, 0.5, -0.5, -1.5])


def test_ladder_structure():
    ops = make_spin_ops(1.5)
    jp = ops.jx + 1j * ops.jy
    # raising operator moves m -> m+1, which in a descending basis is the
    # superdiagonal, with the standard sqrt(j(j+1) - m(m+1)) amplitudes
    expected = np.zeros((4, 4))
    ms = [1.5, 0.5, -0.5, -1.5]
    for col in range(1, 4):
        m = ms[col]
        expected[col - 1, col] = math.sqrt(1.5 * 2.5 - m * (m + 1))
    assert np.allclose(jp, expected, atol=1e-14)


def test_rotation_unitary_and_group_law():
    ops = make_spin_ops(1.5)
    u1 = rotation(ops, "y", 0.4)
    u2 = rotation(ops, "y", 0.9)
    assert np.allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-13)
    assert np.allclose(u1 @ u2, rotation(ops, "y", 1.3), atol=1e-12)


def test_rotation_about_z_is_diagonal_phases():
    ops = make_spin_ops(1.5)
    phi = 0.37
    u = rotation(ops, "z", phi)
    expected = np.diag(np.exp(-1j * np.array([1.5, 0.5, -0.5, -1.5]) * phi))
    assert np.allclose(u, expected, atol=1e-13)


def test_full_turn_is_minus_identity_for_half_integer_spin():
    ops = make_spin_ops(1.5)
    u = rotation(ops, "x", 2.0 * math.pi)
    assert np.allclose(u, -np.eye(4), atol=1e-12)


def test_stretched_states():
    z = stretched_state(1.5, "z")
    assert np.allclose(z, [1, 0, 0, 0])
    mz = stretched_state(1.5, "-z")
    assert np.allclose(mz, [0, 0, 0, 1])
    x = stretched_state(1.5, "x")
    expected = np.array([1.0, math.sqrt(3.0), math.sqrt(3.0), 1.0]) / (2.0 * math.sqrt(2.0))
    assert np.allclose(x, expected, atol=1e-14)


def test_x_stretch_polarization_and_transverse_variance():
    ops = make_spin_ops(1.5)
    x = stretched_state(1.5, "x")
    mean_x = np.vdot(x, ops.jx @ x).real
    assert mean_x == pytest.approx(1.5, abs=1e-13)
    for op in (ops.jy, ops.jz):
        mean = np.vdot(x, op @ x).real
        second = np.vdot(x, op @ op @ x).real
        assert mean == pytest.approx(0.0, abs=1e-13)
        assert second == pytest.approx(0.75, abs=1e-13)


def test_x_stretch_is_rotated_z_stretch():
    ops = make_spin_ops(1.5)
    rotated = rotation(ops, "y", 0.5 * math.pi) @ stretched_state(1.5, "z")
    assert np.allclose(rotated, stretched_state(1.5, "x"), atol=1e-13)


def test_stretched_state_rejects_unknown_axis():
    with pytest.raises(ValueError):
        stretched_state(1.5, "q")


def test_embed_initial_state_blocks():
    four = stretched_state(1.5, "x")
    upper = embed_initial_state(four, "f")
    lower = embed_initial_state(four, "e")
    assert upper.shape == (8,)
    assert np.allclose(upper[4:], four)
    assert np.allclose(upper[:4], 0.0)
    assert np.allclose(lower[:4], four)
    assert np.allclose(lower[4:], 0.0)


def test_embed_initial_state_validation():
    with pytest.raises(ValueError):
        embed_initial_state(np.array([1.0, 0.0, 0.0]), "f")
    with pytest.raises(ValueError):
        embed_initial_state(np.array([1.0, 1.0, 0.0, 0.0]), "f")
    with pytest.raises(ValueError):
        embed_initial_state(stretched_state(1.5, "z"), "g")
