"""Eigensolver and Kronecker helper checks, plus the propagator and partial
trace of the single-point reference routes in ``tests/reference.py``."""

import numpy as np
import pytest
from reference import partial_trace_slow, propagator

from ohsqueeze.linalg import _defects, herm_eig, kron


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def charpoly_coeffs(a):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion, an eigendecomposition-free oracle."""
    dim = a.shape[0]
    coeffs = np.zeros(dim + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, dim + 1):
        m = a @ m + coeffs[k - 1] * np.eye(dim)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def test_herm_eig_matches_charpoly_roots():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    w, _ = herm_eig(a)
    roots = np.sort(np.roots(charpoly_coeffs(a)).real)
    assert np.allclose(w, roots, atol=1e-8)


def test_herm_eig_block_spectrum_closed_form():
    # Block-diagonal test matrix built from 2x2 sectors
    # [[-d, g*m], [g*m, d]] whose eigenvalues are -b*m +/- sqrt(d^2 + g^2 m^2)
    # after adding the -b*m offset; assembled independently of the package.
    d, g, b = 0.8, 0.3, 0.45
    ms = np.array([1.5, 0.5, -0.5, -1.5])
    h = np.zeros((8, 8))
    for i, m in enumerate(ms):
        h[i, i] = -d - b * m
        h[4 + i, 4 + i] = d - b * m
        h[i, 4 + i] = h[4 + i, i] = g * m
    expected = np.sort(
        np.concatenate([-b * ms - np.hypot(d, g * ms), -b * ms + np.hypot(d, g * ms)])
    )
    w, v = herm_eig(h)
    assert np.allclose(w, expected, atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-12)


def test_herm_eig_ascending_and_reconstruction():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 8)
    w, v = herm_eig(a)
    assert np.all(np.diff(w) >= -1e-14)
    assert np.allclose((v * w) @ v.conj().T, a, atol=1e-12)


def test_herm_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_herm_eig_two_dimensional_messages():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        herm_eig(np.zeros((2, 3)))
    asymmetric = r"^matrix is not Hermitian: relative asymmetry 1\.414e\+00 exceeds 1\.0e-12$"
    with pytest.raises(ValueError, match=asymmetric):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_herm_eig_stack_matches_per_matrix_eigh_bit_for_bit():
    rng = np.random.default_rng(29)
    for shape in [(1,), (7,), (2, 3)]:
        stack = np.array([random_hermitian(rng, 8) for _ in range(int(np.prod(shape)))])
        stack = stack.reshape(*shape, 8, 8)
        w, v = herm_eig(stack)
        assert w.shape == (*shape, 8) and v.shape == (*shape, 8, 8)
        for index in np.ndindex(*shape):
            w1, v1 = np.linalg.eigh(stack[index])
            assert w[index].tobytes() == w1.tobytes()
            assert v[index].tobytes() == v1.tobytes()


def test_herm_eig_stack_names_first_bad_matrix():
    rng = np.random.default_rng(31)
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)])
    skewed = stack.copy()
    skewed[3, 0, 1] += 1.0
    skewed[5, 1, 0] += 1.0
    with pytest.raises(ValueError, match=r"^matrix 3 is not Hermitian: relative asymmetry"):
        herm_eig(skewed)
    broken = stack.copy()
    broken[4, 2, 2] = np.inf
    broken[5, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^matrix 4 contains non-finite entries$"):
        herm_eig(broken)
    with pytest.raises(ValueError, match=r"^matrix \(2, 0\) contains non-finite entries$"):
        herm_eig(broken.reshape(3, 2, 4, 4))


def test_herm_eig_rejects_non_square_stack():
    with pytest.raises(ValueError, match=r"^expected a stack of square matrices, got shape"):
        herm_eig(np.zeros((3, 4, 5)))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4,\)$"):
        herm_eig(np.zeros(4))


def test_hermitian_defect_measures_asymmetry():
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert _defects(a[None]).tolist() == [0.0]
    b = a.copy()
    b[0, 1] += 1e-3
    assert _defects(b[None])[0] > 1e-5


def test_propagator_group_law_and_unitarity():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    u1 = propagator(h, 0.7)
    u2 = propagator(h, 0.3)
    u12 = propagator(h, 1.0)
    assert np.allclose(u1 @ u2, u12, atol=1e-12)
    assert np.allclose(u1 @ u1.conj().T, np.eye(5), atol=1e-12)
    assert np.allclose(propagator(h, 0.0), np.eye(5), atol=1e-14)


def test_propagator_short_time_expansion():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4)
    dt = 1e-6
    u = propagator(h, dt)
    approx = np.eye(4) - 1j * h * dt - 0.5 * (h @ h) * dt**2
    assert np.allclose(u, approx, atol=1e-15)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(13)
    a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.allclose(left, right, atol=1e-12)


def test_kron_slow_index_first():
    slow = np.diag([2.0, 5.0])
    fast = np.eye(3)
    full = kron(slow, fast)
    assert np.allclose(full[:3, :3], 2.0 * np.eye(3))
    assert np.allclose(full[3:, 3:], 5.0 * np.eye(3))


def test_partial_trace_product_state():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_s = a @ a.conj().T
        rho_s /= np.trace(rho_s).real
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho_f = b @ b.conj().T
        rho_f /= np.trace(rho_f).real
        reduced = partial_trace_slow(kron(rho_s, rho_f), 2, 4)
        assert np.allclose(reduced, rho_f, atol=1e-12)


def test_partial_trace_entangled_state():
    # (|0>|0> + |1>|1>)/sqrt(2) over slow dim 2, fast dim 2.
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    reduced = partial_trace_slow(np.outer(psi, psi.conj()), 2, 2)
    assert np.allclose(reduced, 0.5 * np.eye(2), atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    reduced = partial_trace_slow(rho, 2, 4)
    assert abs(np.trace(reduced).real - 1.0) < 1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace_slow(np.eye(6), 2, 4)
