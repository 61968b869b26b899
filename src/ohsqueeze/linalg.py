"""Small dense complex linear algebra used throughout the package.

Every operator in this package is tiny (dimension 8 at most), so evolution
is computed exactly from a Hermitian eigendecomposition rather than from a
series or Pade approximation; unitarity and energy conservation then hold to
roundoff even at long times.
"""

from __future__ import annotations

import numpy as np

#: Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12


def hermitian_defect(a: np.ndarray) -> float:
    """Relative Frobenius asymmetry ``||a - a^H|| / ||a||`` (0 for the zero matrix)."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(a - a.conj().T) / norm)


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` in ascending order and
    orthonormal eigenvector columns ``v``, so that
    ``a == v @ np.diag(w) @ v.conj().T`` to roundoff.

    Raises ``ValueError`` if ``a`` is not square, contains non-finite
    entries, or is not Hermitian; the Hermiticity message reports the
    measured relative asymmetry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    defect = hermitian_defect(a)
    if defect > HERMITIAN_RTOL:
        raise ValueError(
            f"matrix is not Hermitian: relative asymmetry {defect:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e}"
        )
    w, v = np.linalg.eigh(a)
    return w, v


def kron(a, b) -> np.ndarray:
    """Kronecker product with the slow factor first.

    The composite index is ``slow * dim(b) + fast``: the first factor
    varies slowest, matching the block layout of the eight-level basis.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
