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


def _defects(stack: np.ndarray) -> np.ndarray:
    """Relative Frobenius asymmetry of each matrix of a ``(n, d, d)`` stack."""
    norms = np.linalg.norm(stack, axis=(1, 2))
    diffs = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
    return np.divide(diffs, norms, out=np.zeros_like(norms), where=norms != 0.0)


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``a`` is ``(d, d)`` or a ``(..., d, d)`` stack.  Returns ``(w, v)`` with
    real eigenvalues ``w`` in ascending order and orthonormal eigenvector
    columns ``v``, so that ``a == v @ np.diag(w) @ v.conj().T`` to roundoff,
    matrix by matrix; a stack gives the same bits as one call per matrix.

    Raises ``ValueError`` if the matrices are not square, contain non-finite
    entries, or are not Hermitian; the Hermiticity message reports the
    measured relative asymmetry, and for a stack every message names the
    index of the first bad matrix.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        what = "a stack of square matrices" if a.ndim > 2 else "a square matrix"
        raise ValueError(f"expected {what}, got shape {a.shape}")
    stack = a.reshape((-1,) + a.shape[-2:])

    def which(k: int) -> str:
        if a.ndim == 2:
            return "matrix"
        index = np.unravel_index(k, a.shape[:-2])
        return f"matrix {int(index[0]) if len(index) == 1 else tuple(map(int, index))}"

    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"{which(int(np.argmin(finite)))} contains non-finite entries")
    defects = _defects(stack)
    bad = defects > HERMITIAN_RTOL
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"{which(k)} is not Hermitian: relative asymmetry {defects[k]:.3e} "
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
