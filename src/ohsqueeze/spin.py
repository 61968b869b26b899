"""Angular-momentum operators and coherent initial states.

Basis convention everywhere: projections in descending order, m = +j first.
The eight-level basis is the pseudo-spin block (slow index) times the
J = 3/2 projections (fast index); the two physical initial states live in
the last four slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpinOps:
    """Cartesian operator triple for a single spin j, plus the identity."""

    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    identity: np.ndarray


def make_spin_ops(j: float) -> SpinOps:
    """Ladder-operator construction of (jx, jy, jz) for spin j.

    ``j`` must be a non-negative integer or half-integer.  The raising
    operator carries sqrt(j(j+1) - m(m+1)) onto the superdiagonal of the
    descending-m basis; jx and jy follow from its Hermitian combinations.
    """
    two_j = 2.0 * j
    if j < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ValueError(f"j must be a non-negative half-integer, got {j!r}")
    dim = int(round(two_j)) + 1
    m = j - np.arange(dim)
    raising = np.zeros((dim, dim), dtype=complex)
    if dim > 1:
        coeff = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
        raising[np.arange(dim - 1), np.arange(1, dim)] = coeff
    lowering = raising.conj().T
    return SpinOps(
        j=float(j),
        jx=0.5 * (raising + lowering),
        jy=-0.5j * (raising - lowering),
        jz=np.diag(m).astype(complex),
        identity=np.eye(dim, dtype=complex),
    )


def stretched_state(j: float, axis: str) -> np.ndarray:
    """Coherent state fully polarized along an axis.

    Supported axes: ``"+z"`` (alias ``"z"``), ``"-z"``, and ``"x"``.  The
    x-stretched state has the exact real amplitudes
    ``sqrt(binom(2j, k)) / 2**j`` in the descending-m basis, all positive.
    """
    two_j = 2.0 * j
    if j < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ValueError(f"j must be a non-negative half-integer, got {j!r}")
    n = int(round(two_j))
    dim = n + 1
    state = np.zeros(dim, dtype=complex)
    if axis in ("z", "+z"):
        state[0] = 1.0
    elif axis == "-z":
        state[-1] = 1.0
    elif axis == "x":
        amps = np.array([math.sqrt(math.comb(n, k)) for k in range(dim)])
        state[:] = amps / 2.0**j
    else:
        raise ValueError(f"unsupported axis {axis!r}; use 'x', '+z', 'z' or '-z'")
    return state


def embed_initial_state(four_state: np.ndarray, manifold: str) -> np.ndarray:
    """Embed a normalized 4-vector into one pseudo-spin block of the 8-dim basis.

    ``manifold`` selects the block: ``"e"`` is the first four slots and
    ``"f"`` the last four.  The two physical initial states occupy the
    ``"f"`` block (the upper Lambda-doublet component, carrying the
    +delta_t diagonal of the eight-level Hamiltonian).
    """
    four_state = np.asarray(four_state, dtype=complex)
    if four_state.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {four_state.shape}")
    norm = np.linalg.norm(four_state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, got norm {norm!r}")
    out = np.zeros(8, dtype=complex)
    if manifold == "e":
        out[:4] = four_state
    elif manifold == "f":
        out[4:] = four_state
    else:
        raise ValueError(f"manifold must be 'e' or 'f', got {manifold!r}")
    return out
