"""Builders for the eight-level field Hamiltonian and its four-level reduction.

The eight-level operator couples the pseudo-spin-1/2 Lambda-doublet degree
of freedom (slow tensor factor) to the J = 3/2 angular momentum (fast
factor).  Adiabatic elimination of the pseudo-spin leaves one four-level
form, :func:`build_reduced`, at the field angle: one-axis twisting
(Kitagawa-Ueda) at theta = 0 with no magnetic field and twisting plus a
transverse field (Law-Ng-Leung) at theta = pi/2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .linalg import kron
from .spin import make_spin_ops
from .units import FieldParams

_HALF = make_spin_ops(0.5)
_J = make_spin_ops(1.5)
_PAULI_X = 2.0 * _HALF.jx
#: The field-independent tensor factors of :func:`build_full`.
_SIGMA_Z_I4 = kron(2.0 * _HALF.jz, _J.identity)
_I2_JZ = kron(_HALF.identity, _J.jz)


def _cos_sin(theta: float) -> tuple[float, float]:
    # Exact values at the quadrant angles keep the reduced form exact: at
    # theta = pi/2 it is the uniform-field form entrywise, with no 1e-17
    # cosine residue.
    if theta == 0.0:
        return 1.0, 0.0
    if theta == 0.5 * math.pi:
        return 0.0, 1.0
    if theta == math.pi:
        return -1.0, 0.0
    return math.cos(theta), math.sin(theta)


def twist_axis(theta: float) -> np.ndarray:
    """The Stark coupling direction ``jz*cos(theta) - jx*sin(theta)`` (4x4)."""
    c, s = _cos_sin(theta)
    return c * _J.jz - s * _J.jx


def build_full(params: FieldParams | Sequence[FieldParams]) -> np.ndarray:
    """Eight-level Hamiltonian in tensor form, of one field or a stack of fields.

    ``-delta_t (sigma_z x I) - b_t (I x Jz) + e_t (sigma_x x axis)`` with
    ``axis = Jz cos(theta) - Jx sin(theta)``.  The first four basis states
    carry the ``-delta_t`` diagonal, the last four ``+delta_t``.  One field
    gives ``(8, 8)``; a sequence the ``(P, 8, 8)`` stack of the same bits.
    """
    fields = [params] if isinstance(params, FieldParams) else params
    rates = np.array([(*_cos_sin(p.theta), p.delta_t, p.b_t, p.e_t) for p in fields])
    c, s, delta_t, b_t, e_t = rates.T[:, :, None, None]
    axes = c * _J.jz - s * _J.jx
    # sigma_x (x) axis as np.kron's own broadcast multiply: a kron-free form
    # flips the sign of zero entries, and eigh turns that into 1e-15 shifts.
    stark = (_PAULI_X[None, :, None, :, None] * axes[:, None, :, None, :]).reshape(-1, 8, 8)
    h = -delta_t * _SIGMA_Z_I4 - b_t * _I2_JZ + e_t * stark
    return h[0] if isinstance(params, FieldParams) else h


def full_matrix_tabulated(params: FieldParams) -> np.ndarray:
    """Entry-by-entry tabulated form of the eight-level Hamiltonian.

    Written out one matrix element at a time in terms of the raw Zeeman and
    Stark rates (``mu_B B`` and ``mu_e E``), deliberately independent of the
    tensor-product construction in :func:`build_full` so the two can be
    cross-checked against each other.
    """
    d = params.delta_t  # half the Lambda-doubling
    zeeman = 1.25 * params.b_t  # mu_B * B, undoing the 4/5 reduction
    stark = 2.5 * params.e_t  # mu_e * E, undoing the 2/5 reduction
    c, s = _cos_sin(params.theta)
    ec = stark * c
    es = stark * s
    rt3 = math.sqrt(3.0)

    h = np.zeros((8, 8), dtype=complex)
    # diagonal: -d block then +d block, Zeeman ladder -6/5 .. +6/5
    h[0, 0] = -d - (6.0 / 5.0) * zeeman
    h[1, 1] = -d - (2.0 / 5.0) * zeeman
    h[2, 2] = -d + (2.0 / 5.0) * zeeman
    h[3, 3] = -d + (6.0 / 5.0) * zeeman
    h[4, 4] = d - (6.0 / 5.0) * zeeman
    h[5, 5] = d - (2.0 / 5.0) * zeeman
    h[6, 6] = d + (2.0 / 5.0) * zeeman
    h[7, 7] = d + (6.0 / 5.0) * zeeman
    # Stark block, upper-right: diagonal-in-m cosine couplings ...
    h[0, 4] = (3.0 / 5.0) * ec
    h[1, 5] = (1.0 / 5.0) * ec
    h[2, 6] = -(1.0 / 5.0) * ec
    h[3, 7] = -(3.0 / 5.0) * ec
    # ... and m -> m+-1 sine couplings, all with a minus sign
    h[0, 5] = -(rt3 / 5.0) * es
    h[1, 4] = -(rt3 / 5.0) * es
    h[1, 6] = -(2.0 / 5.0) * es
    h[2, 5] = -(2.0 / 5.0) * es
    h[2, 7] = -(rt3 / 5.0) * es
    h[3, 6] = -(rt3 / 5.0) * es
    # mirror block, lower-left
    h[4, 0] = (3.0 / 5.0) * ec
    h[5, 1] = (1.0 / 5.0) * ec
    h[6, 2] = -(1.0 / 5.0) * ec
    h[7, 3] = -(3.0 / 5.0) * ec
    h[5, 0] = -(rt3 / 5.0) * es
    h[4, 1] = -(rt3 / 5.0) * es
    h[6, 1] = -(2.0 / 5.0) * es
    h[5, 2] = -(2.0 / 5.0) * es
    h[7, 2] = -(rt3 / 5.0) * es
    h[6, 3] = -(rt3 / 5.0) * es
    return h


def build_reduced(params: FieldParams) -> np.ndarray:
    """Four-level reduction ``-b_t Jz + kappa_t * axis**2`` at the field angle.

    ``kappa_t = -c_const e_t^2/delta_t`` and ``axis = Jz cos(theta) -
    Jx sin(theta)``.  The reduction holds when ``delta_t`` dominates both
    field rates; it is built without a regime check.
    """
    axis = twist_axis(params.theta)
    return -params.b_t * _J.jz + params.kappa_t * (axis @ axis)
