"""Spin squeezing of the OH ground-state Lambda doublet in crossed static fields.

The package simulates a single trapped OH molecule whose low-field physics
reduces to a pseudo-spin-1/2 (the two Lambda-doublet parity components)
coupled to the J = 3/2 angular momentum by a static electric field, with a
magnetic field at an angle theta to it.  Adiabatic elimination of the
pseudo-spin yields one-axis-twisting dynamics of the J = 3/2 manifold, and
the package provides both the exact eight-level evolution and the reduced
four-level closed forms, squeezing-parameter series, and the optimization
of the Zeeman-to-twisting ratio.
"""

from .units import FieldParams, LabParams, to_reduced
from .spin import SpinOps, embed_initial_state, make_spin_ops, stretched_state
from .hamiltonians import (
    build_full,
    build_reduced,
    full_matrix_tabulated,
)
from .dynamics import (
    SqueezeSeries,
    max_heisenberg_violation,
    run_series,
    xi_wineland,
)
from . import analytic, linalg

__version__ = "0.1.0"

__all__ = [
    "FieldParams",
    "LabParams",
    "SpinOps",
    "SqueezeSeries",
    "analytic",
    "build_full",
    "build_reduced",
    "embed_initial_state",
    "full_matrix_tabulated",
    "linalg",
    "make_spin_ops",
    "max_heisenberg_violation",
    "run_series",
    "stretched_state",
    "to_reduced",
    "xi_wineland",
]
