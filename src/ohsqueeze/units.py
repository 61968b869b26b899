"""Field parameters: laboratory values and their reduced internal form.

Every Hamiltonian in the package is expressed through four reduced rates:
the pseudo-spin splitting ``delta_t`` (half the Lambda-doubling), the scaled
Zeeman rate ``b_t``, the scaled Stark rate ``e_t``, and the signed twisting
strength ``kappa_t`` derived from them.  hbar is 1 throughout; laboratory
values exist only at this boundary and are treated as plain frequencies, so
a reduced rate of 1 corresponds to whatever frequency unit the caller used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _require_finite(pairs: dict[str, float]) -> None:
    for name, value in pairs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LabParams:
    """Laboratory-unit inputs.

    ``lambda_doubling`` is the Lambda-doubling frequency (Hz), ``e_field``
    the electric field (V/cm), ``b_field`` the magnetic field (Gauss) and
    ``theta`` the angle between the two fields (radians, 0..pi).
    ``bohr_magneton`` (Hz per Gauss) and ``dipole_moment`` (Hz per V/cm)
    are caller-supplied conversion constants; nothing is hardcoded.
    """

    lambda_doubling: float
    e_field: float
    b_field: float
    theta: float
    bohr_magneton: float
    dipole_moment: float

    def __post_init__(self) -> None:
        _require_finite(
            {
                "lambda_doubling": self.lambda_doubling,
                "e_field": self.e_field,
                "b_field": self.b_field,
                "theta": self.theta,
                "bohr_magneton": self.bohr_magneton,
                "dipole_moment": self.dipole_moment,
            }
        )
        if self.lambda_doubling <= 0:
            raise ValueError("lambda_doubling must be positive")
        if self.e_field < 0:
            raise ValueError("e_field must be non-negative")
        if self.b_field < 0:
            raise ValueError("b_field must be non-negative")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if self.bohr_magneton <= 0:
            raise ValueError("bohr_magneton must be positive")
        if self.dipole_moment <= 0:
            raise ValueError("dipole_moment must be positive")


@dataclass(frozen=True)
class FieldParams:
    """Reduced rates driving every Hamiltonian in the package.

    ``kappa_t = -c_const * e_t**2 / delta_t`` is the derived twisting
    strength; its sign is carried explicitly through ``c_const``, the
    conserved pseudo-spin projection of the adiabatic branch.  ``delta_t``
    must be nonzero; negative values are allowed so spectral-symmetry
    checks can flip it, while :func:`to_reduced` always produces positive
    ones.  ``b_t`` may be negative (a reversed field); ``theta`` lies in [0, pi].
    """

    delta_t: float
    b_t: float
    e_t: float
    theta: float = 0.0
    c_const: int = 1
    kappa_t: float = field(init=False)

    def __post_init__(self) -> None:
        _require_finite(
            {
                "delta_t": self.delta_t,
                "b_t": self.b_t,
                "e_t": self.e_t,
                "theta": self.theta,
            }
        )
        if self.delta_t == 0:
            raise ValueError("delta_t must be nonzero")
        if self.e_t < 0:
            raise ValueError("e_t must be non-negative")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if self.c_const not in (1, -1):
            raise ValueError(f"c_const must be +1 or -1, got {self.c_const!r}")
        kappa = -self.c_const * self.e_t**2 / self.delta_t
        if not math.isfinite(kappa):
            raise ValueError("kappa_t overflow: e_t**2 / delta_t is not finite")
        object.__setattr__(self, "kappa_t", kappa)


def to_reduced(lab: LabParams, c_const: int = 1) -> FieldParams:
    """Reduce laboratory parameters to internal rates.

    The reduction is exact arithmetic on the inputs: ``delta_t`` is half the
    Lambda-doubling, ``b_t`` is 4/5 of the Zeeman rate, ``e_t`` is 2/5 of
    the Stark rate, and theta passes through unchanged.
    """
    return FieldParams(
        delta_t=lab.lambda_doubling / 2.0,
        b_t=0.8 * lab.bohr_magneton * lab.b_field,
        e_t=0.4 * lab.dipole_moment * lab.e_field,
        theta=lab.theta,
        c_const=c_const,
    )
