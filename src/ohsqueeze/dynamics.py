"""Exact state evolution and squeezing-parameter series.

:func:`run_series` is the one evolution kernel: it diagonalizes the
Hamiltonian once (Hermitian eigendecomposition), propagates the initial
state to every time point of the grid in one batch, reduces eight-level
states to the J = 3/2 manifold, and takes every moment as a batched trace.
A series carries the full moment record, the rotated-quadrature record at
the per-point analysis angle, and both squeezing-parameter normalizations
(about the x polarization for twisting runs, about z for uniform-field
runs).  The twisting-sign resolver and every CLI table are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import spread, xi_wineland
from .hamiltonians import HamiltonianKind, build_full, build_named
from .linalg import herm_eig
from .optimize import golden_section
from .spin import embed_initial_state, make_spin_ops, stretched_state
from .units import FieldParams

SCENARIOS = ("ku", "lnl", "general")
MODELS = ("four_dim", "eight_dim")

_J = make_spin_ops(1.5)
_JX2 = _J.jx @ _J.jx
_JY2 = _J.jy @ _J.jy
_JZ2 = _J.jz @ _J.jz
_SYM_YZ = 0.5 * (_J.jy @ _J.jz + _J.jz @ _J.jy)

_SCENARIO_KIND = {
    "ku": HamiltonianKind.KITAGAWA_UEDA,
    "lnl": HamiltonianKind.LAW_NG_LEUNG,
    "general": HamiltonianKind.GENERAL_THETA,
}
_SCENARIO_AXIS = {"ku": "x", "lnl": "-z", "general": "-z"}

#: Angular resolution of the coarse analysis-angle scan (one degree).
SCAN_GRID_STEP = math.pi / 180.0
#: Golden-section refinement tolerance for the analysis angle, in radians.
SCAN_ANGLE_TOL = 1e-6


def _evolve_table(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at every time in one shot; row ``i`` is ``psi(times[i])``."""
    w, v = herm_eig(h)
    amps = v.conj().T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(times, w))
    return (phases * amps) @ v.T


@dataclass(frozen=True)
class SqueezeSeries:
    """Moment and squeezing record of one scenario run.

    ``times`` is the dimensionless axis (|kappa_t| t for twisting runs,
    P t for uniform-field runs); ``times_phys`` the same times divided by
    ``time_scale``.  ``n_angle`` is the analysis rotation about x used for
    the rotated quadratures; ``xi_y_n``/``xi_z_n`` are normalized by the x
    polarization and ``xi_x``/``xi_y`` by the z polarization.
    """

    scenario: str
    model: str
    n_policy: str
    time_scale: float
    times: np.ndarray
    times_phys: np.ndarray
    n_angle: np.ndarray
    mean_jx: np.ndarray
    mean_jy: np.ndarray
    mean_jz: np.ndarray
    var_jx: np.ndarray
    var_jy: np.ndarray
    var_jz: np.ndarray
    cov_jy_jz: np.ndarray
    mean_jy_n: np.ndarray
    mean_jz_n: np.ndarray
    var_jy_n: np.ndarray
    var_jz_n: np.ndarray
    xi_y_n: np.ndarray
    xi_z_n: np.ndarray
    xi_x: np.ndarray
    xi_y: np.ndarray
    purity: np.ndarray

    def xi_pair(self) -> tuple[tuple[str, np.ndarray], tuple[str, np.ndarray]]:
        """The two squeezing columns a scenario is plotted with."""
        if self.scenario == "ku":
            return ("xi_y", self.xi_y_n), ("xi_z", self.xi_z_n)
        return ("xi_x", self.xi_x), ("xi_y", self.xi_y)


def _scan_angles(var_y: np.ndarray, var_z: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Per-point analysis angle minimizing the rotated y variance.

    The rotated variance is the quadratic form
    ``cos^2(n) var_y + sin^2(n) var_z - sin(2n) cov`` (period pi); a
    one-degree grid brackets the minimum and golden-section refines it.
    """
    grid = np.arange(180) * SCAN_GRID_STEP
    c2 = np.cos(grid) ** 2
    s2 = np.sin(grid) ** 2
    cs = np.sin(2.0 * grid)
    table = (
        var_y[:, None] * c2[None, :]
        + var_z[:, None] * s2[None, :]
        - cov[:, None] * cs[None, :]
    )
    best = np.argmin(table, axis=1)
    out = np.empty(var_y.size)
    for i, k in enumerate(best):
        vy, vz, cyz = var_y[i], var_z[i], cov[i]

        def rotated_var(n: float) -> float:
            c, s = math.cos(n), math.sin(n)
            return c * c * vy + s * s * vz - math.sin(2.0 * n) * cyz

        center = grid[k]
        n_ref, _ = golden_section(
            rotated_var,
            center - SCAN_GRID_STEP,
            center + SCAN_GRID_STEP,
            tol=SCAN_ANGLE_TOL,
        )
        out[i] = n_ref if rotated_var(n_ref) <= rotated_var(center) else center
    return out


def _moment_tables(rho: np.ndarray) -> dict[str, np.ndarray]:
    def tr(op: np.ndarray) -> np.ndarray:
        return np.einsum("tab,ba->t", rho, op).real

    return {
        "mx": tr(_J.jx),
        "my": tr(_J.jy),
        "mz": tr(_J.jz),
        "x2": tr(_JX2),
        "y2": tr(_JY2),
        "z2": tr(_JZ2),
        "sym_yz": tr(_SYM_YZ),
        "purity": np.einsum("tab,tba->t", rho, rho).real,
    }


def time_scale(params: FieldParams, scenario: str) -> float:
    """Physical rate per unit of dimensionless time for a scenario.

    ``|kappa_t|`` for "ku" (1 when there is no twisting, so the axis is raw
    time) and the precession rate P otherwise; a vanishing P raises
    ``ValueError``.
    """
    if scenario == "ku":
        scale = abs(params.kappa_t)
        return scale if scale != 0.0 else 1.0
    scale = analytic.precession_rate(params.kappa_t, params.b_t)
    if scale == 0.0:
        raise ValueError("zero precession rate: b_t and kappa_t both vanish")
    return scale


def run_series(
    params: FieldParams,
    scenario: str,
    model: str,
    times,
    n_policy="formula",
) -> SqueezeSeries:
    """Run one scenario over a dimensionless time grid.

    ``scenario`` fixes the Hamiltonian family and the initial state
    ("ku": pure twisting from the x-stretched state; "lnl"/"general":
    field-plus-twisting from the z-stretched state).  ``model`` selects the
    four-level reduction or the full eight-level evolution (initial state
    embedded in the upper doublet block).  ``times`` is in units of
    1/|kappa_t| for "ku" and 1/P otherwise.  ``n_policy`` controls the
    analysis angle for twisting runs: "formula" (closed-form optimum),
    "scan" (per-point numerical minimization), or a fixed angle in radians;
    uniform-field runs always analyze the unrotated quadratures.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("empty time grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid contains non-finite values")

    scale = time_scale(params, scenario)
    with np.errstate(over="ignore"):
        times_phys = times / scale
    if not np.all(np.isfinite(times_phys)):
        raise ValueError(f"time grid overflows at time scale {scale!r}")

    axis = _SCENARIO_AXIS[scenario]
    if model == "four_dim":
        h = build_named(_SCENARIO_KIND[scenario], params)
        psi0 = stretched_state(1.5, axis)
        states = _evolve_table(h, psi0, times_phys)
        rho = np.einsum("ta,tb->tab", states, states.conj())
    else:
        h = build_full(params)
        psi0 = embed_initial_state(stretched_state(1.5, axis), "f")
        states = _evolve_table(h, psi0, times_phys)
        blocks = states.reshape(-1, 2, 4)
        rho = np.einsum("tsa,tsb->tab", blocks, blocks.conj())

    m = _moment_tables(rho)
    var_x = m["x2"] - m["mx"] ** 2
    var_y = m["y2"] - m["my"] ** 2
    var_z = m["z2"] - m["mz"] ** 2
    cov_yz = m["sym_yz"] - m["my"] * m["mz"]

    if scenario == "ku":
        if isinstance(n_policy, str):
            if n_policy == "formula":
                n = np.asarray(analytic.optimal_axis_angle(params.kappa_t, times_phys))
            elif n_policy == "scan":
                n = _scan_angles(var_y, var_z, cov_yz)
            else:
                raise ValueError(f"unknown n_policy {n_policy!r}")
            policy_label = n_policy
        else:
            n = np.full(times.size, float(n_policy))
            policy_label = f"fixed:{float(n_policy)!r}"
    else:
        # Uniform-field squeezing is analyzed in the unrotated x/y pair.
        n = np.zeros(times.size)
        policy_label = "fixed:0.0"
        if not isinstance(n_policy, str):
            n = np.full(times.size, float(n_policy))
            policy_label = f"fixed:{float(n_policy)!r}"

    cn = np.cos(n)
    sn = np.sin(n)
    mean_y_n = cn * m["my"] - sn * m["mz"]
    mean_z_n = cn * m["mz"] + sn * m["my"]
    mean_y2_n = cn**2 * m["y2"] + sn**2 * m["z2"] - 2.0 * cn * sn * m["sym_yz"]
    mean_z2_n = cn**2 * m["z2"] + sn**2 * m["y2"] + 2.0 * cn * sn * m["sym_yz"]
    var_y_n = mean_y2_n - mean_y_n**2
    var_z_n = mean_z2_n - mean_z_n**2

    return SqueezeSeries(
        scenario=scenario,
        model=model,
        n_policy=policy_label,
        time_scale=float(scale),
        times=times,
        times_phys=times_phys,
        n_angle=n,
        mean_jx=m["mx"],
        mean_jy=m["my"],
        mean_jz=m["mz"],
        var_jx=var_x,
        var_jy=var_y,
        var_jz=var_z,
        cov_jy_jz=cov_yz,
        mean_jy_n=mean_y_n,
        mean_jz_n=mean_z_n,
        var_jy_n=var_y_n,
        var_jz_n=var_z_n,
        xi_y_n=xi_wineland(spread(var_y_n), m["mx"]),
        xi_z_n=xi_wineland(spread(var_z_n), m["mx"]),
        xi_x=xi_wineland(spread(var_x), m["mz"]),
        xi_y=xi_wineland(spread(var_y), m["mz"]),
        purity=m["purity"],
    )


def max_heisenberg_violation(series: SqueezeSeries) -> float:
    """Worst uncertainty-bound violation across the run, clipped at zero.

    Checks the three cyclic pairings of the rotated triple
    ``(Jx, J_{y,n}, J_{z,n})``, whose commutators close among themselves:
    each spread product must be at least half the magnitude of the third
    mean.  Returns the largest shortfall found (0.0 when every record
    respects the bounds).
    """
    dx = spread(series.var_jx)
    dy = spread(series.var_jy_n)
    dz = spread(series.var_jz_n)
    shortfalls = (
        0.5 * np.abs(series.mean_jx) - dy * dz,
        0.5 * np.abs(series.mean_jz_n) - dx * dy,
        0.5 * np.abs(series.mean_jy_n) - dz * dx,
    )
    return float(max(0.0, *(s.max() for s in shortfalls)))


def resolve_twist_sign(e_ratio: float = 0.05, eval_phase: float = 0.3) -> int:
    """Determine empirically which ``c_const`` matches the full dynamics.

    The sign of the early-time y-z covariance of the twisting dynamics is
    the sign of the twisting strength, and it is insensitive to the exact
    effective rate.  The full model is run from the physical (embedded)
    x-stretched initial state -- the eight-level Hamiltonian itself carries
    no ``c_const`` -- and each four-level sign candidate is run beside it,
    all at the dimensionless time ``eval_phase``; exactly one candidate
    must reproduce the sign of the covariance.  Returns that ``c_const``
    (-1, i.e. positive ``kappa_t``).
    """

    def cov_at_phase(model: str, c_const: int = 1) -> float:
        p = FieldParams(delta_t=1.0, b_t=0.0, e_t=e_ratio, theta=0.0, c_const=c_const)
        return float(run_series(p, "ku", model, [eval_phase]).cov_jy_jz[0])

    cov_full = cov_at_phase("eight_dim")
    if abs(cov_full) < 0.05:
        raise RuntimeError(
            f"covariance signal too weak to resolve the twisting sign: {cov_full!r}"
        )

    matches = []
    for c_const in (1, -1):
        cov4 = cov_at_phase("four_dim", c_const)
        if abs(cov4) < 0.05:
            raise RuntimeError(
                f"covariance signal too weak for candidate c_const={c_const}: {cov4!r}"
            )
        if math.copysign(1.0, cov4) == math.copysign(1.0, cov_full):
            matches.append(c_const)
    if len(matches) != 1:
        raise RuntimeError(f"ambiguous twisting-sign resolution: matches={matches!r}")
    return matches[0]
