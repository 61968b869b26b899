"""Correctness checks for the benchmark's CLI outputs.

Every check reads the file an op wrote and returns ``None`` when the output
is right, or a one-line reason when it is not.  Checks are tolerance-based,
not byte hashes, so a change that only moves the last digits still passes.

Two independent references are used:

* four-level (adiabatic) rows against the closed forms in
  ``ohsqueeze.analytic`` at the optimal analysis angle;
* eight-level (full) rows, at a sample of time points, against an exact
  evolution computed here with plain numpy from the hand-tabulated matrix
  ``ohsqueeze.hamiltonians.full_matrix_tabulated``.  The spin operators,
  initial states, time scale and analysis angle are written out here, not
  taken from the package.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ohsqueeze import analytic
from ohsqueeze.hamiltonians import full_matrix_tabulated
from ohsqueeze.units import FieldParams

#: Relative tolerance (against ``max(1, |reference|)``) for a squeezing value.
RTOL = 1e-9
#: Above this a squeezing value sits at a polarization zero, where it is
#: ill-conditioned; there both sides only have to be divergent (or inf).
XI_CAP = 1e4
#: Largest Heisenberg-bound shortfall accepted in a sweep's metadata.
HEISENBERG_TOL = 1e-9
#: Time points per eight-level block compared against the numpy reference.
FULL_SAMPLES = 257
#: Angles of a field-angle map whose eight-level rows are compared.
ANGLE_SAMPLES = 16

_SQRT3 = math.sqrt(3.0)

# J = 3/2 operators in the descending-m basis (m = 3/2 first).
_RAISE = np.diag([_SQRT3, 2.0, _SQRT3], k=1).astype(complex)
_JX = 0.5 * (_RAISE + _RAISE.T)
_JY = -0.5j * (_RAISE - _RAISE.T)
_JZ = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
_X_STRETCHED = np.array([1.0, _SQRT3, _SQRT3, 1.0], dtype=complex) / (2.0 * math.sqrt(2.0))
_MINUS_Z_STRETCHED = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


def field_params(e_ratio: float, theta_deg: float = 0.0, r: float = 0.0) -> FieldParams:
    """The reduced parameters the CLI builds from ``--e-ratio`` (c_const = -1)."""
    theta = 0.5 * math.pi if theta_deg == 90.0 else math.radians(theta_deg)
    return FieldParams(delta_t=1.0, b_t=r * e_ratio**2, e_t=e_ratio, theta=theta, c_const=-1)


def sample_indices(n: int, count: int = FULL_SAMPLES) -> np.ndarray:
    """About ``count`` evenly spread indices into ``range(n)``, ends included."""
    return np.unique(np.linspace(0, n - 1, min(n, count)).round().astype(int))


def _xi(var: np.ndarray, mean: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _SQRT3 * np.sqrt(np.maximum(var, 0.0)) / np.abs(mean)
    return np.where(mean == 0.0, np.inf, out)


def full_reference(params: FieldParams, scenario: str, times, angle: str):
    """Squeezing pair of the eight-level model at dimensionless ``times``.

    ``scenario`` is "ku" (twisting from the x-stretched state, time unit
    1/kappa_t) or "general" (field plus twisting from the -z-stretched state,
    time unit 1/P).  ``angle`` is the analysis-angle policy of a "ku" run:
    "formula" (the four-level optimum) or "scan" (the exact per-point
    minimum of the rotated y variance).  Returns ``(xi_a, xi_b)``.
    """
    times = np.asarray(times, dtype=float)
    kappa, b_t = params.kappa_t, params.b_t
    if scenario == "ku":
        scale, psi4 = abs(kappa), _X_STRETCHED
    else:
        scale = math.hypot(b_t - 0.5 * kappa, 0.5 * _SQRT3 * kappa)
        psi4 = _MINUS_Z_STRETCHED
    t_phys = times / scale
    w, v = np.linalg.eigh(full_matrix_tabulated(params))
    psi0 = np.concatenate([np.zeros(4, dtype=complex), psi4])
    states = (np.exp(-1j * np.outer(t_phys, w)) * (v.conj().T @ psi0)) @ v.T
    halves = states.reshape(-1, 2, 4)

    def mean(op: np.ndarray) -> np.ndarray:
        return np.einsum("tsa,ab,tsb->t", halves.conj(), op, halves).real

    mx, my, mz = mean(_JX), mean(_JY), mean(_JZ)
    var_x = mean(_JX @ _JX) - mx**2
    var_y = mean(_JY @ _JY) - my**2
    var_z = mean(_JZ @ _JZ) - mz**2
    if scenario != "ku":
        return _xi(var_x, mz), _xi(var_y, mz)
    cov = mean(0.5 * (_JY @ _JZ + _JZ @ _JY)) - my * mz
    # Rotated y variance: A + B cos 2n - C sin 2n.
    a, b = 0.5 * (var_y + var_z), 0.5 * (var_y - var_z)
    if angle == "scan":
        radius = np.hypot(b, cov)
        return _xi(a - radius, mx), _xi(a + radius, mx)
    x = 2.0 * kappa * t_phys
    n = 0.5 * math.pi - 0.5 * np.arctan2(2.0 * np.sin(x), 1.0 - np.cos(x))
    rot = b * np.cos(2.0 * n) - cov * np.sin(2.0 * n)
    return _xi(a + rot, mx), _xi(a - rot, mx)


def four_reference(params: FieldParams, times):
    """Closed-form twisting pair ``(xi_y, xi_z)`` at the optimal analysis angle."""
    kappa = params.kappa_t
    t_phys = np.asarray(times, dtype=float) / abs(kappa)
    return analytic.ku_xi(kappa, t_phys, analytic.optimal_axis_angle(kappa, t_phys))


def compare_xi(label: str, out, ref) -> str | None:
    """Reason the column ``out`` misses ``ref``, or ``None`` when it matches."""
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        return f"{label}: {out.size} values, expected {ref.size}"
    out, ref = out.ravel(), ref.ravel()
    divergent = ~np.isfinite(ref) | (np.abs(ref) > XI_CAP)
    out_divergent = ~np.isfinite(out) | (np.abs(out) > 0.5 * XI_CAP)
    bad = np.flatnonzero(divergent & ~out_divergent)
    if bad.size:
        k = bad[0]
        return f"{label}[{k}] = {out[k]!r}, expected a divergent value ({ref[k]!r})"
    with np.errstate(invalid="ignore"):
        err = np.abs(out - ref) / np.maximum(1.0, np.abs(ref))
    bad = np.flatnonzero(~divergent & ~(err <= RTOL))
    if bad.size:
        k = bad[0]
        return f"{label}[{k}] = {out[k]!r}, expected {ref[k]!r}"
    return None


def _first(reasons) -> str | None:
    return next((reason for reason in reasons if reason is not None), None)


def _read_csv(path: str, expect_header: list[str]):
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split(",")
    if header != expect_header:
        return None, f"header {header}, expected {expect_header}"
    first = 1 if expect_header[0] == "model" else 0
    table = np.loadtxt(
        path, delimiter=",", skiprows=1, ndmin=2, usecols=range(first, len(header))
    )
    return table, None


def check_trajectory(path: str, e_ratio: float, points: int) -> str | None:
    """``simulate --scenario ku --model both`` in CSV."""
    table, reason = _read_csv(path, ["model", "t_dimensionless", "xi_y", "xi_z"])
    if reason:
        return reason
    if table.shape[0] != 2 * points:
        return f"{table.shape[0]} rows, expected {2 * points}"
    with open(path, "rb") as handle:
        text = handle.read()
    counts = text.count(b"\nadiabatic,"), text.count(b"\nfull,")
    if counts != (points, points) or text.rfind(b"\nadiabatic,") > text.find(b"\nfull,"):
        return "model column is not the adiabatic block followed by the full block"
    params = field_params(e_ratio)
    grid = np.linspace(0.0, math.pi, points)
    four, full = table[:points], table[points:]
    k = sample_indices(points)
    return _first(
        [
            compare_xi("t_dimensionless", four[:, 0], grid),
            compare_xi("t_dimensionless", full[:, 0], grid),
            *(
                compare_xi(f"adiabatic {name}", four[:, col], ref)
                for col, name, ref in zip((1, 2), ("xi_y", "xi_z"), four_reference(params, grid))
            ),
            *(
                compare_xi(f"full {name}", full[k, col], ref)
                for col, name, ref in zip(
                    (1, 2), ("xi_y", "xi_z"), full_reference(params, "ku", grid[k], "formula")
                )
            ),
        ]
    )


def check_compare(path: str, e_ratio: float, points: int) -> str | None:
    """``compare --scenario ku`` with the default scan policy, in CSV."""
    header = ["t_dimensionless", "xi_y_adiabatic", "xi_y_full", "xi_z_adiabatic", "xi_z_full"]
    table, reason = _read_csv(path, header)
    if reason:
        return reason
    if table.shape[0] != points:
        return f"{table.shape[0]} rows, expected {points}"
    params = field_params(e_ratio)
    grid = np.linspace(0.0, math.pi, points)
    k = sample_indices(points)
    four_y, four_z = four_reference(params, grid)
    full_y, full_z = full_reference(params, "ku", grid[k], "scan")
    return _first(
        [
            compare_xi("t_dimensionless", table[:, 0], grid),
            compare_xi("xi_y_adiabatic", table[:, 1], four_y),
            compare_xi("xi_z_adiabatic", table[:, 3], four_z),
            compare_xi("xi_y_full", table[k, 2], full_y),
            compare_xi("xi_z_full", table[k, 4], full_z),
        ]
    )


def check_theta_map(path: str, e_ratio: float, points: int, angles, r: float) -> str | None:
    """``sweep-theta --model full --format json`` over ``angles`` (degrees)."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("columns") != ["theta_deg", "t_dimensionless", "xi_x", "xi_y"]:
        return f"columns {payload.get('columns')}"
    rows = payload["rows"]
    if len(rows) != len(angles) * points:
        return f"{len(rows)} rows, expected {len(angles)} angles x {points} points"
    summaries = payload["per_theta"]
    if len(summaries) != len(angles):
        return f"{len(summaries)} per_theta entries, expected {len(angles)}"
    for entry in summaries:
        if not entry["heisenberg_violation"] <= HEISENBERG_TOL:
            return (
                f"theta_deg={entry['theta_deg']!r}: heisenberg_violation "
                f"{entry['heisenberg_violation']!r} > {HEISENBERG_TOL}"
            )
    # float() also reads the strings "inf" and "nan" the JSON writer uses.
    table = np.array([[float(v) for v in row] for row in rows]).reshape(
        len(angles), points, 4
    )
    grid = np.linspace(0.0, math.pi, points)
    reason = _first(
        [
            compare_xi("theta_deg", table[:, :, 0], np.broadcast_to(np.c_[angles], table.shape[:2])),
            compare_xi("t_dimensionless", table[:, :, 1], np.broadcast_to(grid, table.shape[:2])),
        ]
    )
    if reason:
        return reason
    k = sample_indices(points)
    for i in sample_indices(len(angles), ANGLE_SAMPLES):
        theta_deg = angles[i]
        ref_x, ref_y = full_reference(field_params(e_ratio, theta_deg, r), "general", grid[k], "")
        reason = _first(
            [
                compare_xi(f"xi_x at theta_deg={theta_deg!r}", table[i, k, 2], ref_x),
                compare_xi(f"xi_y at theta_deg={theta_deg!r}", table[i, k, 3], ref_y),
            ]
        )
        if reason:
            return reason
    return None
