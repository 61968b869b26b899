"""Independent single-point routes to the quantities ``run_series`` tabulates.

These are deliberately plain and slow: one time point at a time, a
propagator built from ``np.linalg.eigh``, a partial trace written as an
explicit loop over the slow index, the eight-level Hamiltonian taken from
its entry-by-entry tabulation, and rotated-quadrature moments taken on the
frame-rotated state ``exp(-i n Jx) rho exp(+i n Jx)`` rather than from the
rotated operators.  The batched kernel shares none of these steps.  The
coarse analysis-angle scan is kept in its whole-table form, against which
the kernel's blocked table is checked.

The table text oracles at the end format one cell at a time and build the
whole text before returning it, the plain route the CLI's chunked writer
must reproduce byte for byte.
"""

import json
import math

import numpy as np

from ohsqueeze.hamiltonians import full_matrix_tabulated
from ohsqueeze.spin import make_spin_ops

OPS = make_spin_ops(1.5)


def propagator(h, t):
    """``exp(-i h t)`` for Hermitian ``h``, from ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def rotation(ops, axis, angle):
    """``exp(-i * angle * J_axis)`` about a Cartesian axis."""
    return propagator({"x": ops.jx, "y": ops.jy, "z": ops.jz}[axis], angle)


def partial_trace_slow(rho, slow_dim, fast_dim):
    """Trace out the slow tensor factor, one slow index at a time."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (slow_dim * fast_dim, slow_dim * fast_dim):
        raise ValueError(f"shape {rho.shape} is not ({slow_dim}*{fast_dim})^2")
    out = np.zeros((fast_dim, fast_dim), dtype=complex)
    for s in range(slow_dim):
        block = slice(s * fast_dim, (s + 1) * fast_dim)
        out += rho[block, block]
    return out


def expect(op, state):
    """Real expectation value on a state vector or a density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return float(np.vdot(state, op @ state).real)
    return float(np.trace(op @ state).real)


def _four_level_hamiltonian(params):
    axis = math.cos(params.theta) * OPS.jz - math.sin(params.theta) * OPS.jx
    return -params.b_t * OPS.jz + params.kappa_t * (axis @ axis)


def _initial_state(scenario):
    up = np.zeros(4, dtype=complex)
    if scenario == "ku":
        up[0] = 1.0
        return rotation(OPS, "y", 0.5 * math.pi) @ up  # x-stretched
    up[-1] = 1.0  # -z-stretched
    return up


def moments(params, scenario, model, t_phys, n):
    """Moments of one run at physical time ``t_phys`` and analysis angle ``n``."""
    psi0 = _initial_state(scenario)
    if model == "four_dim":
        h = _four_level_hamiltonian(params)
    else:
        h = full_matrix_tabulated(params)
        psi0 = np.concatenate([np.zeros(4, dtype=complex), psi0])  # upper doublet block
    psi = propagator(h, t_phys) @ psi0
    rho = np.outer(psi, psi.conj())
    if model == "eight_dim":
        rho = partial_trace_slow(rho, 2, 4)
    u = rotation(OPS, "x", n)
    rho_n = u @ rho @ u.conj().T
    mean_y = expect(OPS.jy, rho)
    mean_z = expect(OPS.jz, rho)
    sym_yz = 0.5 * (OPS.jy @ OPS.jz + OPS.jz @ OPS.jy)
    mean_y_n = expect(OPS.jy, rho_n)
    mean_z_n = expect(OPS.jz, rho_n)
    return {
        "mean_jx": expect(OPS.jx, rho),
        "mean_jy_n": mean_y_n,
        "var_jy_n": expect(OPS.jy @ OPS.jy, rho_n) - mean_y_n**2,
        "var_jz_n": expect(OPS.jz @ OPS.jz, rho_n) - mean_z_n**2,
        "cov_jy_jz": expect(sym_yz, rho) - mean_y * mean_z,
        "purity": float(np.trace(rho @ rho).real),
    }


def scan_grid_argmin(var_y, var_z, cov):
    """Coarse analysis-angle scan with every point's one-degree row in one table."""
    grid = np.arange(180) * (math.pi / 180.0)
    c2 = np.cos(grid) ** 2
    s2 = np.sin(grid) ** 2
    cs = np.sin(2.0 * grid)
    table = var_y[:, None] * c2[None, :] + var_z[:, None] * s2[None, :] - cov[:, None] * cs[None, :]
    return np.argmin(table, axis=1)


def fmt(value) -> str:
    """One table cell as text: strings as they are, ints in full, floats to 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def jsonable(value):
    """JSON-safe copy: non-finite floats become strings, arrays become lists."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else fmt(value)
    return value


def table_csv(header, columns) -> str:
    """The whole CSV text, built row by row and cell by cell."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def table_json(header, columns, meta) -> str:
    """The whole JSON text: the metadata plus ``columns`` and row-wise ``rows``."""
    payload = dict(meta)
    payload["columns"] = header
    payload["rows"] = [list(row) for row in zip(*columns)]
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
