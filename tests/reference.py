"""Independent single-point routes to the quantities ``run_series`` tabulates.

These are deliberately plain and slow: one time point at a time, a
propagator built from ``np.linalg.eigh``, a partial trace written as an
explicit loop over the slow index, the eight-level Hamiltonian taken from
its entry-by-entry tabulation, and rotated-quadrature moments taken on the
frame-rotated state ``exp(-i n Jx) rho exp(+i n Jx)`` rather than from the
rotated operators.  The batched kernel shares none of these steps.  The
eight-level tensor form is kept in its three-product form, against which
the builder's hoisted factors are checked.
:func:`verify_equivalence` compares that tensor form with the hand
tabulation, and :func:`scan_then_golden` is the brute-force minimizer
(a coarse grid, then :func:`golden_section` refinement) that closed-form
optima, the "scan" analysis angle among them, are checked against.
:func:`build_rotated_frame` is the Agarwal-Puri
frame-rotated partner of the four-level builder, against whose spectrum
``build_reduced``'s is checked, and :func:`resolve_twist_sign` finds the
twisting-sign convention from the dynamics, against which
``analytic.MATCHED_C_CONST`` is pinned.

:func:`xi_minima` and :func:`max_heisenberg_violation` summarize one run
at a time, the route the CLI's batched summaries over many runs must
reproduce.  The table text oracles at the end format one cell at a time and build the
whole text before returning it, the plain route the CLI's chunked writer
must reproduce byte for byte.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ohsqueeze.dynamics import run_series
from ohsqueeze.hamiltonians import build_full, full_matrix_tabulated, twist_axis
from ohsqueeze.linalg import kron
from ohsqueeze.spin import make_spin_ops
from ohsqueeze.units import FieldParams

OPS = make_spin_ops(1.5)
HALF = make_spin_ops(0.5)


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


def build_full_three_kron(params):
    """The eight-level tensor form with all three Kronecker products formed per call."""
    axis = twist_axis(params.theta)
    return (
        -params.delta_t * kron(2.0 * HALF.jz, OPS.identity)
        - params.b_t * kron(HALF.identity, OPS.jz)
        + params.e_t * kron(2.0 * HALF.jx, axis)
    )


def build_rotated_frame(params):
    """Frame-rotated (Agarwal-Puri) partner of ``build_reduced``.

    The twisting is carried by ``Jz**2`` and the Zeeman term points along
    the tilted axis: ``-b_t * axis + kappa_t Jz**2``.  Unitarily equivalent
    to ``build_reduced`` (same spectrum).
    """
    return -params.b_t * twist_axis(params.theta) + params.kappa_t * (OPS.jz @ OPS.jz)


def resolve_twist_sign(e_ratio=0.05, eval_phase=0.3):
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

    def cov_at_phase(model, c_const=1):
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


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the tensor-vs-tabulated cross-check."""

    max_abs_diff: float
    matrix_scale: float
    tol: float
    passed: bool


def verify_equivalence(params, rtol=1e-12):
    """Compare ``build_full`` against ``full_matrix_tabulated``.

    Passes when the largest entrywise difference is at most ``rtol`` times
    the largest entry magnitude.  Failure detail rides in the report; no
    exception is raised.
    """
    tensor = build_full(params)
    diff = float(np.max(np.abs(tensor - full_matrix_tabulated(params))))
    scale = float(np.max(np.abs(tensor)))
    tol = rtol * scale
    return EquivalenceReport(max_abs_diff=diff, matrix_scale=scale, tol=tol, passed=diff <= tol)


#: Shrink steps after which :func:`golden_section` stops whatever the bracket.
_GOLDEN_MAX_ITER = 200
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-6):
    """Minimize a unimodal function on [lo, hi].

    Returns ``(x, f(x))`` at the bracket midpoint once the bracket width
    falls below ``tol`` (or after :data:`_GOLDEN_MAX_ITER` shrink steps).
    """
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo!r}, {hi!r}]")
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def scan_then_golden(f, lo, hi, num, tol=1e-8):
    """Global coarse scan to bracket the best minimum, then golden refinement.

    The scan evaluates ``f`` on ``num`` equispaced points; the refinement
    runs on the two grid cells around the best sample.  Returns the better
    of the refined point and the best raw sample.
    """
    if num < 3:
        raise ValueError(f"need at least 3 scan points, got {num}")
    xs = np.linspace(lo, hi, num)
    vals = np.array([float(f(x)) for x in xs])
    k = int(np.argmin(vals))
    a = float(xs[max(k - 1, 0)])
    b = float(xs[min(k + 1, num - 1)])
    x, fx = golden_section(f, a, b, tol=tol)
    if vals[k] < fx:
        return float(xs[k]), float(vals[k])
    return float(x), float(fx)


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


def xi_minima(series):
    """One run's least finite value of each squeezing column and its time, one run at a time."""
    out = {}
    for label, values in series.xi_pair():
        finite = np.where(np.isfinite(values), values, np.inf)
        k = int(np.argmin(finite))
        out[label] = {"value": values[k], "t_dimensionless": series.times[k]}
    return out


def max_heisenberg_violation(series):
    """One run's worst variance-form uncertainty shortfall, clipped at zero."""
    var_x = np.maximum(series.var_jx, 0.0)
    var_y = np.maximum(series.var_jy_n, 0.0)
    var_z = np.maximum(series.var_jz_n, 0.0)
    shortfalls = (
        0.25 * series.mean_jx**2 - var_y * var_z,
        0.25 * series.mean_jz_n**2 - var_x * var_y,
        0.25 * series.mean_jy_n**2 - var_z * var_x,
    )
    return float(max(0.0, *(s.max() for s in shortfalls)))


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
