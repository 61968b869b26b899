"""Exact state evolution and squeezing-parameter series.

:func:`run_series` is the one evolution kernel.  It takes one field or a
sequence of fields sharing a time grid and diagonalizes their Hamiltonians
in one stacked Hermitian eigendecomposition per block of fields.  It then
walks the time axis in tiles: each tile propagates the initial state to its
(field, time) points, reduces eight-level states to the J = 3/2 density
matrix, and takes all seven moments in one real matrix product and the
purity as a sum of squares.
A series carries the full moment record, the rotated-quadrature record at
the per-point analysis angle, and both squeezing-parameter normalizations
(about the x polarization for twisting runs, about z for uniform-field
runs).  Every CLI table is built on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import spread, xi_wineland
from .hamiltonians import build_full, build_reduced
from .linalg import herm_eig
from .spin import embed_initial_state, make_spin_ops, stretched_state
from .units import FieldParams

#: Scenario name -> (fixed field angle or None, stretched initial-state axis);
#: "ku" also has no magnetic field.  :func:`time_scale` checks the rules.
SCENARIO_RULES = {"ku": (0.0, "x"), "lnl": (0.5 * math.pi, "-z"), "general": (None, "-z")}
SCENARIOS = tuple(SCENARIO_RULES)
MODELS = ("four_dim", "eight_dim")

_J = make_spin_ops(1.5)
#: Jx, Jy, Jz, their squares and the symmetrized y-z product.
_MOMENT_OPS = (
    _J.jx, _J.jy, _J.jz,
    _J.jx @ _J.jx, _J.jy @ _J.jy, _J.jz @ _J.jz,
    0.5 * (_J.jy @ _J.jz + _J.jz @ _J.jy),
)
#: The moment operators realified, one column each: with ``i = 4a + b``,
#: row ``2i`` is ``Re(O^T)_i`` and row ``2i + 1`` is ``-Im(O^T)_i``, so the
#: float64 view of a density matrix's 16 entries times this matrix is
#: ``Re tr(rho O)`` for every operator at once.
_MOMENT_MATRIX = np.stack(
    [np.stack([op.T.real.ravel(), -op.T.imag.ravel()], axis=1).ravel() for op in _MOMENT_OPS],
    axis=1,
)

#: Points, fields x times, the kernel evaluates at a time: a block holds as
#: many whole grids as fit (at least one field), and a longer grid is walked
#: in tiles of this many times, so memory per point stays bounded.
_BATCH_POINTS = 2048


def _evolve_table(w: np.ndarray, v: np.ndarray, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States of each field at every time; ``[p, i]`` is ``psi_p(times[p, i])``.

    ``w`` and ``v`` are the ``(P, d)`` eigenvalues and ``(P, d, d)``
    eigenvectors of the fields' Hamiltonians, ``amps`` the ``(P, d)``
    initial state in each eigenbasis and ``times`` ``(P, L)``.
    """
    phases = np.exp(-1j * (times[:, :, None] * w[:, None, :]))
    return (phases * amps[:, None, :]) @ v.swapaxes(1, 2)


def _tile_moments(states: np.ndarray, out: np.ndarray) -> None:
    """Write the seven moments and the purity of a ``(P, L, d)`` state tile to ``out``.

    ``out`` is ``(8, P, L)``: the :data:`_MOMENT_OPS` expectations, then the
    purity ``tr(rho^2)``, the sum of squares of the Hermitian ``rho``'s
    entries.  Every matrix product is one call per field, so a field's bits
    depend on the tile length only.
    """
    p, length, _ = states.shape
    # A four-level state is the one-block case of the doublet-block reduction.
    doublets = states.reshape(p * length, -1, 4)
    rho = np.einsum("tsa,tsb->tab", doublets, doublets.conj())
    flat = rho.view(np.float64).reshape(p, length, 32)
    out[:7] = np.moveaxis(flat @ _MOMENT_MATRIX, 2, 0)
    out[7] = np.einsum("pti,pti->pt", flat, flat)


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


def time_scale(params: FieldParams, scenario: str) -> float:
    """Physical rate per unit of dimensionless time for a scenario.

    ``|kappa_t|`` for "ku" (1 when there is no twisting, so the axis is raw
    time) and the precession rate P otherwise.  The scenario rules hold for
    both models: an angle more than 1e-12 off the scenario's fixed one, a
    "ku" field with ``b_t != 0``, a vanishing P, or a ``kappa_t`` that
    underflows to zero under a nonzero ``e_t`` raises ``ValueError``, as
    does an unknown scenario.
    """
    if scenario not in SCENARIO_RULES:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    fixed, _ = SCENARIO_RULES[scenario]
    if fixed is not None and abs(params.theta - fixed) > 1e-12:
        raise ValueError(f"the {scenario} scenario fixes theta at {fixed!r}, got {params.theta!r}")
    if scenario == "ku":
        if params.b_t != 0.0:
            raise ValueError(f"the ku scenario has no magnetic field: b_t is {params.b_t!r}, not 0")
        if params.kappa_t == 0.0 and params.e_t != 0.0:
            raise ValueError(f"twisting strength underflows: kappa_t is 0 at e_t = {params.e_t!r}")
        scale = abs(params.kappa_t)
        return scale if scale != 0.0 else 1.0
    scale = analytic.precession_rate(params.kappa_t, params.b_t)
    if scale == 0.0:
        raise ValueError("zero precession rate: b_t and kappa_t both vanish")
    return scale


def run_series(
    params: FieldParams | Sequence[FieldParams],
    scenario: str,
    model: str,
    times,
    n_policy="formula",
) -> SqueezeSeries | list[SqueezeSeries]:
    """Run one scenario over a dimensionless time grid, for one field or many.

    ``params`` is one :class:`FieldParams`, giving one series, or a sequence
    of them, giving a list of series in input order; every field shares the
    grid, scenario, model and policy.  Fields are evaluated together in
    blocks of at most :data:`_BATCH_POINTS` points (fields x times, at least
    one field per block), with one stacked eigendecomposition per block; a
    grid longer than :data:`_BATCH_POINTS` is walked in tiles of that many
    times.  A field's tiles depend only on the grid's length, so its series
    has the same bits whichever block it lands in.

    ``scenario`` fixes the initial state and the field's rules, in both
    models ("ku": theta = 0 and b_t = 0, x-stretched state; "lnl": theta =
    pi/2, and "general": any angle, z-stretched state).  ``model`` selects
    the four-level reduction at the field angle or the full eight-level
    evolution (initial state embedded in the upper doublet block).
    ``times`` is a 1-D grid in units of 1/|kappa_t| for "ku" and 1/P
    otherwise.  ``n_policy`` is the analysis angle: a finite fixed angle in
    radians in any scenario, or "formula" (the twisting closed form's
    optimum) or "scan" (the exact per-point minimizer of the computed
    moments, in [0, pi)), which twisting runs honor and uniform-field runs
    read as the unrotated quadratures (angle 0).  Any other string raises
    ``ValueError``.

    For example, an eight-level field-angle map in one call::

        fields = [FieldParams(1.0, 0.2, 0.25, math.radians(d), -1) for d in (30, 60, 90)]
        for series in run_series(fields, "general", "eight_dim", np.linspace(0, 3, 51)):
            print(series.xi_y.min())
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if not isinstance(n_policy, str):
        n_policy = float(n_policy)
        if not math.isfinite(n_policy):
            raise ValueError(f"fixed analysis angle must be finite, got {n_policy!r}")
    elif n_policy not in ("formula", "scan"):
        raise ValueError(f"unknown n_policy {n_policy!r}")
    elif scenario != "ku":
        # Uniform-field squeezing is analyzed in the unrotated x/y pair.
        n_policy = 0.0
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError(f"time grid must be one-dimensional, got shape {times.shape}")
    if times.size == 0:
        raise ValueError("empty time grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid contains non-finite values")

    single = isinstance(params, FieldParams)
    fields = [params] if single else list(params)
    scales = [time_scale(p, scenario) for p in fields]
    per_block = max(1, _BATCH_POINTS // times.size)
    runs = []
    for lo in range(0, len(fields), per_block):
        hi = lo + per_block
        runs.extend(_run_block(fields[lo:hi], scales[lo:hi], scenario, model, times, n_policy))
    return runs[0] if single else runs


def _run_block(fields, scales, scenario, model, times, n_policy) -> list[SqueezeSeries]:
    """The kernel body over one block of fields: arrays are (field, time)."""
    with np.errstate(over="ignore"):
        times_phys = times / np.array(scales)[:, None]
    _, axis = SCENARIO_RULES[scenario]
    psi0 = stretched_state(1.5, axis)
    if model == "four_dim":
        h = np.stack([build_reduced(p) for p in fields])
    else:
        h = build_full(fields)
        psi0 = embed_initial_state(psi0, "f")
    w, v = herm_eig(h)
    # Each field's largest phase: w t, and the formula angle's 2 kappa t.
    kappa = np.array([[p.kappa_t] for p in fields])
    rates = np.abs(w).max(axis=1)
    if n_policy == "formula":
        rates = np.maximum(rates, 2.0 * np.abs(kappa[:, 0]))
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(rates * np.abs(times_phys).max(axis=1))
    if not finite.all():
        scale = scales[int(np.argmin(finite))]
        raise ValueError(f"time grid overflows: largest phase not finite at time scale {scale!r}")

    amps = v.conj().swapaxes(1, 2) @ np.asarray(psi0, dtype=complex)
    shape = times_phys.shape
    tile = min(times.size, _BATCH_POINTS)
    moments = np.empty((8, *shape))
    for lo in range(0, times.size, tile):
        cols = slice(lo, lo + tile)
        _tile_moments(_evolve_table(w, v, amps, times_phys[:, cols]), moments[:, :, cols])
    mx, my, mz, x2, y2, z2, sym_yz, purity = moments

    if n_policy == "formula":
        n = np.asarray(analytic.optimal_axis_angle(kappa, times_phys))
    elif n_policy == "scan":
        # The rotated variance is A + B cos 2n - C sin 2n, least at
        # 2n = atan2(C, -B), with B = (var_y - var_z)/2 and C = cov_yz.
        var_y, var_z, cov_yz = y2 - my**2, z2 - mz**2, sym_yz - my * mz
        n = np.mod(0.5 * np.arctan2(cov_yz, 0.5 * (var_z - var_y)), math.pi)
        n[n == math.pi] = 0.0  # a tiny negative angle rounds up to pi
    else:
        n = np.full(shape, n_policy)
        n_policy = f"fixed:{n_policy!r}"

    cn = np.cos(n)
    sn = np.sin(n)
    mean_y_n = cn * my - sn * mz
    mean_z_n = cn * mz + sn * my
    var_y_n = cn**2 * y2 + sn**2 * z2 - 2.0 * cn * sn * sym_yz - mean_y_n**2
    var_z_n = cn**2 * z2 + sn**2 * y2 + 2.0 * cn * sn * sym_yz - mean_z_n**2
    # Second moments become variances in place: every moment row is a column.
    var_x = np.subtract(x2, mx**2, out=x2)
    var_y = np.subtract(y2, my**2, out=y2)
    var_z = np.subtract(z2, mz**2, out=z2)
    cov_yz = np.subtract(sym_yz, my * mz, out=sym_yz)
    columns = {
        "times_phys": times_phys,
        "n_angle": n,
        "mean_jx": mx,
        "mean_jy": my,
        "mean_jz": mz,
        "var_jx": var_x,
        "var_jy": var_y,
        "var_jz": var_z,
        "cov_jy_jz": cov_yz,
        "mean_jy_n": mean_y_n,
        "mean_jz_n": mean_z_n,
        "var_jy_n": var_y_n,
        "var_jz_n": var_z_n,
        "xi_y_n": xi_wineland(spread(var_y_n), mx),
        "xi_z_n": xi_wineland(spread(var_z_n), mx),
        "xi_x": xi_wineland(spread(var_x), mz),
        "xi_y": xi_wineland(spread(var_y), mz),
        "purity": purity,
    }
    # Each field's series is a row view of the block's arrays.
    return [
        SqueezeSeries(
            scenario=scenario,
            model=model,
            n_policy=n_policy,
            time_scale=float(scale),
            times=times,
            **{name: column[row] for name, column in columns.items()},
        )
        for row, scale in enumerate(scales)
    ]


def _stack_rows(columns: list[np.ndarray]) -> np.ndarray:
    """``(run, time)`` array of per-run columns; a lone column is viewed, not copied."""
    return columns[0][None] if len(columns) == 1 else np.stack(columns)


def max_heisenberg_violation(
    series: SqueezeSeries | Sequence[SqueezeSeries],
) -> float | list[float]:
    """Worst uncertainty-bound violation across a run, clipped at zero.

    One series gives a float; a sequence sharing a grid length, one per series.

    Checks the three cyclic pairings of the rotated triple
    ``(Jx, J_{y,n}, J_{z,n})``, whose commutators close among themselves,
    in variance form: each variance product must be at least a quarter of
    the square of the third mean.  Returns the largest shortfall
    ``max(0, <J_c>^2 / 4 - var_a var_b)``, variances clipped at zero (0.0
    when every record respects the bounds).  The variance form takes no
    square root, so a variance that cancels to roundoff near zero leaves a
    shortfall at roundoff too.
    """
    runs = [series] if isinstance(series, SqueezeSeries) else series
    names = ("var_jx", "var_jy_n", "var_jz_n", "mean_jx", "mean_jy_n", "mean_jz_n")
    var_x, var_y, var_z, mx, my, mz = (_stack_rows([getattr(r, n) for r in runs]) for n in names)
    var_x, var_y, var_z = (np.maximum(v, 0.0) for v in (var_x, var_y, var_z))
    shortfalls = (
        0.25 * mx**2 - var_y * var_z,
        0.25 * mz**2 - var_x * var_y,
        0.25 * my**2 - var_z * var_x,
    )
    worst = np.zeros(len(runs))
    for largest in (s.max(axis=1) for s in shortfalls):
        worst = np.where(largest > worst, largest, worst)  # as max(0.0, ...): nan never wins
    return float(worst[0]) if isinstance(series, SqueezeSeries) else worst.tolist()
