"""Closed-form moments and squeezing parameters for the reduced dynamics.

Two exactly solvable four-level scenarios are covered: pure one-axis
twisting from an x-stretched state, and twisting about x combined with a
uniform Zeeman rotation from a z-stretched state.  All formulas are exact
for J = 3/2 and are vectorized over the time argument.  The squeezing
parameter throughout is ``sqrt(2J) * (transverse spread) / |polarization|``,
which is 1 for a coherent state.
"""

from __future__ import annotations

import math

import numpy as np

#: sqrt(2J) for J = 3/2; a coherent state has squeezing parameter exactly 1.
SQRT_2J = math.sqrt(3.0)

#: Twisting-sign convention that matches the eight-level dynamics started
#: from the physical initial states (they occupy the upper doublet block,
#: whose conserved pseudo-spin projection is -1): kappa_t > 0, c_const = -1.
#: Established empirically by the twist-sign resolver in ``tests/reference.py``
#: and pinned by ``test_resolved_twist_sign_matches_pinned_convention``.
MATCHED_C_CONST = -1


def xi_wineland(delta_perp, mean_len):
    """Squeezing parameter ``sqrt(2J) * delta_perp / |mean_len|``.

    A vanishing polarization is flagged with an infinity sentinel rather
    than an exception, so divergent points survive into plots and tables.
    """
    delta_perp = np.asarray(delta_perp, dtype=float)
    mean_len = np.asarray(mean_len, dtype=float)
    # A subnormal polarization overflows the quotient to the same sentinel.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = SQRT_2J * delta_perp / np.abs(mean_len)
    out = np.where(mean_len == 0.0, np.inf, out)
    if out.ndim == 0:
        return float(out)
    return out


def spread(var):
    """Standard deviation from a variance, clipped at zero against roundoff."""
    return np.sqrt(np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# pure twisting (kappa * Jz**2 from the x-stretched state)


def twist_envelope(kappa: float, t):
    """Variance-ellipse envelope of the twisting dynamics.

    Returns ``(growth, shear, tilt)``: the transverse variance growth
    ``1 - cos(2 kappa t)``, the y-z covariance shear ``2 sin(2 kappa t)``,
    and the ellipse tilt ``arctan2(shear, growth) / 2``, continuous in t
    near 0 where both arguments vanish.
    """
    x = 2.0 * kappa * np.asarray(t, dtype=float)
    growth = 1.0 - np.cos(x)
    shear = 2.0 * np.sin(x)
    tilt = 0.5 * np.arctan2(shear, growth)
    return growth, shear, tilt


def optimal_axis_angle(kappa: float, t):
    """Rotation angle about x that minimizes the y-quadrature variance."""
    _, _, tilt = twist_envelope(kappa, t)
    return 0.5 * np.pi - tilt


def ku_moments(kappa: float, t, n):
    """Exact twisting moments at rotation angle ``n`` about the x axis.

    Returns ``(mean_jx, var_y_n, var_z_n)`` for the state evolved under
    ``kappa * Jz**2`` from the x-stretched state.  ``mean_jx`` does not
    depend on ``n``; the rotated quadratures are
    ``J_{y,n} = exp(i n Jx) Jy exp(-i n Jx)`` and its z partner.
    """
    t = np.asarray(t, dtype=float)
    n = np.asarray(n, dtype=float)
    growth, shear, tilt = twist_envelope(kappa, t)
    amp = np.hypot(growth, shear)
    mean_jx = 1.5 * np.cos(kappa * t) ** 2
    phase = np.cos(2.0 * n + 2.0 * tilt)
    var_y = 0.75 * (1.0 + 0.5 * growth + 0.5 * amp * phase)
    var_z = 0.75 * (1.0 + 0.5 * growth - 0.5 * amp * phase)
    return mean_jx, var_y, var_z


def ku_xi(kappa: float, t, n):
    """Squeezing parameters ``(xi_y_n, xi_z_n)`` of the twisting dynamics."""
    mean_jx, var_y, var_z = ku_moments(kappa, t, n)
    return xi_wineland(spread(var_y), mean_jx), xi_wineland(spread(var_z), mean_jx)


# ---------------------------------------------------------------------------
# twisting about x plus uniform Zeeman rotation (from the z-stretched state)


def precession_rate(kappa: float, b_t: float) -> float:
    """Oscillation rate ``sqrt(b^2 - b*kappa + kappa^2)`` of the coupled sector.

    This is the Rabi rate of the two-level subspace the z-stretched state
    explores under ``-b_t Jz + kappa Jx**2``; it vanishes only when both
    rates vanish.
    """
    return float(math.hypot(b_t - 0.5 * kappa, (math.sqrt(3.0) / 2.0) * kappa))


def extremal_time(kappa: float, b_t: float) -> float:
    """Quarter-phase time ``pi / (4 P)``, where ``sin^2(P t) = 1/2``.

    The variances of :func:`lnl_moments` are extremal later, at ``pi / (2 P)``;
    criterion 08, ``R_OPT`` and ``XI_MIN_AT_R_OPT`` pin this time.
    """
    p = precession_rate(kappa, b_t)
    if p == 0.0:
        raise ValueError("zero precession rate: b_t and kappa both vanish")
    return 0.25 * math.pi / p


def lnl_moments(kappa: float, b_t: float, t):
    """Exact moments ``(mean_jz, var_x, var_y)`` of the uniform-field dynamics.

    ``mean_jz`` is quoted for the +z-stretched branch; evolution from the
    -z-stretched state gives the same variances and the opposite
    polarization sign, which drops out of the squeezing parameters.
    """
    p = precession_rate(kappa, b_t)
    if p == 0.0:
        raise ValueError("zero precession rate: b_t and kappa both vanish")
    t = np.asarray(t, dtype=float)
    osc = np.sin(p * t) / p
    mean_jz = 1.5 * (1.0 - (kappa * osc) ** 2)
    var_x = 0.75 * (1.0 + 2.0 * kappa * b_t * osc**2)
    var_y = 0.75 * (1.0 - 2.0 * kappa * (b_t - kappa) * osc**2)
    return mean_jz, var_x, var_y


def lnl_xi(kappa: float, b_t: float, t):
    """Squeezing parameters ``(xi_x, xi_y)`` of the uniform-field dynamics."""
    mean_jz, var_x, var_y = lnl_moments(kappa, b_t, t)
    return xi_wineland(spread(var_x), mean_jz), xi_wineland(spread(var_y), mean_jz)


def xi_y_at_ts(r):
    """y squeezing at :func:`extremal_time` as a function of ``r = b_t / kappa``.

    ``2 sqrt((r^2 - r + 1)(r^2 - 2r + 2)) / (2 r^2 - 2 r + 1)``, derived for
    positive twisting strength.  Equals ``2 sqrt(2)`` at r = 0, 2 at r = 1,
    and tends to 1 from below as r grows.
    """
    r = np.asarray(r, dtype=float)
    num = 2.0 * np.sqrt((r * r - r + 1.0) * (r * r - 2.0 * r + 2.0))
    den = 2.0 * r * r - 2.0 * r + 1.0
    out = num / den
    if out.ndim == 0:
        return float(out)
    return out


def optimize_r(r_max: float = 100.0) -> tuple[float, float]:
    """Minimize :func:`xi_y_at_ts` over ``[0, r_max]`` exactly.

    ``d(xi_y_at_ts^2)/dr`` is ``4 (2r^4 - 10r^3 + 15r^2 - 14r + 4)`` over
    the positive ``(2r^2 - 2r + 1)^3``, so the stationary points are the
    quartic's two real roots: r = 0.43447... (a maximum) and
    r = 3.32211528534012... (the minimum).  Returns ``(r_opt, xi_min)``, the
    least value over the interval ends and the roots inside the interval.

    Raises ``ValueError`` unless ``r_max`` is finite and positive and
    :func:`xi_y_at_ts` is finite there (it overflows above about 1e77).
    """
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"r_max must be finite and positive, got {r_max!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(xi_y_at_ts(r_max)):
            raise ValueError(f"xi_y_at_ts overflows at r_max = {r_max!r}")
    roots = np.roots([2.0, -10.0, 15.0, -14.0, 4.0])
    r = roots.real[(roots.imag == 0.0) & (roots.real >= 0.0) & (roots.real <= r_max)]
    candidates = np.concatenate([[0.0, r_max], r])
    xi = xi_y_at_ts(candidates)
    k = int(np.argmin(xi))
    return float(candidates[k]), float(xi[k])
