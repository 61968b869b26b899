"""Command line interface.

Subcommands:

* ``simulate``    one scenario over a time grid (adiabatic, full, or both)
* ``sweep-theta`` the field-angle scenario over a list of angles
* ``optimize-r``  field-ratio optimization of the uniform-field minimum
* ``compare``     four-level reduction vs full eight-level model, side by side

Field inputs come in exactly one of three modes: reduced dimensionless
flags (--e-ratio, --r / --b-ratio), lab-frame flags (--e-vpcm, --b-gauss,
--delta-ghz, --mu-e, --mu-b), or a key=value config file (--config).
The time axis is dimensionless (|kappa_t| t for the twisting scenario,
P t otherwise); ``--si-time`` switches it to seconds, which needs
lab-frame inputs.  Output is deterministic: fixed column order per
command and ``\\n`` line endings.  CSV prints floats with 17 significant
digits (``inf``, ``-inf`` and ``nan`` as such) and comma separators.  JSON
sorts keys, prints floats as Python's shortest round-trip ``repr`` (for
example ``0.20625``) and non-finite values as the strings ``"inf"``,
``"-inf"`` and ``"nan"``.  Exit codes: 0 success, 2 usage error,
3 computation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, analytic
from .dynamics import SqueezeSeries, max_heisenberg_violation, run_series, time_scale
from .units import FieldParams, LabParams, to_reduced

DEFAULT_E_RATIO = 0.25
DEFAULT_R = 3.3
DEFAULT_DELTA_GHZ = 1.667
DEFAULT_MU_B = 1.3996e6  # Hz per Gauss
DEFAULT_MU_E = 8.331e5  # Hz per (V/cm)

#: CLI model names to library model names.
MODEL_MAP = {"adiabatic": "four_dim", "full": "eight_dim"}

CONFIG_KEYS = frozenset(
    {
        "delta_hz",
        "e_vpcm",
        "b_gauss",
        "theta_deg",
        "mu_b_hz_per_gauss",
        "mu_e_hz_per_vpcm",
        "c_const",
    }
)
_CONFIG_REQUIRED = ("delta_hz", "e_vpcm", "b_gauss")

#: Rows the CSV writer formats and writes at a time.
CSV_CHUNK_ROWS = 1024

CONVENTION_NOTE = "kappa_t = -c_const * e_t**2 / delta_t; c_const=-1 gives kappa_t > 0"


class UsageError(Exception):
    """Bad flags, bad combinations, or a malformed config file."""


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _jsonable(value):
    """JSON-safe copy: non-finite floats become strings, arrays become lists."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else _fmt(value)
    return value


@contextlib.contextmanager
def _output(path: str):
    """The open output: standard output for ``-``, else the file at ``path``."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="") as handle:
        yield handle


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _output(path) as handle:
        handle.write(text)


def _block_rows(block: list) -> int:
    return next(cell.size for cell in block if isinstance(cell, np.ndarray))


def _csv_cells(cell, lo: int, hi: int):
    """Text of rows ``lo:hi`` of one cell, formatted as :func:`_fmt` would.

    Lazy, so each cell's text lives only until its row is joined.
    """
    if not isinstance(cell, np.ndarray):
        return itertools.repeat(_fmt(cell), hi - lo)
    values = cell[lo:hi].tolist()
    if cell.dtype.kind == "f":
        return map("%.17g".__mod__, values)
    return map(_fmt, values)


def _write_csv(handle, header: list[str], blocks: list[list]) -> None:
    """Write the table in chunks of :data:`CSV_CHUNK_ROWS` rows."""
    handle.write(",".join(header) + "\n")
    for block in blocks:
        n = _block_rows(block)
        for lo in range(0, n, CSV_CHUNK_ROWS):
            hi = min(lo + CSV_CHUNK_ROWS, n)
            rows = zip(*(_csv_cells(cell, lo, hi) for cell in block))
            handle.write("\n".join(map(",".join, rows)) + "\n")


def _json_cells(cell, n: int) -> list:
    """JSON values of one cell; non-finite floats become their string sentinels."""
    if not isinstance(cell, np.ndarray):
        return [_jsonable(cell)] * n
    values = cell.tolist()
    if cell.dtype.kind == "f" and not np.isfinite(cell).all():
        return [v if math.isfinite(v) else _fmt(v) for v in values]
    return values


def _emit_table(args, header: list[str], blocks: list[list], meta: dict) -> None:
    """Write a table as CSV or as a JSON object with metadata.

    Each block is one run's rows: a list of cells in header order, each a
    1-D numeric or string array, or a scalar repeated down the block.
    """
    if args.format == "csv":
        with _output(args.out) as handle:
            _write_csv(handle, header, blocks)
        return
    payload = _jsonable(meta)
    payload["columns"] = header
    rows = payload["rows"] = []
    for block in blocks:
        n = _block_rows(block)
        rows.extend(map(list, zip(*(_json_cells(cell, n) for cell in block))))
    _write_json(args.out, payload)


def _theta_rad(theta_deg: float) -> float:
    """Degrees to radians, exact at the quadrant angles 0, 90, 180."""
    if theta_deg == 0.0:
        return 0.0
    if theta_deg == 90.0:
        return 0.5 * math.pi
    if theta_deg == 180.0:
        return math.pi
    return math.radians(theta_deg)


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad number {value!r} for {key}") from exc
    return out


def _parse_c_const(text) -> int:
    if text in (None, ""):
        return -1
    try:
        value = int(float(text))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --c-const value {text!r}") from exc
    if value not in (1, -1):
        raise UsageError("--c-const must be 1 or -1")
    return value


def _scenario_theta(scenario: str, theta_deg, where: str) -> float:
    """Scenario-resolved tilt angle in radians."""
    if scenario == "ku":
        if theta_deg not in (None, 0.0):
            raise UsageError(f"{where}: theta is fixed at 0 for the ku scenario")
        return 0.0
    if scenario == "lnl":
        if theta_deg not in (None, 90.0):
            raise UsageError(f"{where}: theta is fixed at 90 degrees for the lnl scenario")
        return 0.5 * math.pi
    if theta_deg is None:
        raise UsageError(f"{where}: the general scenario requires --theta-deg")
    return _theta_rad(float(theta_deg))


def _resolve_fields(args, scenario: str, theta_deg_override=None) -> tuple[FieldParams, bool]:
    """Build FieldParams from exactly one input mode.

    Returns ``(params, lab_mode)``; ``lab_mode`` gates --si-time.
    """
    lab_values = [args.e_vpcm, args.b_gauss, args.delta_ghz, args.mu_e, args.mu_b]
    reduced_values = [args.e_ratio, args.r, args.b_ratio]
    modes = []
    if args.config is not None:
        modes.append("config")
    if any(v is not None for v in lab_values):
        modes.append("lab")
    if any(v is not None for v in reduced_values):
        modes.append("reduced")
    if len(modes) > 1:
        raise UsageError(f"field modes are mutually exclusive, got {' and '.join(modes)}")
    mode = modes[0] if modes else "reduced"

    theta_deg = theta_deg_override
    if theta_deg is None:
        theta_deg = getattr(args, "theta_deg", None)

    if mode == "reduced":
        c_const = _parse_c_const(args.c_const)
        e_t = DEFAULT_E_RATIO if args.e_ratio is None else float(args.e_ratio)
        theta = _scenario_theta(scenario, theta_deg, "reduced mode")
        if scenario == "ku":
            if args.r is not None or args.b_ratio is not None:
                raise UsageError("the ku scenario has no magnetic field; drop --r/--b-ratio")
            b_t = 0.0
        else:
            if args.r is not None and args.b_ratio is not None:
                raise UsageError("--r and --b-ratio are mutually exclusive")
            if args.b_ratio is not None:
                b_t = float(args.b_ratio)
            else:
                ratio = DEFAULT_R if args.r is None else float(args.r)
                b_t = ratio * e_t**2
        try:
            params = FieldParams(delta_t=1.0, b_t=b_t, e_t=e_t, theta=theta, c_const=c_const)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return params, False

    if mode == "config":
        cfg = _read_config(args.config)
        missing = [key for key in _CONFIG_REQUIRED if key not in cfg]
        if missing:
            raise UsageError(f"config {args.config} is missing {', '.join(missing)}")
        if args.c_const is not None:
            c_const = _parse_c_const(args.c_const)
        elif "c_const" in cfg:
            c_const = _parse_c_const(cfg["c_const"])
        else:
            c_const = -1
        if theta_deg is None:
            theta_deg = cfg.get("theta_deg")
        theta = _scenario_theta(scenario, theta_deg, f"config {args.config}")
        delta_hz = cfg["delta_hz"]
        e_vpcm = cfg["e_vpcm"]
        b_gauss = cfg["b_gauss"]
        mu_b = cfg.get("mu_b_hz_per_gauss", DEFAULT_MU_B)
        mu_e = cfg.get("mu_e_hz_per_vpcm", DEFAULT_MU_E)
    else:
        c_const = _parse_c_const(args.c_const)
        if args.e_vpcm is None:
            raise UsageError("lab mode requires --e-vpcm")
        theta = _scenario_theta(scenario, theta_deg, "lab mode")
        delta_hz = (DEFAULT_DELTA_GHZ if args.delta_ghz is None else float(args.delta_ghz)) * 1e9
        e_vpcm = float(args.e_vpcm)
        b_gauss = 0.0 if args.b_gauss is None else float(args.b_gauss)
        mu_b = DEFAULT_MU_B if args.mu_b is None else float(args.mu_b)
        mu_e = DEFAULT_MU_E if args.mu_e is None else float(args.mu_e)

    try:
        lab = LabParams(
            lambda_doubling=delta_hz,
            e_field=e_vpcm,
            b_field=b_gauss,
            theta=theta,
            bohr_magneton=mu_b,
            dipole_moment=mu_e,
        )
        params = to_reduced(lab, c_const=c_const)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if scenario == "ku" and params.b_t != 0.0:
        raise UsageError("the ku scenario has no magnetic field; set b_gauss = 0")
    return params, True


def _parse_n_policy(text: str):
    if text in ("formula", "scan"):
        return text
    if text.startswith("fixed:"):
        try:
            return float(text[len("fixed:"):])
        except ValueError as exc:
            raise UsageError(f"bad fixed analysis angle in {text!r}") from exc
    raise UsageError(f"--n-policy must be formula, scan, or fixed:<radians>, got {text!r}")


def _time_grid(args) -> np.ndarray:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise UsageError("--t-max must be finite and positive")
    return np.linspace(0.0, args.t_max, args.points)


def _check_time_scale(params: FieldParams, scenario: str, t_max: float) -> None:
    """Reject fields whose time scale cannot carry the grid (exit 2, before any run)."""
    try:
        scale = time_scale(params, scenario)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not math.isfinite(t_max / scale):
        raise UsageError(f"time grid overflows: --t-max {t_max!r} at time scale {scale!r}")


def _check_si_time(args, lab_mode: bool) -> None:
    if args.si_time and not lab_mode:
        raise UsageError("--si-time needs lab-frame inputs (lab flags or --config)")


def _time_column(series: SqueezeSeries, si_time: bool) -> tuple[str, np.ndarray]:
    if si_time:
        return "t_seconds", series.times_phys / (2.0 * math.pi)
    return "t_dimensionless", series.times


def _series_cells(series: SqueezeSeries, si_time: bool) -> list:
    """One run's table cells: its time column, then its two squeezing columns."""
    return [_time_column(series, si_time)[1]] + [col for _, col in series.xi_pair()]


def _params_dict(params: FieldParams) -> dict:
    return {
        "delta_t": params.delta_t,
        "b_t": params.b_t,
        "e_t": params.e_t,
        "theta": params.theta,
        "c_const": params.c_const,
        "kappa_t": params.kappa_t,
    }


def _xi_minima(series: SqueezeSeries) -> dict:
    out = {}
    for label, values in series.xi_pair():
        finite = np.where(np.isfinite(values), values, np.inf)
        k = int(np.argmin(finite))
        out[label] = {"value": values[k], "t_dimensionless": series.times[k]}
    return out


def _minima_lines(prefix: str, series: SqueezeSeries) -> list[str]:
    lines = []
    for label, rec in _xi_minima(series).items():
        lines.append(
            f"{prefix}min {label} = {_fmt(rec['value'])}"
            f" at t_dimensionless = {_fmt(rec['t_dimensionless'])}"
        )
    return lines


def cmd_simulate(args) -> int:
    params, lab_mode = _resolve_fields(args, args.scenario)
    _check_si_time(args, lab_mode)
    n_policy = _parse_n_policy(args.n_policy)
    times = _time_grid(args)
    _check_time_scale(params, args.scenario, args.t_max)
    model_names = ("adiabatic", "full") if args.model == "both" else (args.model,)
    runs = [
        (name, run_series(params, args.scenario, MODEL_MAP[name], times, n_policy))
        for name in model_names
    ]

    first = runs[0][1]
    header = [_time_column(first, args.si_time)[0]] + [label for label, _ in first.xi_pair()]
    blocks = [_series_cells(series, args.si_time) for _, series in runs]
    if args.model == "both":
        header = ["model"] + header
        blocks = [[name] + block for (name, _), block in zip(runs, blocks)]

    meta = {
        "command": "simulate",
        "scenario": args.scenario,
        "model": args.model,
        "n_policy": first.n_policy,
        "params": _params_dict(params),
        "time_scale": first.time_scale,
        "xi_min": {name: _xi_minima(series) for name, series in runs},
        "heisenberg_violation": {
            name: max_heisenberg_violation(series) for name, series in runs
        },
        "convention": CONVENTION_NOTE,
    }
    _emit_table(args, header, blocks, meta)
    if args.out != "-":
        print(f"scenario={args.scenario} model={args.model} n_policy={first.n_policy}")
        print("params: " + " ".join(f"{k}={_fmt(v)}" for k, v in _params_dict(params).items()))
        for name, series in runs:
            for line in _minima_lines(f"{name} ", series):
                print(line)
    return 0


def cmd_sweep_theta(args) -> int:
    if args.scenario != "general":
        raise UsageError("sweep-theta only runs the general scenario")
    try:
        theta_list = [float(part) for part in args.theta_list.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --theta-list {args.theta_list!r}") from exc
    if not theta_list:
        raise UsageError("--theta-list is empty")
    if args.model == "both":
        raise UsageError("sweep-theta runs one model; pick adiabatic or full")
    times = _time_grid(args)
    angles = []
    for theta_deg in theta_list:
        params, lab_mode = _resolve_fields(args, "general", theta_deg_override=theta_deg)
        _check_si_time(args, lab_mode)
        _check_time_scale(params, "general", args.t_max)
        angles.append((theta_deg, params))

    blocks = []
    summaries = []
    for theta_deg, params in angles:
        series = run_series(params, "general", MODEL_MAP[args.model], times)
        blocks.append([theta_deg] + _series_cells(series, args.si_time))
        summaries.append(
            {
                "theta_deg": theta_deg,
                "params": _params_dict(params),
                "time_scale": series.time_scale,
                "xi_min": _xi_minima(series),
                "heisenberg_violation": max_heisenberg_violation(series),
            }
        )
    header = ["theta_deg", _time_column(series, args.si_time)[0]]
    header += [label for label, _ in series.xi_pair()]
    meta = {
        "command": "sweep-theta",
        "model": args.model,
        "per_theta": summaries,
        "convention": CONVENTION_NOTE,
    }
    _emit_table(args, header, blocks, meta)
    if args.out != "-":
        for entry in summaries:
            parts = [f"theta_deg={_fmt(entry['theta_deg'])}"]
            for label, rec in entry["xi_min"].items():
                parts.append(
                    f"min {label} = {_fmt(rec['value'])}"
                    f" at t_dimensionless = {_fmt(rec['t_dimensionless'])}"
                )
            print("  ".join(parts))
    return 0


def cmd_optimize_r(args) -> int:
    if args.grid_points < 3:
        raise UsageError("--grid-points must be at least 3")
    if not (math.isfinite(args.r_max) and args.r_max > 0.0):
        raise UsageError("--r-max must be finite and positive")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError("--tol must be finite and positive")
    r_opt, xi_min = analytic.optimize_r(r_max=args.r_max, tol=args.tol)
    xi_ref = analytic.xi_y_at_ts(DEFAULT_R)
    report = {
        "command": "optimize-r",
        "r_opt": r_opt,
        "xi_min": xi_min,
        "xi_at_r_3p3": xi_ref,
        "c_const": -1,
        "convention": CONVENTION_NOTE,
    }
    if args.format == "json":
        _write_json(args.out, _jsonable(report))
    else:
        r_grid = np.linspace(0.0, args.r_max, args.grid_points)
        with _output(args.out) as handle:
            _write_csv(handle, ["r", "xi_y_ts"], [[r_grid, analytic.xi_y_at_ts(r_grid)]])
    if args.out != "-":
        print(f"r_opt = {_fmt(r_opt)}")
        print(f"xi_min = {_fmt(xi_min)}")
        print(f"xi at r=3.3 = {_fmt(xi_ref)}")
        print(f"convention: c_const=-1 ({CONVENTION_NOTE})")
    return 0


def cmd_compare(args) -> int:
    params, lab_mode = _resolve_fields(args, args.scenario)
    _check_si_time(args, lab_mode)
    if args.model != "both":
        raise UsageError("compare always runs both models; drop --model")
    n_policy = _parse_n_policy(args.n_policy)
    times = _time_grid(args)
    _check_time_scale(params, args.scenario, args.t_max)
    four = run_series(params, args.scenario, "four_dim", times, n_policy)
    eight = run_series(params, args.scenario, "eight_dim", times, n_policy)

    time_name, tcol = _time_column(four, args.si_time)
    header = [time_name]
    block = [tcol]
    gaps = {}
    for (label, col4), (_, col8) in zip(four.xi_pair(), eight.xi_pair()):
        header.extend([f"{label}_adiabatic", f"{label}_full"])
        block.extend([col4, col8])
        # Summary gap over the squeezing band only: near a polarization zero
        # both curves spike to arbitrarily large values and the pointwise
        # difference is meaningless.  The CSV keeps the raw columns.
        both = np.isfinite(col4) & np.isfinite(col8) & (col4 <= 10.0) & (col8 <= 10.0)
        gaps[label] = float(np.max(np.abs(col4[both] - col8[both]))) if both.any() else math.inf
    summary = {"adiabatic": _xi_minima(four), "full": _xi_minima(eight)}
    meta = {
        "command": "compare",
        "scenario": args.scenario,
        "n_policy": four.n_policy,
        "params": _params_dict(params),
        "xi_min": summary,
        "max_pointwise_gap": gaps,
        "convention": CONVENTION_NOTE,
    }
    _emit_table(args, header, [block], meta)
    if args.out != "-":
        for name, series in (("adiabatic", four), ("full", eight)):
            for line in _minima_lines(f"{name} ", series):
                print(line)
        for label, gap in gaps.items():
            print(f"max |adiabatic - full| for {label} = {_fmt(gap)}")
    return 0


def _add_field_args(sp, with_theta: bool = True) -> None:
    group = sp.add_argument_group("fields (pick one mode)")
    group.add_argument("--config", default=None, metavar="PATH", help="key=value config file")
    group.add_argument("--e-ratio", type=float, default=None, help="reduced: e_t/delta_t")
    group.add_argument("--r", type=float, default=None, help="reduced: b_t/|kappa_t|")
    group.add_argument("--b-ratio", type=float, default=None, help="reduced: b_t/delta_t")
    group.add_argument("--e-vpcm", type=float, default=None, help="lab: E field, V/cm")
    group.add_argument("--b-gauss", type=float, default=None, help="lab: B field, Gauss")
    group.add_argument("--delta-ghz", type=float, default=None, help="lab: doublet splitting, GHz")
    group.add_argument("--mu-e", type=float, default=None, help="lab: dipole coupling, Hz/(V/cm)")
    group.add_argument("--mu-b", type=float, default=None, help="lab: magnetic coupling, Hz/Gauss")
    if with_theta:
        group.add_argument("--theta-deg", type=float, default=None, help="field angle, degrees")
    group.add_argument("--c-const", default=None, help="doublet mixing sign, 1 or -1 (default -1)")


def _add_grid_args(sp) -> None:
    sp.add_argument("--points", type=int, default=2001, help="time-grid points (default 2001)")
    sp.add_argument(
        "--t-max", type=float, default=math.pi, help="dimensionless grid end (default pi)"
    )
    sp.add_argument(
        "--si-time", action="store_true", help="time axis in seconds (lab-frame inputs only)"
    )


def _add_output_args(sp, default_format="csv") -> None:
    sp.add_argument("--out", default="-", metavar="PATH", help="output path ('-' = stdout)")
    sp.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help=f"output format (default {default_format})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohsqueeze",
        description="Spin squeezing of a field-dressed OH ground-state doublet.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one scenario over a time grid")
    sp.add_argument("--scenario", choices=("ku", "lnl", "general"), required=True)
    sp.add_argument("--model", choices=("adiabatic", "full", "both"), default="adiabatic")
    sp.add_argument(
        "--n-policy",
        default="formula",
        help="analysis angle: formula, scan, or fixed:<radians> (default formula)",
    )
    _add_field_args(sp)
    _add_grid_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep-theta", help="field-angle sweep of the general scenario")
    sp.add_argument("--scenario", choices=("ku", "lnl", "general"), default="general")
    sp.add_argument("--theta-list", required=True, help="comma-separated angles in degrees")
    sp.add_argument("--model", choices=("adiabatic", "full", "both"), default="adiabatic")
    _add_field_args(sp, with_theta=False)
    _add_grid_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_sweep_theta)

    sp = sub.add_parser("optimize-r", help="optimize the uniform-field strength ratio")
    sp.add_argument("--r-max", type=float, default=100.0, help="search upper bound (default 100)")
    sp.add_argument("--tol", type=float, default=1e-8, help="refinement tolerance (default 1e-8)")
    sp.add_argument(
        "--grid-points", type=int, default=1001, help="CSV curve resolution (default 1001)"
    )
    _add_output_args(sp, default_format="json")
    sp.set_defaults(func=cmd_optimize_r)

    sp = sub.add_parser("compare", help="four-level reduction vs full eight-level model")
    sp.add_argument("--scenario", choices=("ku", "lnl", "general"), required=True)
    sp.add_argument("--model", choices=("adiabatic", "full", "both"), default="both")
    sp.add_argument(
        "--n-policy",
        default="scan",
        help="analysis angle: formula, scan, or fixed:<radians> (default scan)",
    )
    _add_field_args(sp)
    _add_grid_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - numeric/IO failures map to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
