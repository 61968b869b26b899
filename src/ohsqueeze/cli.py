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
``"-inf"`` and ``"nan"``.  Exit codes: 0 success, 2 for any input the
CLI or the library rejects (a ``ValueError``), 3 for any other failure.
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
from .dynamics import SCENARIO_RULES, SqueezeSeries, _stack_rows, max_heisenberg_violation
from .dynamics import run_series
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

#: Rows the table writer formats and writes at a time, in CSV and in JSON.
TABLE_CHUNK_ROWS = 1024
#: Where ``json.dumps(indent=2)`` puts the top-level ``rows`` key; a newline
#: followed by exactly two spaces cannot occur inside an encoded string.
_JSON_ROWS_KEY = '\n  "rows": '

CONVENTION_NOTE = "kappa_t = -c_const * e_t**2 / delta_t; c_const=-1 gives kappa_t > 0"


class UsageError(ValueError):
    """Bad flags, bad combinations, or a malformed config file (exit 2, as any ``ValueError``)."""


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _jsonable(value):
    """JSON-safe copy: non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
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


def _csv_spec(cell) -> str:
    """One cell's field in the CSV row template.

    A float array is formatted ``%.17g``; a scalar is its literal text with
    ``%`` escaped.
    """
    if not isinstance(cell, np.ndarray):
        return _fmt(cell).replace("%", "%%")
    return "%.17g"


def _write_csv(handle, header: list[str], blocks: list[list]) -> None:
    """Write the table in chunks of :data:`TABLE_CHUNK_ROWS` rows.

    Every row of a block goes through one ``%`` template.
    """
    handle.write(",".join(header) + "\n")
    for block in blocks:
        n = _block_rows(block)
        row = ",".join(map(_csv_spec, block))
        arrays = [cell for cell in block if isinstance(cell, np.ndarray)]
        for lo in range(0, n, TABLE_CHUNK_ROWS):
            hi = min(lo + TABLE_CHUNK_ROWS, n)
            cells = (cell[lo:hi].tolist() for cell in arrays)
            handle.write("\n".join(map(row.__mod__, zip(*cells))) + "\n")


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(_fmt(value))


def _json_cells(cell: np.ndarray, lo: int, hi: int):
    """JSON text of rows ``lo:hi`` of one float array cell, as ``json.dumps`` writes each value.

    Non-finite floats become their string sentinels.
    """
    part = cell[lo:hi]
    return map(float.__repr__ if np.isfinite(part).all() else _json_float, part.tolist())


def _json_frame(header: list[str], meta: dict) -> list[str]:
    """The table's JSON text before and after the value of its ``rows`` key."""
    payload = _jsonable(meta)
    payload["columns"] = header
    payload["rows"] = 0
    return json.dumps(payload, indent=2, sort_keys=True).split(_JSON_ROWS_KEY + "0", 1)


def _write_json_rows(handle, blocks: list[list]) -> None:
    """Write the ``rows`` array in chunks of :data:`TABLE_CHUNK_ROWS` rows.

    Every row of a block goes through one ``%s`` template laid out as
    ``json.dumps(indent=2)`` lays out a row; scalar cells are encoded once.
    A float cell that is the previous block's array reuses that chunk's texts.
    """
    sep = "["
    last = {}  # column -> (array, chunk start, chunk texts)
    for block in blocks:
        n = _block_rows(block)
        row = "\n    [\n      " + ",\n      ".join(["%s"] * len(block)) + "\n    ]"
        scalars = [
            None if isinstance(cell, np.ndarray) else json.dumps(_jsonable(cell)) for cell in block
        ]
        for lo in range(0, n, TABLE_CHUNK_ROWS):
            hi = min(lo + TABLE_CHUNK_ROWS, n)
            cells = []
            for col, (cell, text) in enumerate(zip(block, scalars)):
                prev = last.get(col)
                if text is None and not (prev and prev[0] is cell and prev[1] == lo):
                    prev = last[col] = (cell, lo, list(_json_cells(cell, lo, hi)))
                cells.append(prev[2] if text is None else itertools.repeat(text, hi - lo))
            handle.write(sep + ",".join(map(row.__mod__, zip(*cells))))
            sep = ","
    handle.write("[]" if sep == "[" else "\n  ]")


def _emit_table(args, header: list[str], blocks: list[list], meta: dict) -> None:
    """Write a table as CSV or as a JSON object with metadata.

    Each block is one run's rows: a list of cells in header order, each a
    1-D float array, or a scalar repeated down the block.  Both
    formats are written :data:`TABLE_CHUNK_ROWS` rows at a time; the JSON
    bytes are those of one ``json.dumps(indent=2, sort_keys=True)`` call.
    """
    if args.format == "csv":
        with _output(args.out) as handle:
            _write_csv(handle, header, blocks)
        return
    head, tail = _json_frame(header, meta)
    with _output(args.out) as handle:
        handle.write(head + _JSON_ROWS_KEY)
        _write_json_rows(handle, blocks)
        handle.write(tail + "\n")


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
        return analytic.MATCHED_C_CONST
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --c-const value {text!r}") from exc
    if value not in (1.0, -1.0):
        raise UsageError("--c-const must be 1 or -1")
    return int(value)


def _scenario_theta(scenario: str, theta_deg, where: str) -> float:
    """Scenario-resolved tilt angle in radians."""
    fixed, _ = SCENARIO_RULES[scenario]
    if fixed is not None:
        if theta_deg not in (None, math.degrees(fixed)):
            raise UsageError(
                f"{where}: theta is fixed at {math.degrees(fixed):g} degrees"
                f" for the {scenario} scenario"
            )
        return fixed
    if theta_deg is None:
        raise UsageError(f"{where}: the general scenario requires --theta-deg")
    # "+ 0.0" maps -0 degrees to +0.0 radians.
    return math.radians(theta_deg) + 0.0


def _field_inputs(args) -> tuple[str, dict, int]:
    """The one input mode, its lab-frame fields and the ``c_const`` in force.

    The fields are keyed as in a config file.  Reads the config file, so a
    command calls this once however many runs it resolves.
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

    fields = {}
    if mode == "config":
        fields = _read_config(args.config)
        missing = [key for key in _CONFIG_REQUIRED if key not in fields]
        if missing:
            raise UsageError(f"config {args.config} is missing {', '.join(missing)}")
    elif mode == "lab":
        if args.e_vpcm is None:
            raise UsageError("lab mode requires --e-vpcm")
        flags = {
            "delta_hz": (DEFAULT_DELTA_GHZ if args.delta_ghz is None else args.delta_ghz) * 1e9,
            "e_vpcm": args.e_vpcm,
            "b_gauss": 0.0 if args.b_gauss is None else args.b_gauss,
            "mu_b_hz_per_gauss": args.mu_b,
            "mu_e_hz_per_vpcm": args.mu_e,
        }
        fields = {key: value for key, value in flags.items() if value is not None}
    c_const = _parse_c_const(args.c_const if args.c_const is not None else fields.get("c_const"))
    return mode, fields, c_const


def _resolve_run(args, scenario: str, inputs: tuple, theta_deg=None) -> FieldParams:
    """Fields of one run from :func:`_field_inputs`.

    ``theta_deg`` (sweep-theta) overrides the flag and the config angle.
    Raises ``ValueError`` for bad fields and for --si-time without
    lab-frame inputs.  The scenario's field rules and the time scale are
    checked by :func:`run_series`, for every field before any block runs.
    """
    mode, fields, c_const = inputs
    if theta_deg is None:
        theta_deg = getattr(args, "theta_deg", None)
    if theta_deg is None:
        theta_deg = fields.get("theta_deg")
    where = f"config {args.config}" if mode == "config" else f"{mode} mode"
    theta = _scenario_theta(scenario, theta_deg, where)

    if mode != "reduced":
        lab = LabParams(
            lambda_doubling=fields["delta_hz"],
            e_field=fields["e_vpcm"],
            b_field=fields["b_gauss"],
            theta=theta,
            bohr_magneton=fields.get("mu_b_hz_per_gauss", DEFAULT_MU_B),
            dipole_moment=fields.get("mu_e_hz_per_vpcm", DEFAULT_MU_E),
        )
        params = to_reduced(lab, c_const=c_const)
    else:
        e_t = DEFAULT_E_RATIO if args.e_ratio is None else args.e_ratio
        if scenario == "ku":
            if args.r is not None or args.b_ratio is not None:
                raise UsageError("the ku scenario has no magnetic field; drop --r/--b-ratio")
            b_t = 0.0
        elif args.r is not None and args.b_ratio is not None:
            raise UsageError("--r and --b-ratio are mutually exclusive")
        elif args.b_ratio is not None:
            b_t = args.b_ratio
        else:
            b_t = (DEFAULT_R if args.r is None else args.r) * e_t**2
        params = FieldParams(delta_t=1.0, b_t=b_t, e_t=e_t, theta=theta, c_const=c_const)
    if args.si_time and mode == "reduced":
        raise UsageError("--si-time needs lab-frame inputs (lab flags or --config)")
    return params


def _parse_n_policy(text: str, scenario: str):
    """The analysis-angle policy; only ``ku`` rows depend on a fixed angle."""
    if text in ("formula", "scan"):
        return text
    if text.startswith("fixed:"):
        if scenario != "ku":
            raise UsageError(
                f"--n-policy {text}: a fixed analysis angle applies to the ku scenario only;"
                f" {scenario} emits the unrotated xi_x, xi_y"
            )
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


def _run_table(series: SqueezeSeries, si_time: bool) -> tuple[list[str], list]:
    """One run's header and cells: its time column, then its two squeezing columns."""
    if si_time:
        header, cells = ["t_seconds"], [series.times_phys / (2.0 * math.pi)]
    else:
        header, cells = ["t_dimensionless"], [series.times]
    for label, values in series.xi_pair():
        header.append(label)
        cells.append(values)
    return header, cells


def _xi_minima(series: SqueezeSeries | list[SqueezeSeries]) -> dict | list[dict]:
    """Each squeezing column's least finite value and its time (index 0 if none is finite).

    One series gives a dict; a list sharing scenario and grid length, one per series.
    """
    runs = [series] if isinstance(series, SqueezeSeries) else series
    pairs = [run.xi_pair() for run in runs]
    rows = np.arange(len(runs))
    times = _stack_rows([run.times for run in runs])
    out = [{} for _ in runs]
    for j, (label, _) in enumerate(pairs[0]):
        values = _stack_rows([pair[j][1] for pair in pairs])
        k = np.argmin(np.where(np.isfinite(values), values, np.inf), axis=1)
        for entry, value, t in zip(out, values[rows, k], times[rows, k]):
            entry[label] = {"value": value, "t_dimensionless": t}
    return out[0] if isinstance(series, SqueezeSeries) else out


def _minima_lines(prefix: str, minima: dict) -> list[str]:
    """Summary lines of one run's :func:`_xi_minima`."""
    return [
        f"{prefix}min {label} = {_fmt(rec['value'])}"
        f" at t_dimensionless = {_fmt(rec['t_dimensionless'])}"
        for label, rec in minima.items()
    ]


def cmd_simulate(args) -> int:
    n_policy = _parse_n_policy(args.n_policy, args.scenario)
    times = _time_grid(args)
    params = _resolve_run(args, args.scenario, _field_inputs(args))
    model_names = ("adiabatic", "full") if args.model == "both" else (args.model,)
    runs = {
        name: run_series(params, args.scenario, MODEL_MAP[name], times, n_policy)
        for name in model_names
    }

    tables = [_run_table(series, args.si_time) for series in runs.values()]
    header = tables[0][0]
    blocks = [cells for _, cells in tables]
    if args.model == "both":
        header = ["model", *header]
        blocks = [[name, *cells] for name, cells in zip(runs, blocks)]

    first = runs[model_names[0]]
    params_dict = vars(params)
    xi_min = {name: _xi_minima(series) for name, series in runs.items()}
    meta = {
        "command": "simulate",
        "scenario": args.scenario,
        "model": args.model,
        "n_policy": first.n_policy,
        "params": params_dict,
        "time_scale": first.time_scale,
        "xi_min": xi_min,
        "heisenberg_violation": {
            name: max_heisenberg_violation(series) for name, series in runs.items()
        },
        "convention": CONVENTION_NOTE,
    }
    _emit_table(args, header, blocks, meta)
    if args.out != "-":
        print(f"scenario={args.scenario} model={args.model} n_policy={first.n_policy}")
        print("params: " + " ".join(f"{k}={_fmt(v)}" for k, v in params_dict.items()))
        for name, minima in xi_min.items():
            for line in _minima_lines(f"{name} ", minima):
                print(line)
    return 0


def cmd_sweep_theta(args) -> int:
    try:
        theta_list = [float(part) for part in args.theta_list.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --theta-list {args.theta_list!r}") from exc
    if not theta_list:
        raise UsageError("--theta-list is empty")
    times = _time_grid(args)
    inputs = _field_inputs(args)
    fields = [_resolve_run(args, "general", inputs, theta_deg) for theta_deg in theta_list]
    runs = run_series(fields, "general", MODEL_MAP[args.model], times)
    columns = zip(theta_list, fields, runs, _xi_minima(runs), max_heisenberg_violation(runs))

    blocks = []
    summaries = []
    for theta_deg, params, series, xi_min, violation in columns:
        header, cells = _run_table(series, args.si_time)
        blocks.append([theta_deg, *cells])
        summaries.append(
            {
                "theta_deg": theta_deg,
                "params": vars(params),
                "time_scale": series.time_scale,
                "xi_min": xi_min,
                "heisenberg_violation": violation,
            }
        )
    meta = {
        "command": "sweep-theta",
        "model": args.model,
        "per_theta": summaries,
        "convention": CONVENTION_NOTE,
    }
    _emit_table(args, ["theta_deg", *header], blocks, meta)
    if args.out != "-":
        for entry in summaries:
            parts = [f"theta_deg={_fmt(entry['theta_deg'])}", *_minima_lines("", entry["xi_min"])]
            print("  ".join(parts))
    return 0


def cmd_optimize_r(args) -> int:
    if args.grid_points < 3:
        raise UsageError("--grid-points must be at least 3")
    r_opt, xi_min = analytic.optimize_r(r_max=args.r_max)
    xi_ref = analytic.xi_y_at_ts(DEFAULT_R)
    report = {
        "command": "optimize-r",
        "r_opt": r_opt,
        "xi_min": xi_min,
        "xi_at_r_3p3": xi_ref,
        "c_const": analytic.MATCHED_C_CONST,
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
        print(f"convention: c_const={analytic.MATCHED_C_CONST} ({CONVENTION_NOTE})")
    return 0


def cmd_compare(args) -> int:
    n_policy = _parse_n_policy(args.n_policy, args.scenario)
    times = _time_grid(args)
    params = _resolve_run(args, args.scenario, _field_inputs(args))
    four = run_series(params, args.scenario, "four_dim", times, n_policy)
    eight = run_series(params, args.scenario, "eight_dim", times, n_policy)

    four_header, four_cells = _run_table(four, args.si_time)
    header = four_header[:1]
    block = four_cells[:1]
    gaps = {}
    for label, col4, (_, col8) in zip(four_header[1:], four_cells[1:], eight.xi_pair()):
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
        "params": vars(params),
        "xi_min": summary,
        "max_pointwise_gap": gaps,
        "convention": CONVENTION_NOTE,
    }
    _emit_table(args, header, [block], meta)
    if args.out != "-":
        for name, minima in summary.items():
            for line in _minima_lines(f"{name} ", minima):
                print(line)
        for label, gap in gaps.items():
            print(f"max |adiabatic - full| for {label} = {_fmt(gap)}")
    return 0


def _add_run_args(sp, n_policy: str) -> None:
    sp.add_argument("--scenario", choices=SCENARIO_RULES, required=True)
    sp.add_argument(
        "--n-policy",
        default=n_policy,
        help=f"analysis angle: formula, scan, or fixed:<radians> (default {n_policy})",
    )


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
    group.add_argument(
        "--c-const",
        default=None,
        help=f"doublet mixing sign, 1 or -1 (default {analytic.MATCHED_C_CONST})",
    )


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
    _add_run_args(sp, n_policy="formula")
    sp.add_argument("--model", choices=("adiabatic", "full", "both"), default="adiabatic")
    _add_field_args(sp)
    _add_grid_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep-theta", help="field-angle sweep of the general scenario")
    sp.add_argument("--theta-list", required=True, help="comma-separated angles in degrees")
    sp.add_argument("--model", choices=("adiabatic", "full"), default="adiabatic")
    _add_field_args(sp, with_theta=False)
    _add_grid_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_sweep_theta)

    sp = sub.add_parser("optimize-r", help="optimize the uniform-field strength ratio")
    sp.add_argument("--r-max", type=float, default=100.0, help="search upper bound (default 100)")
    sp.add_argument(
        "--grid-points", type=int, default=1001, help="CSV curve resolution (default 1001)"
    )
    _add_output_args(sp, default_format="json")
    sp.set_defaults(func=cmd_optimize_r)

    sp = sub.add_parser("compare", help="four-level reduction vs full eight-level model")
    _add_run_args(sp, n_policy="scan")
    _add_field_args(sp)
    _add_grid_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # usage errors and every input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - any other failure maps to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
