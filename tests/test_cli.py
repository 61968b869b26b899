"""Command-line interface, exercised in process through cli.main."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import reference

from ohsqueeze import cli, dynamics
from ohsqueeze.units import FieldParams

# Frozen from the first run of the default twisting simulation (2001 points
# to pi at the closed-form analysis angle): the grid minimum of xi_y.
SIMULATE_KU_MIN = 0.7616969138400342


#: ku at e/delta = 1.5: t / |kappa_t| is finite, but t w and 2 kappa t are not.
PHASE_OVERFLOW = (
    "simulate", "--scenario", "ku", "--e-ratio", "1.5", "--t-max", "1e308",
    "--points", "3", "--format", "json",
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, convert=float):
    k = header.index(name)
    return [convert(row[k]) for row in rows]


def test_simulate_ku_defaults(capsys):
    code, out, err = run_cli(capsys, "simulate", "--scenario", "ku")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t_dimensionless", "xi_y", "xi_z"]
    assert len(rows) == 2001
    xi_y = column(header, rows, "xi_y")
    assert abs(min(xi_y) - SIMULATE_KU_MIN) < 1e-12
    t = column(header, rows, "t_dimensionless")
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(math.pi, rel=1e-15)


def test_simulate_round_trips_through_csv_text(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "ku", "--points", "11", "--t-max", "1.0"
    )
    assert code == 0
    header, rows = parse_csv(out)
    values = np.array(column(header, rows, "xi_y"))
    # 17 significant digits round-trip doubles exactly
    again = np.array([float("%.17g" % v) for v in values])
    assert np.array_equal(values, again)


def test_simulate_without_drive_is_flat(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "ku", "--e-ratio", "0", "--points", "51"
    )
    assert code == 0
    header, rows = parse_csv(out)
    xi_y = column(header, rows, "xi_y")
    assert all(abs(v - 1.0) < 1e-12 for v in xi_y)


def test_simulate_lnl_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "lnl", "--format", "json", "--points", "101"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["t_dimensionless", "xi_x", "xi_y"]
    assert len(payload["rows"]) == 101
    assert payload["params"]["b_t"] == pytest.approx(0.20625, abs=1e-15)
    assert payload["params"]["kappa_t"] == pytest.approx(0.0625, abs=1e-15)
    assert payload["params"]["c_const"] == -1
    assert payload["scenario"] == "lnl"
    assert "xi_min" in payload and "convention" in payload


def test_simulate_both_models_stack_rows(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "ku", "--model", "both", "--points", "21"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["model", "t_dimensionless", "xi_y", "xi_z"]
    labels = column(header, rows, "model", convert=str)
    assert labels[:21] == ["adiabatic"] * 21
    assert labels[21:] == ["full"] * 21
    assert len(rows) == 42


def test_sweep_theta_quadrant_matches_lnl_rows(capsys):
    code_l, out_l, _ = run_cli(
        capsys, "simulate", "--scenario", "lnl", "--points", "201"
    )
    code_s, out_s, _ = run_cli(
        capsys,
        "sweep-theta",
        "--theta-list",
        "90",
        "--points",
        "201",
    )
    assert code_l == 0 and code_s == 0
    lnl_rows = out_l.strip().splitlines()[1:]
    sweep_rows = out_s.strip().splitlines()[1:]
    assert len(sweep_rows) == len(lnl_rows) == 201
    assert all(s == "90," + l for s, l in zip(sweep_rows, lnl_rows))


def test_sweep_theta_multiple_angles(capsys):
    code, out, _ = run_cli(
        capsys, "sweep-theta", "--theta-list", "90,85", "--points", "11", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "theta_deg"
    assert len(payload["rows"]) == 22
    assert [entry["theta_deg"] for entry in payload["per_theta"]] == [90.0, 85.0]


def test_cli_output_is_deterministic(capsys):
    args = ("simulate", "--scenario", "general", "--theta-deg", "37.5", "--points", "101")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_optimize_r_json_report(capsys):
    code, out, _ = run_cli(capsys, "optimize-r")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "optimize-r"
    assert payload["r_opt"] == pytest.approx(3.322115, abs=1e-4)
    assert payload["xi_min"] == pytest.approx(0.908595, abs=1e-4)
    assert payload["xi_at_r_3p3"] == pytest.approx(0.908601, abs=1e-4)
    assert payload["c_const"] == -1


def test_optimize_r_csv_curve(capsys):
    code, out, _ = run_cli(capsys, "optimize-r", "--format", "csv", "--grid-points", "41")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "xi_y_ts"]
    assert len(rows) == 41
    xi = column(header, rows, "xi_y_ts")
    assert xi[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_compare_reduced_vs_full(capsys, tmp_path):
    out_path = tmp_path / "compare.csv"
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--scenario",
        "ku",
        "--e-ratio",
        "0.01",
        "--points",
        "51",
        "--t-max",
        "1.0",
        "--out",
        str(out_path),
    )
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["t_dimensionless", "xi_y_adiabatic", "xi_y_full", "xi_z_adiabatic", "xi_z_full"]
    assert len(rows) == 51
    assert "min xi_y" in out


def test_config_file_with_si_time(capsys, tmp_path):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text(
        "# lab-frame inputs\n"
        "delta_hz = 1.667e9\n"
        "e_vpcm = 1000\n"
        "b_gauss = 0\n"
    )
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "ku",
        "--config",
        str(cfg),
        "--si-time",
        "--points",
        "11",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "t_seconds"
    assert payload["rows"][0][0] == 0.0
    assert payload["rows"][1][0] > 0.0
    # delta_t is half the doubling; e_t = 0.4 * mu_e * E
    assert payload["params"]["delta_t"] == pytest.approx(0.5 * 1.667e9, rel=1e-12)
    assert payload["params"]["e_t"] == pytest.approx(0.4 * cli.DEFAULT_MU_E * 1000, rel=1e-12)


def test_config_c_const_flag_override(capsys, tmp_path):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("delta_hz = 1.667e9\ne_vpcm = 1000\nb_gauss = 0\nc_const = 1\n")
    base = ("simulate", "--scenario", "ku", "--config", str(cfg), "--points", "5", "--format", "json")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(out)["params"]["c_const"] == 1
    code, out, _ = run_cli(capsys, *base, "--c-const=-1")
    assert code == 0
    assert json.loads(out)["params"]["c_const"] == -1


@pytest.mark.parametrize(
    "argv",
    [
        # field input modes are mutually exclusive
        ("simulate", "--scenario", "ku", "--e-ratio", "0.2", "--e-vpcm", "100"),
        # the twisting-only scenario takes no field ratio
        ("simulate", "--scenario", "ku", "--r", "3.3"),
        # general needs an explicit angle
        ("simulate", "--scenario", "general"),
        # lnl pins theta at 90 degrees
        ("simulate", "--scenario", "lnl", "--theta-deg", "45"),
        # si-time is a lab-frame notion
        ("simulate", "--scenario", "ku", "--si-time"),
        # bad analysis-angle policy
        ("simulate", "--scenario", "ku", "--n-policy", "sideways"),
        ("simulate", "--scenario", "ku", "--n-policy", "fixed:abc"),
        # grid validation
        ("simulate", "--scenario", "ku", "--points", "1"),
        ("simulate", "--scenario", "ku", "--t-max", "0"),
        # c_const is a sign
        ("simulate", "--scenario", "ku", "--c-const", "2"),
        # sweep-theta constraints
        ("sweep-theta", "--theta-list", ""),
        ("sweep-theta", "--theta-list", "10,abc"),
        # optimize-r guards
        ("optimize-r", "--format", "csv", "--grid-points", "2"),
        ("optimize-r", "--r-max", "0"),
        # non-finite or non-positive numbers
        ("simulate", "--scenario", "ku", "--t-max", "inf"),
        ("simulate", "--scenario", "ku", "--t-max", "nan"),
        ("optimize-r", "--r-max", "inf"),
        # a finite --r-max at which xi_y_at_ts overflows to nan
        ("optimize-r", "--r-max", "1e200"),
        ("optimize-r", "--r-max", "1e200", "--format", "csv", "--grid-points", "3"),
        # finite fields whose time scale breaks the grid
        ("simulate", "--scenario", "ku", "--e-ratio", "1e-155", "--points", "3"),
        ("simulate", "--scenario", "lnl", "--e-ratio", "0"),
        # a nonzero drive whose kappa_t underflows to 0.0
        ("simulate", "--scenario", "ku", "--e-ratio", "1e-170", "--points", "3"),
        # every sweep angle goes through the same field checks
        ("sweep-theta", "--theta-list", "90", "--si-time"),
        # lab-frame fields: the twisting-only scenario takes no magnetic field
        ("simulate", "--scenario", "ku", "--e-vpcm", "100", "--b-gauss", "5"),
        # a fixed analysis angle must be finite
        ("simulate", "--scenario", "ku", "--n-policy", "fixed:inf", "--points", "3"),
        ("simulate", "--scenario", "ku", "--n-policy", "fixed:nan", "--points", "3"),
        ("simulate", "--scenario", "ku", "--n-policy", "fixed:1e400", "--points", "3"),
        # c_const is exactly one sign, not a number that truncates to one
        ("simulate", "--scenario", "ku", "--c-const", "1.5", "--points", "3"),
        ("simulate", "--scenario", "ku", "--c-const", "inf", "--points", "3"),
        # the field angle lies in [0, 180] degrees in every input mode
        ("simulate", "--scenario", "general", "--theta-deg", "500", "--points", "3"),
        ("simulate", "--scenario", "general", "--theta-deg", "-10", "--points", "3"),
        ("sweep-theta", "--theta-list", "720", "--points", "3"),
        ("sweep-theta", "--theta-list", "90,180.5", "--points", "3"),
        # a grid whose largest phase (t w, or 2 kappa t) overflows, in both models
        (*PHASE_OVERFLOW, "--model", "adiabatic"),
        (*PHASE_OVERFLOW, "--model", "full"),
        # a fixed analysis angle changes only ku rows
        ("simulate", "--scenario", "lnl", "--n-policy", "fixed:0.3", "--points", "3"),
        ("compare", "--scenario", "general", "--theta-deg", "30", "--n-policy", "fixed:0.3"),
        # numpy rejects a grid this long before it allocates anything
        ("simulate", "--scenario", "ku", "--points", "10000000000000000000"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_time_grid_overflow_fails_without_table(capsys, tmp_path):
    # --t-max is finite but dividing it by |kappa_t| overflows, or the grid's
    # phases do: a usage error instead of nan rows
    out = tmp_path / "out.csv"
    for argv in (
        ("simulate", "--scenario", "ku", "--t-max", "1e308", "--points", "5"),
        (*PHASE_OVERFLOW, "--model", "adiabatic"),
        (*PHASE_OVERFLOW, "--model", "full"),
    ):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert "overflows" in err
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert not out.exists()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "simulate_ku_both_41.csv",
            ("simulate", "--scenario", "ku", "--model", "both", "--points", "41"),
        ),
        ("compare_ku_41.csv", ("compare", "--scenario", "ku", "--points", "41")),
        (
            "simulate_lnl_both_21.json",
            ("simulate", "--scenario", "lnl", "--model", "both", "--points", "21",
             "--format", "json"),
        ),
        (
            "sweep_theta_30_90_full_11.json",
            ("sweep-theta", "--theta-list", "30,90", "--model", "full", "--points", "11",
             "--format", "json"),
        ),
        (
            "sweep_theta_30_90_adiabatic_11.csv",
            ("sweep-theta", "--theta-list", "30,90", "--model", "adiabatic", "--points", "11"),
        ),
        ("optimize_r_11.csv", ("optimize-r", "--format", "csv", "--grid-points", "11")),
    ],
)
def test_output_matches_golden_bytes(tmp_path, capsys, name, argv):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


#: 45 angles from 0 to 180 degrees, 0, 90 and 180 among them.  At 51
#: points a block holds 40 fields, so a sweep over them spans two blocks.
THETA_45 = ",".join(f"{180 * k / 44:g}" for k in range(45))
TWO_BLOCK_SWEEP = ("sweep-theta", "--theta-list", THETA_45, "--model", "full", "--points", "51")


@pytest.mark.parametrize(
    "flags, sha256",
    [
        # SHA-256 of the output before the per-block build, summaries and
        # shared time-column texts; the bytes must not move
        (
            ("--format", "json", "--e-ratio", "0.2", "--r", "3.3"),
            "0ee8f122051238d28228418cd90374ac0d5465ff34a5f6ed0eca03c15f477588",
        ),
        (
            ("--e-vpcm", "1000", "--b-gauss", "20", "--si-time", "--format", "csv"),
            "b1d903e805f57522336906253b92df8d197a63fc0e128ab9f565c9c0d53c8aee",
        ),
    ],
)
def test_two_block_sweep_matches_pinned_bytes(tmp_path, capsys, flags, sha256):
    out = tmp_path / "sweep"
    assert cli.main([*TWO_BLOCK_SWEEP, *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_sweep_theta_builds_once_per_block(capsys, monkeypatch):
    sizes = []
    real = dynamics.build_full

    def counted(params):
        sizes.append(len(params))
        return real(params)

    monkeypatch.setattr(dynamics, "build_full", counted)
    code, _, _ = run_cli(capsys, *TWO_BLOCK_SWEEP, "--format", "json")
    assert code == 0
    assert sizes == [40, 5]


def _with_columns(series, **columns):
    return dataclasses.replace(series, **{k: np.array(v, dtype=float) for k, v in columns.items()})


def minima_floats(minima: dict) -> list[str]:
    """Labels and values of one run's xi minima, floats as exact hex text (nan included)."""
    return [
        f"{label} {float(rec['value']).hex()} {float(rec['t_dimensionless']).hex()}"
        for label, rec in minima.items()
    ]


def test_batched_summaries_match_per_run_route_on_sentinels():
    fields = [FieldParams(1.0, 0.2, 0.25, math.radians(d), -1) for d in (30, 60, 90, 120)]
    base = dynamics.run_series(fields, "general", "eight_dim", np.linspace(0.0, 2.0, 5))
    inf, nan = math.inf, math.nan
    runs = [
        _with_columns(base[0], xi_x=[inf, 0.9, inf, 0.8, 0.8], xi_y=[nan, inf, 0.7, nan, 0.7]),
        # no finite value: the minimum falls at index 0, as one run's argmin puts it
        _with_columns(base[1], xi_x=[inf] * 5, xi_y=[nan, inf, nan, inf, -inf]),
        # a nan pairing maximum never wins, as in Python's max(0.0, ...)
        _with_columns(base[2], mean_jx=[nan, 0.0, 0.0, 0.0, 0.0]),
        _with_columns(base[3], mean_jz_n=[0.0, 3.0, 0.0, 0.0, 0.0]),
    ]
    minima = cli._xi_minima(runs)
    violations = dynamics.max_heisenberg_violation(runs)
    assert minima_floats(minima[1])[0] == f"xi_x {inf.hex()} {0.0.hex()}"
    assert violations[3] > 0.0
    assert len(minima) == len(violations) == len(runs)
    for run, got, violation in zip(runs, minima, violations):
        assert minima_floats(got) == minima_floats(reference.xi_minima(run))
        assert minima_floats(cli._xi_minima(run)) == minima_floats(got)
        assert type(violation) is float
        assert violation == reference.max_heisenberg_violation(run)
        assert dynamics.max_heisenberg_violation(run) == violation


def test_c_const_is_exactly_a_sign(capsys, tmp_path):
    base = ("simulate", "--scenario", "ku", "--points", "3", "--format", "json")
    code, out, _ = run_cli(capsys, *base, "--c-const", "1.0")
    assert code == 0
    assert json.loads(out)["params"]["c_const"] == 1
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("delta_hz = 1.667e9\ne_vpcm = 1000\nb_gauss = 0\nc_const = 1.5\n")
    code, out, err = run_cli(capsys, "simulate", "--scenario", "ku", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "c-const must be 1 or -1" in err


def test_unknown_config_key_and_duplicates(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta_hz = 1e9\ne_vpcm = 10\nb_gauss = 0\nvoltage = 7\n")
    code, _, err = run_cli(capsys, "simulate", "--scenario", "ku", "--config", str(bad))
    assert code == 2
    assert "unknown key" in err
    dup = tmp_path / "dup.cfg"
    dup.write_text("delta_hz = 1e9\ndelta_hz = 2e9\ne_vpcm = 10\nb_gauss = 0\n")
    code, _, err = run_cli(capsys, "simulate", "--scenario", "ku", "--config", str(dup))
    assert code == 2
    assert "duplicate key" in err
    missing = tmp_path / "missing.cfg"
    missing.write_text("delta_hz = 1e9\n")
    code, _, err = run_cli(capsys, "simulate", "--scenario", "ku", "--config", str(missing))
    assert code == 2
    assert "missing" in err


def test_argparse_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--scenario", "warp"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # sweep-theta only runs the general scenario and one model at a time
        ("sweep-theta", "--scenario", "ku", "--theta-list", "90"),
        ("sweep-theta", "--scenario", "general", "--theta-list", "90"),
        ("sweep-theta", "--theta-list", "90", "--model", "both"),
        # compare always runs both models and takes no --model
        ("compare", "--scenario", "ku", "--model", "adiabatic"),
        ("compare", "--scenario", "ku", "--model", "both"),
        # optimize-r is exact and has no refinement tolerance
        ("optimize-r", "--tol", "nan"),
        ("optimize-r", "--tol", "-1"),
        ("optimize-r", "--tol", "0"),
        ("optimize-r", "--tol", "1e-8"),
    ],
)
def test_argparse_rejects_removed_options(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("si_time", [False, True])
def test_config_file_matches_lab_flags(capsys, tmp_path, si_time):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("delta_hz = 1.667e9\ne_vpcm = 1000\nb_gauss = 20\ntheta_deg = 40\n")
    base = ["simulate", "--scenario", "general", "--points", "9", "--format", "json"]
    if si_time:
        base.append("--si-time")
    code_c, out_c, _ = run_cli(capsys, *base, "--config", str(cfg))
    code_l, out_l, _ = run_cli(
        capsys, *base, "--delta-ghz", "1.667", "--e-vpcm", "1000", "--b-gauss", "20",
        "--theta-deg", "40",
    )
    assert code_c == code_l == 0
    assert out_c == out_l
    assert json.loads(out_c)["columns"][0] == ("t_seconds" if si_time else "t_dimensionless")


def test_sweep_theta_negative_zero_angle_is_positive_zero(capsys):
    code, out, _ = run_cli(capsys, "sweep-theta", "--theta-list", "-0", "--format", "json")
    assert code == 0
    theta = json.loads(out)["per_theta"][0]["params"]["theta"]
    assert theta == 0.0
    assert math.copysign(1.0, theta) == 1.0


@pytest.mark.parametrize("exc, exit_code", [(RuntimeError, 3), (ValueError, 2)])
def test_internal_failure_exits_three(capsys, monkeypatch, exc, exit_code):
    # a ValueError from the library is a rejected input; anything else is a failure
    def boom(*args, **kwargs):
        raise exc("numerical failure")

    monkeypatch.setattr(cli, "run_series", boom)
    code, _, err = run_cli(capsys, "simulate", "--scenario", "ku")
    assert code == exit_code
    assert "error: numerical failure" in err


def test_jsonable_uses_string_sentinels():
    assert cli._jsonable(math.inf) == "inf"
    assert cli._jsonable(-math.inf) == "-inf"
    assert cli._jsonable(math.nan) == "nan"
    assert cli._jsonable({"a": [np.float64(1.5), math.inf]}) == {"a": [1.5, "inf"]}


def test_sweep_theta_runs_the_kernel_once(capsys, monkeypatch):
    calls = []
    real = cli.run_series

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_series", counted)
    code, out, _ = run_cli(
        capsys, "sweep-theta", "--model", "full", "--theta-list", "0,30,90,180", "--points", "5"
    )
    assert code == 0
    assert len(calls) == 1
    assert len(calls[0][0]) == 4
    assert len(out.strip().splitlines()) == 1 + 4 * 5


def test_sweep_theta_reads_config_once(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("delta_hz = 1.667e9\ne_vpcm = 1000\nb_gauss = 20\n")
    reads = []
    real = cli._read_config

    def counted(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_read_config", counted)
    base = ("sweep-theta", "--config", str(cfg), "--points", "3")
    code, out, _ = run_cli(capsys, *base, "--theta-list", "0,45,90,135,180")
    assert code == 0
    assert reads == [str(cfg)]
    assert len(out.strip().splitlines()) == 1 + 5 * 3
    # every angle is still checked, the last one too
    reads.clear()
    code, out, err = run_cli(capsys, *base, "--theta-list", "0,45,181")
    assert code == 2
    assert out == ""
    assert "theta must lie in [0, pi]" in err
    assert reads == [str(cfg)]
