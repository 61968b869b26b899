"""Self-tests of the benchmark: span arithmetic, metric names, oracle checks.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftests.py
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ohsqueeze import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_of_a_nested_tree():
    tree = [
        (0, "root", 0.0, 10.0, -1),
        (0, "a", 1.0, 4.0, 0),
        (0, "a.child", 2.0, 3.0, 1),
        (0, "c", 5.0, 9.0, 0),
        (0, "d", 8.0, 11.0, 0),  # overlaps c and runs past the root's end
        (1, "other_op", 20.0, 21.5, -1),
    ]
    # root: children cover [1, 4] + [5, 10] = 8 of its 10.
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0, 1.5])


def test_tracer_counts_layers_and_skips_missing_attributes(monkeypatch, tmp_path):
    monkeypatch.setattr(
        spans,
        "TARGETS",
        spans.TARGETS
        + (("ohsqueeze.dynamics", "no_such_function", "gone"), ("no_such_module", "f", "gone")),
    )
    original_main = cli.main
    tracer = spans.Tracer()
    tracer.install(7)
    try:
        rc = cli.main(["compare", "--scenario", "ku", "--points", "11", "--out", str(tmp_path / "o")])
    finally:
        tracer.remove()
    assert rc == 0
    assert cli.main is original_main
    op = tracer.per_op()[7]
    assert op["cli.calls"] == 1
    assert op["dynamics.run_series.calls"] == 2
    assert op["dynamics.run_series.points"] == 22
    assert op["optimize.golden_section.calls"] == 22
    assert op["optimize.evals"] >= 22
    assert "gone.calls" not in op
    total = sum(v for k, v in op.items() if k.endswith(".self_ms"))
    cli_span = next(s for s in tracer.spans if s[1] == "cli")
    assert total == pytest.approx(1e3 * (cli_span[3] - cli_span[2]))


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    assert sorted(declared_e2e) == sorted(run.END_TO_END)
    assert sorted(declared_layer) == sorted(run.PER_LAYER)
    for name in declared_e2e + declared_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


def test_metric_dicts_cover_the_declared_names():
    timed = [
        {"op": i, "traced": i % 2 == 1, "seconds": 0.1, "kernel_s": 0.005, "rows": 10, "bytes_out": 5}
        for i in range(1, 5)
    ]
    assert list(run.end_to_end_metrics(timed, [0.2])) == list(run.END_TO_END)
    assert list(run.per_layer_metrics(timed, spans.Tracer())) == list(run.PER_LAYER)


def _run_op(make_op, tmp_path, suffix, **sizes):
    out = str(tmp_path / f"out.{suffix}")
    op = make_op(random.Random(3), out, **sizes)
    assert cli.main(op.argv) == 0
    assert op.check(out) is None
    return op, out


def _edit_csv_cell(path, row, col, scale):
    lines = Path(path).read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[row + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "row, col",
    [(40, 2), (101 + 40, 3)],  # an adiabatic xi_y cell, a full-model xi_z cell
)
def test_trajectory_check_rejects_a_perturbed_row(tmp_path, row, col):
    op, out = _run_op(workloads.long_trajectory, tmp_path, "csv", points=101)
    _edit_csv_cell(out, row, col, 1.0 + 1e-6)
    assert op.check(out) is not None


@pytest.mark.parametrize("col", [1, 2, 3, 4])
def test_compare_check_rejects_a_perturbed_row(tmp_path, col):
    op, out = _run_op(workloads.scan_compare, tmp_path, "csv", points=101)
    _edit_csv_cell(out, 60, col, 1.0 + 1e-6)
    assert op.check(out) is not None


def _edit_json(path, edit):
    payload = json.loads(Path(path).read_text())
    edit(payload)
    Path(path).write_text(json.dumps(payload))


def _scale_cell(payload):
    payload["rows"][25][2] *= 1.0 + 1e-6


def _drop_row(payload):
    del payload["rows"][-1]


def _violate_heisenberg(payload):
    payload["per_theta"][2]["heisenberg_violation"] = 1e-6


@pytest.mark.parametrize("edit", [_scale_cell, _drop_row, _violate_heisenberg])
def test_theta_map_check_rejects_a_perturbed_payload(tmp_path, edit):
    op, out = _run_op(workloads.theta_map, tmp_path, "json", points=11, n_angles=5)
    _edit_json(out, edit)
    assert op.check(out) is not None
