"""The benchmark's workloads: seeded CLI argument lists and their checks.

Each op draws its inputs from the workload's seeded generator: an
``--e-ratio`` in [0.1, 0.3], and for the field-angle map a sorted list of
angles in (1, 179) degrees.  Sizes are fixed, so the work an op does does not
depend on the seed.  Why each workload is in the benchmark:

* ``long_trajectory`` -- one long time trace of both models in CSV.  The
  per-point kernel (state table, density matrix, moments) and per-cell CSV
  formatting do nearly all the work; the optimizer is not used, and memory
  grows with ``--points`` only here.  50,001 points (25 times the default
  grid) keep an op near one second, short enough for the speed reference
  timed just before it to hold for its whole length.
* ``scan_compare`` -- the four-vs-eight-level comparison with the default
  ``scan`` analysis angle.  The per-point Python golden-section search
  dominates and the output is small, so it shows a closed-form angle and is
  the control for changes to the output layer.
* ``theta_map`` -- a field-angle map: many short eight-level runs written as
  JSON.  Fixed per-run cost (build, eigh, validation, squeezing extraction)
  and the JSON writer dominate, so batching over parameters and the JSON path
  show here while the per-point kernel does little.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import oracle

TRAJECTORY_POINTS = 50001
COMPARE_POINTS = 2001
MAP_POINTS = 51
MAP_ANGLES = 181
MAP_R = 3.3


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv, the table rows it emits, and its check."""

    argv: list[str]
    rows: int
    check: Callable[[str], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suffix: str
    make_op: Callable[[random.Random, str], Op]


def _e_ratio(rng: random.Random) -> float:
    return round(rng.uniform(0.1, 0.3), 6)


def long_trajectory(rng: random.Random, out: str, points: int = TRAJECTORY_POINTS) -> Op:
    e = _e_ratio(rng)
    argv = ["simulate", "--scenario", "ku", "--model", "both", "--points", str(points)]
    argv += ["--e-ratio", repr(e), "--out", out]
    check = functools.partial(oracle.check_trajectory, e_ratio=e, points=points)
    return Op(argv, 2 * points, check)


def scan_compare(rng: random.Random, out: str, points: int = COMPARE_POINTS) -> Op:
    e = _e_ratio(rng)
    argv = ["compare", "--scenario", "ku", "--points", str(points)]
    argv += ["--e-ratio", repr(e), "--out", out]
    return Op(argv, points, functools.partial(oracle.check_compare, e_ratio=e, points=points))


def theta_map(
    rng: random.Random, out: str, points: int = MAP_POINTS, n_angles: int = MAP_ANGLES
) -> Op:
    e = _e_ratio(rng)
    angles = sorted(round(rng.uniform(1.0, 179.0), 6) for _ in range(n_angles))
    argv = ["sweep-theta", "--model", "full", "--points", str(points), "--format", "json"]
    argv += ["--e-ratio", repr(e), "--r", repr(MAP_R)]
    argv += ["--theta-list", ",".join(map(repr, angles)), "--out", out]
    check = functools.partial(
        oracle.check_theta_map, e_ratio=e, points=points, angles=angles, r=MAP_R
    )
    return Op(argv, n_angles * points, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_trajectory",
            "50,001-point two-model time trace in CSV: the per-point kernel and CSV "
            "formatting dominate; no optimizer",
            "csv",
            long_trajectory,
        ),
        Workload(
            "scan_compare",
            "four- vs eight-level comparison with the scan angle policy: the per-point "
            "golden-section search dominates and the output is small",
            "csv",
            scan_compare,
        ),
        Workload(
            "theta_map",
            "181-angle eight-level field-angle map in JSON: fixed per-run cost (build, "
            "eigh, squeezing) and the JSON writer dominate",
            "json",
            theta_map,
        ),
    )
}
