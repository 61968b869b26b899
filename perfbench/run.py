"""Benchmark of the ohsqueeze command line, driven in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process acts as one closed-loop client: it calls ``ohsqueeze.cli.main``
with the next op's argv only after the previous op returned and was checked.
The first op is a warm-up and is not timed; ops are then timed until their
wall times add up to ``--seconds``.  Each op writes its table to a file in a
temporary directory, and the CLI's own summary lines go to a file too.
Every op's output is checked outside the timed region (see ``oracle.py``);
an op fails if it raises, exits non-zero or fails its check.

Every time is scaled to one reference machine speed by the kernel in
``speed.py``, timed just before each op and each import probe; the run
record keeps the raw wall times and kernel times too.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time to
import ``ohsqueeze.cli`` in a fresh interpreter, numpy included),
``op_p50_ms`` (median wall time of one op), ``rows_per_s`` (median over ops
of table rows emitted per second) and ``peak_rss_mb`` (this process's
``ru_maxrss``).  ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics (see ``spans.py``), each as a median per
traced op, and ``trace.overhead_pct``, the traced ops' median wall time
against the untraced ones'.  The last line of standard output is the result
as one JSON object.  A run record (environment, per-op times) and the spans
of a traced run are written under ``.perfbench_out/``.

Self-tests: ``python3 -m pytest -q perfbench/selftests.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: About this many fresh-interpreter imports are timed for ``setup_s``, spread
#: evenly over the run so that no single slow spell of the machine sets it.
SETUP_REPEATS = 8
MIN_TIMED_OPS = 3
#: Stop starting ops after this long, so a much slower program still exits in time.
WALL_LIMIT_S = 120.0

END_TO_END = ("setup_s", "op_p50_ms", "rows_per_s", "peak_rss_mb")
PER_LAYER = (
    "cli.self_ms",
    "cli.bytes_out",
    "dynamics.run_series.calls",
    "dynamics.run_series.points",
    "dynamics.run_series.self_ms",
    "dynamics.squeeze.self_ms",
    "optimize.golden_section.calls",
    "optimize.golden_section.self_ms",
    "optimize.evals_per_point",
    "hamiltonians.build.calls",
    "hamiltonians.build.self_ms",
    "linalg.herm_eig.calls",
    "linalg.herm_eig.self_ms",
    "analytic.calls",
    "analytic.self_ms",
    "trace.op_ms",
    "trace.overhead_pct",
)
UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cli.bytes_out": "B",
    "optimize.evals_per_point": "evals/point",
    "trace.overhead_pct": "%",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ohsqueeze.cli; "
    "print(time.perf_counter() - t)"
)


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


def cap_blas_threads() -> int:
    """Cap every BLAS thread-count variable at the usable core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(nproc, int(current)) if current.isdigit() else nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "clients": 1,
        "loop": "closed",
    }


class ImportProbe:
    """Times imports of ``ohsqueeze.cli`` in fresh interpreters, at most one per interval."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._due = 0.0
        self._time_one()  # untimed: writes the bytecode caches of a fresh checkout

    def _time_one(self) -> float:
        from speed import kernel_seconds, scaled

        kernel_s = kernel_seconds()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return scaled(float(done.stdout), kernel_s)

    def maybe(self) -> None:
        """Time one import if the last one was at least an interval ago."""
        now = time.perf_counter()
        if now >= self._due:
            self.samples.append(self._time_one())
            self._due = now + self.interval_s


def run_ops(
    workload, rng: random.Random, seconds: float, tracer, tmp: Path, between_ops
) -> list[dict]:
    """Run ops until the timed ones add up to ``seconds``; one record per op.

    With a tracer, every odd-numbered op runs traced.  ``between_ops`` is
    called after each op's check, outside the timed region.
    """
    from ohsqueeze import cli
    from speed import kernel_seconds

    out_path = tmp / f"out.{workload.suffix}"
    records: list[dict] = []
    timed_s = 0.0
    started = time.perf_counter()
    while len(records) <= MIN_TIMED_OPS or timed_s < seconds:
        if len(records) > 1 and time.perf_counter() - started > WALL_LIMIT_S:
            break
        index = len(records)
        op = workload.make_op(rng, str(out_path))
        traced = tracer is not None and index % 2 == 1
        out_path.unlink(missing_ok=True)
        gc.collect()
        kernel_s = kernel_seconds()
        if traced:
            tracer.install(index)
        try:
            t0 = time.perf_counter()
            try:
                outcome = cli.main(op.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed op
                outcome = exc
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.remove()
        if outcome != 0:
            reason = f"exit {outcome!r}"
        else:
            try:
                reason = op.check(str(out_path))
            except Exception as exc:  # an unreadable output is a failed op
                reason = f"check raised {exc!r}"
        if reason is not None:
            print(f"op {index} failed: {reason}", file=sys.stderr)
        records.append(
            {
                "op": index,
                "traced": traced,
                "seconds": elapsed,
                "kernel_s": kernel_s,
                "ok": reason is None,
                "rows": op.rows if reason is None else 0,
                "bytes_out": out_path.stat().st_size if out_path.exists() else 0,
            }
        )
        if index > 0:
            timed_s += elapsed
        between_ops()
    return records


def _ms(record: dict) -> float:
    """An op's wall time in ms at reference speed."""
    from speed import scaled

    return 1e3 * scaled(record["seconds"], record["kernel_s"])


def end_to_end_metrics(timed: list[dict], setup_samples: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(_ms(r) for r in timed),
        "rows_per_s": statistics.median(1e3 * r["rows"] / _ms(r) for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(timed: list[dict], tracer) -> dict:
    from speed import scaled

    traced = [r for r in timed if r["traced"]]
    plain = [r for r in timed if not r["traced"]]
    by_op = tracer.per_op()

    def median_of(key: str) -> float:
        values = [by_op[r["op"]].get(key, 0.0) for r in traced]
        if key.endswith("_ms"):
            values = [scaled(v, r["kernel_s"]) for v, r in zip(values, traced)]
        return statistics.median(values)

    def evals_per_point(op: int) -> float:
        calls = by_op[op].get("optimize.golden_section.calls", 0.0)
        return by_op[op].get("optimize.evals", 0.0) / calls if calls else 0.0

    traced_ms = statistics.median(_ms(r) for r in traced)
    plain_ms = statistics.median(_ms(r) for r in plain)
    derived = {
        "cli.bytes_out": statistics.median(r["bytes_out"] for r in traced),
        "optimize.evals_per_point": statistics.median(evals_per_point(r["op"]) for r in traced),
        "trace.op_ms": traced_ms,
        "trace.overhead_pct": 100.0 * (traced_ms / plain_ms - 1.0),
    }
    return {name: derived[name] if name in derived else median_of(name) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ohsqueeze" / "cli.py").is_file():
        print(f"error: no ohsqueeze sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else ImportProbe(args.seconds / SETUP_REPEATS)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
        tmp = Path(tmp_name)
        with open(tmp / "cli-stdout.txt", "w") as sink, contextlib.redirect_stdout(sink):
            records = run_ops(
                workload,
                random.Random(args.seed),
                args.seconds,
                tracer,
                tmp,
                probe.maybe if probe else lambda: None,
            )

    timed = records[1:]
    if tracer is None:
        metrics = end_to_end_metrics(timed, probe.samples)
    else:
        metrics = per_layer_metrics(timed, tracer)
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
    failed = sum(not r["ok"] for r in records)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc),
        "ops": records,
        "setup_samples_s": probe.samples if probe else [],
        "metrics": metrics,
    }
    with open(OUT_DIR / f"run-{workload.name}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
