"""Spans around the package's layer boundaries, recorded from outside it.

The tracer swaps module attributes at their call sites for timing wrappers
while an op runs and puts the originals back afterwards; the package itself
is not changed.  An attribute that no longer exists is skipped, so its layer
records zero calls.  Spans are kept in memory as tuples
``(op, name, start, end, parent)``, where ``parent`` is the index of the
enclosing span or -1, and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span name).  The names are this package's layers.
TARGETS = (
    ("ohsqueeze.cli", "main", "cli"),
    ("ohsqueeze.cli", "run_series", "dynamics.run_series"),
    ("ohsqueeze.cli", "max_heisenberg_violation", "dynamics.squeeze"),
    ("ohsqueeze.dynamics", "xi_wineland", "dynamics.squeeze"),
    ("ohsqueeze.dynamics", "herm_eig", "linalg.herm_eig"),
    ("ohsqueeze.dynamics", "build_named", "hamiltonians.build"),
    ("ohsqueeze.dynamics", "build_full", "hamiltonians.build"),
    ("ohsqueeze.dynamics", "golden_section", "optimize.golden_section"),
    ("ohsqueeze.analytic", "optimal_axis_angle", "analytic"),
    ("ohsqueeze.analytic", "precession_rate", "analytic"),
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)
    out = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][2], spans[c][3]) for c in children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _size_of_times(args, kwargs) -> int:
    times = kwargs["times"] if "times" in kwargs else args[3] if len(args) > 3 else ()
    return int(np.size(times))


class Tracer:
    """Records spans and counts for the ops run between :meth:`install` and :meth:`remove`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self._op, name, start, end, parent)

        return wrapper

    def _counting_points(self, run_series):
        def counted_run_series(*args, **kwargs):
            self.counts[(self._op, "dynamics.run_series.points")] += _size_of_times(args, kwargs)
            return run_series(*args, **kwargs)

        return counted_run_series

    def _counting_evals(self, golden_section):
        def counted_golden_section(f, *args, **kwargs):
            evals = 0

            def objective(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                return golden_section(objective, *args, **kwargs)
            finally:
                self.counts[(self._op, "optimize.evals")] += evals

        return counted_golden_section

    def install(self, op: int) -> None:
        """Swap in the wrappers; spans recorded until :meth:`remove` belong to ``op``."""
        self._op = op
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            counting = self._COUNTERS.get(name)
            inner = counting(self, original) if counting else original
            setattr(module, attr, self._wrap(name, inner))

    def remove(self) -> None:
        """Put every swapped attribute back."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    _COUNTERS = {
        "dynamics.run_series": _counting_points,
        "optimize.golden_section": _counting_evals,
    }

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<layer>.calls``, ``<layer>.self_ms`` and the recorded counts."""
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self_times(self.spans)):
            op, name = span[0], span[1]
            ops[op][name + ".calls"] += 1
            ops[op][name + ".self_ms"] += 1e3 * own
        for (op, key), value in self.counts.items():
            ops[op][key] += value
        return ops

    def write(self, path) -> None:
        """Write the spans as JSON lines: op, name, start, end, parent."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
