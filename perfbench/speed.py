"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared machine the same op can run 20% slower, or 2x faster, for tens
of seconds at a time.  The benchmark times this kernel just before every op
and every import probe and scales the time it measures next by
``REFERENCE_S / kernel time``, so that runs made in slow and fast spells
report times at one reference speed.  The kernel does the kinds of work the
ops do -- interpreter loops over floats, ``%.17g`` formatting, JSON encoding
and a small complex ``einsum`` -- and uses nothing from the package under
test, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

#: Kernel time at the reference speed: its median on the 2-core x86_64
#: machine (Python 3.11, numpy 2.4, OpenBLAS) the benchmark was tuned on.
REFERENCE_S = 0.0055
#: The kernel time is the fastest of this many back-to-back runs, which drops
#: single scheduler hiccups.
RUNS = 3

_ROWS = np.linspace(0.0, 1.0, 1600).reshape(200, 8)
_STATES = _ROWS + 1j * _ROWS[::-1]


def _run_once() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        x = i * 1e-4
        acc += math.cos(x) * math.sin(x)
    ",".join("%.17g" % v for v in _ROWS.ravel())
    json.dumps(_ROWS.tolist())
    np.einsum("ta,tb->tab", _STATES, _STATES.conj()).sum()
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Wall time of the reference kernel: the fastest of ``RUNS`` runs."""
    return min(_run_once() for _ in range(RUNS))


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds``, measured right after a kernel time ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
