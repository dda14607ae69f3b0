"""Host-speed calibration units.

On a shared host the speed of this process drifts by up to a third over
tens of seconds, and differently for interpreter-bound and LAPACK-bound
code.  After every request the run times one calibration unit: a fixed
piece of work shaped like the workload's own (complex arithmetic in a
pure-Python loop, that plus argument parsing and float formatting, or a
tridiagonal assembly and LAPACK eigensolve), with no coxlab in it.  Each latency is then scaled by the unit's reference time
over the rolling median of the units around it, so times read as
milliseconds at a fixed host speed.  A change to coxlab moves the
requests and not the units; host drift moves both.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh_tridiagonal

WINDOW = 31  # requests per rolling median


@dataclass(frozen=True)
class Unit:
    name: str
    reference_s: float  # nominal duration; sets the scale of reported times
    work: Callable[[], None]

    def time(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def _interpreter_work() -> None:
    # No numpy here: under contention from other tenants, numpy's small-array
    # calls slowed by up to twice as much as the interpreter-bound workloads.
    z = 0j
    for k in range(400):
        z = z * 0.999 + cmath.exp(1j * k * 0.01) * math.tanh(0.001 * k)


def _cli_work() -> None:
    _interpreter_work()  # cli requests mix parsing and formatting with scalar work
    p = argparse.ArgumentParser(add_help=False)
    for i in range(28):
        p.add_argument(f"--opt-{i}", type=float, default=None)
    args = p.parse_args(["--opt-3", "1.5", "--opt-7", "2.25"])
    rows = [["%.17g" % (math.sin(i) * 1e3), "%.17g" % math.cos(i)] for i in range(60)]
    json.dumps({"rows": rows, "args": vars(args)}, sort_keys=True)
    "\n".join(",".join(r) for r in rows)


def _tridiagonal_work() -> None:
    n = 600
    h = 8.0 / n
    c = (np.arange(n) + 0.5) * h
    f = np.arange(n + 1) * h
    d = (f[:-1] + f[1:]) / (h * h * c) + ((1.0 - c * c) ** 2) / (c * c)
    e = -f[1:-1] / (h * h * np.sqrt(c[:-1] * c[1:]))
    eigh_tridiagonal(d, e, select="i", select_range=(0, 2))


INTERPRETER = Unit("interpreter", 1.2e-4, _interpreter_work)
CLI = Unit("cli", 7e-4, _cli_work)
TRIDIAGONAL = Unit("tridiagonal", 1e-3, _tridiagonal_work)


def speed_factors(unit: Unit, times) -> np.ndarray:
    """unit.reference_s over the rolling median of the timed units."""
    half = min(WINDOW, len(times)) // 2
    padded = np.pad(np.asarray(times, dtype=float), (half, half), mode="edge")
    rolling = np.median(sliding_window_view(padded, 2 * half + 1), axis=1)
    return unit.reference_s / rolling
