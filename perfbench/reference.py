"""A fixed reference computation that tracks the speed of the host.

On a shared host the same hsvar repetition runs at speeds that differ by up
to 60% over minutes (on a 2-vCPU Xeon VM, nothing else of the benchmark's
running: a probe repetition took a median 0.69 s in one run and 1.05 s in
a run three minutes later).  While an untraced repetition runs, the
benchmark times this kernel every 50 ms (about 1.5% of the time, taken out
of the repetition's) and reports ``wall_ref``, the median repetition over
the median kernel time, in which such swings largely cancel.

The kernel mixes the two kinds of work hsvar does, so that it slows down with
the host the way hsvar does: numpy reductions, fractional powers and a banded
Cholesky solve on 4096-node arrays (the solver workloads), and a pure-Python
loop over dicts, floats and CSV formatting (the sweep).  It imports nothing
from hsvar.  Do not change it: ``wall_ref`` of every commit is in its units.
"""

from __future__ import annotations

import csv
import io
import math
import signal
from time import perf_counter

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

_N = 4096
_rng = np.random.default_rng(12345)
_U = _rng.random(_N) + 0.1
_V = _rng.random(_N) + 0.1
_W = _rng.random(_N)
_band = np.vstack([np.full(_N, -0.5), np.full(_N, 2.0)])
_band[0, 0] = 0.0
_FACTOR = cholesky_banded(_band)
INTERVAL_S = 0.05


def kernel() -> float:
    """About 0.5 ms of numpy and pure-Python work."""
    return _numeric() + _python()


def _numeric() -> float:
    s = 0.0
    for _ in range(2):
        a, b = np.abs(_U), np.abs(_V)
        s += float(_W @ (a * a)) + float(_W @ (b * b))
        s += float(_W @ a ** 2.6) + float(_W @ (a ** 1.3 * b ** 1.3))
        g = np.exp(-a) * _W - b
        s += float(cho_solve_banded((_FACTOR, False), g)[0])
    return s


def _python() -> float:
    out = io.StringIO()
    writer = csv.writer(out)
    s = 0.0
    for i in range(60):
        x = 0.005 + i * 1e-3
        row = {"l1": x, "l2": 0.2 - x, "a": 1.5 + x, "b": 2.5 - x}
        critical = abs(row["a"] + row["b"] - 5.0) <= 5e-12
        case = "i" if row["l1"] >= row["l2"] else "ii"
        row["level"] = (1.0 - row["l1"] / 0.25) ** 1.25 * math.gamma(2.5)
        writer.writerow([f"{v:.6g}" for v in row.values()] + [case, critical])
        s += row["level"]
    return s + len(out.getvalue())


class Sampler:
    """Times the kernel every ``INTERVAL_S`` seconds while active.

    The kernel runs from a SIGALRM handler, so in the main thread in the
    middle of the workload, and samples the speed of the host all through a
    repetition, however long; entering it takes one sample first.  ``spent``
    is the time the samples took after that, to be taken out of the
    repetition's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        kernel()
        now = perf_counter()
        self.samples.append(now - t)
        self.spent += now - t

    def __enter__(self):
        self._tick(None, None)      # one sample per repetition at least
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
