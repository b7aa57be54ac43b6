"""Machine-speed calibration: two fixed kernels timed between the ops of a run
and after each setup.

On a shared machine the speed of this process drifts over seconds to
minutes, as neighbouring processes come and go; interpreted Python moves far
more than LAPACK does (on a 2-vCPU VM the python kernel below flips between
about 4 ms and 7.7 ms, the LAPACK one by a few percent).  Two kernels that do
not touch multiwell measure that drift: an interpreted bisection that builds
small frozen dataclasses (the style of the library's closed-form code) and a
LAPACK tridiagonal eigensolve (the style of its finite-difference solver).
The speed factor of a stretch of time is

    F = (median python kernel / PYTHON_REF_S) ** s
        * (median lapack kernel / LAPACK_REF_S) ** (1 - s)

over the kernel samples taken in it, with s the python share of the timed
code.  An op's time is divided by F over the samples around it (the one
before it, the one after it and the one before that), with s the workload's
python_share; a setup's time by F over samples taken right after it in the
same process.  The speed moves in phases of a few seconds, so a factor for
the whole run would put a run's median in whichever phase happened to hold
half its ops.  The kernels do not depend on the program under test, so F
has the same distribution on every commit: a python share that fits the
timed code badly adds noise to the normalized times but cannot bias a
comparison.  fit_shares.py re-derives the shares from recorded runs.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Kernel times at the reference speed (2-vCPU x86_64 VM, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread), so normalized op times read as
# seconds on that machine.
PYTHON_REF_S = 7.5e-3
LAPACK_REF_S = 8.5e-3
LAPACK_POINTS = 4001


@dataclass(frozen=True)
class _Levels:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    spring: float


def _levels(x: float, n: int) -> _Levels:
    return _Levels(tuple((2 * k + 1) * x for k in range(n + 1)),
                   tuple(x * x + k for k in range(n + 1)), math.sqrt(x))


def python_kernel() -> float:
    root = 0.0
    for k in range(40):
        lo, hi = 0.0, 3.0 + k * 1e-3
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lv = _levels(mid, 3)
            if lv.lower[3] - lv.upper[2] + lv.spring > 0.0:
                hi = mid
            else:
                lo = mid
        root += lo
    return root


_DIAG = 2.0 + np.linspace(0.0, 1.0, LAPACK_POINTS) ** 2
_OFF = np.full(LAPACK_POINTS - 1, -1.0)


def lapack_kernel() -> float:
    values, _ = eigh_tridiagonal(_DIAG, _OFF, select="i", select_range=(0, 4),
                                 check_finite=False, lapack_driver="stebz")
    return float(values[0])


def speed_factor(python_s: list[float], lapack_s: list[float],
                 python_share: float) -> float:
    """F of the docstring over the given kernel samples."""
    return ((statistics.median(python_s) / PYTHON_REF_S) ** python_share
            * (statistics.median(lapack_s) / LAPACK_REF_S) ** (1.0 - python_share))


class Calibration:
    def __init__(self, python_share: float):
        self.python_share = python_share
        self.python_s: list[float] = []
        self.lapack_s: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        python_kernel()
        t1 = time.perf_counter()
        lapack_kernel()
        t2 = time.perf_counter()
        self.python_s.append(t1 - t0)
        self.lapack_s.append(t2 - t1)

    def factor(self, before: int) -> float:
        """Speed factor F for an op that ran between samples `before` and
        `before + 1`."""
        window = slice(max(0, before - 1), before + 2)
        return speed_factor(self.python_s[window], self.lapack_s[window],
                            self.python_share)
