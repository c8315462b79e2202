"""The host's speed, read from fixed calibration kernels.

The host this benchmark was built on runs slower by up to 1.8x in phases
that last from seconds to minutes, and thread CPU time slows with it (see
README.md).  No choice of repeats inside a run of some 30 s removes a
phase that outlasts the run.  So every timed operation is bracketed by
samples of a calibration kernel, a fixed piece of plain NumPy that calls
no library code, and its time is scaled to the reference speed:

    scaled = elapsed * REFERENCE_S[kernel] / (mean of the two samples)

REFERENCE_S is what each kernel took in the host's fast phases, so a
scaled time reads as milliseconds at that speed.  A change to the library
moves scaled times as it moves raw ones; a change of the host's speed
moves the kernel too and cancels out.

    blas    a dense 300 x 300 solve and a 1200 x 1200 product: the cost
            profile of the mesh workload's shifted solves and derivatives
    mixed   the blas kernel plus about as long of small-vector NumPy calls
            and float arithmetic from a Python loop: the cost profile of
            N = 50 steps, step control and scalar loops
    stream  the blas kernel plus a product with a 2400 x 2400 matrix
            (46 MB, read from memory each time): the cost profile of the
            mesh workload, whose N = 2400 operator is streamed by every
            product of its CG solve and of the set-up's power iteration

The host's slow phases slow interpreter-bound code more than BLAS-bound
code (about 1.8x against 1.5x).  A kernel of either kind alone tracked
the other workloads less well than the mix: in 60 s probes the repeats
of an input, scaled, spread by 12-28% with the interpreter part alone
and by 9-19% with the mix (see README.md).  Memory bandwidth changes
apart from CPU speed: with the blas kernel alone, mesh's ops_per_s read
12% lower and its set-up 30% longer in a later set of runs, while its
cache-sized inputs held steady.  Set-up of the other workloads
(process start, imports, building small inputs) slows about as much as
the blas kernel.  workloads.KERNEL names the kernel of each workload's
operations and of its set-up.

Samples are taken between operations at most every SAMPLE_INTERVAL_S of
wall time; each operation is scaled by the mean of the samples before
and after it.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds per kernel call in the host's fast phases (see README.md).
REFERENCE_S = {"blas": 1.40e-3, "mixed": 2.80e-3, "stream": 5.0e-3}
REPEATS = 3  # a sample is the fastest of this many kernel calls
SAMPLE_INTERVAL_S = 0.1
INTERP_LOOPS = 1000  # the mixed kernel's Python loop, about as long as blas


class Kernel:
    def __init__(self, name: str):
        self.reference_s = REFERENCE_S[name]
        rng = np.random.Generator(np.random.PCG64(0))
        s = rng.standard_normal((300, 300))
        self._spd = s @ s.T + 300.0 * np.eye(300)
        self._rhs = np.ones(300)
        self._dense = rng.standard_normal((1200, 1200))
        self._x = rng.standard_normal(1200)
        self._call = {"blas": self._blas, "mixed": self._mixed,
                      "stream": self._stream}[name]
        if name == "stream":
            self._big = rng.standard_normal((2400, 2400))
            self._y = rng.standard_normal(2400)

    @staticmethod
    def _interp():
        v = np.ones(50)
        s = 0.0
        for i in range(INTERP_LOOPS):
            v = v * 0.999 + 0.001
            s += float(v[i % 50]) * 0.5
        return s

    def _blas(self):
        np.linalg.solve(self._spd, self._rhs)
        return self._dense @ self._x

    def _mixed(self):
        self._interp()
        return self._blas()

    def _stream(self):
        self._big @ self._y
        return self._blas()

    def sample(self) -> float:
        """Seconds of the fastest of REPEATS kernel calls."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._call()
            best = min(best, perf_counter() - t0)
        return best

    def factor(self, before: float, after: float) -> float:
        """Scale from raw seconds to seconds at the reference speed."""
        return self.reference_s / (0.5 * (before + after))
