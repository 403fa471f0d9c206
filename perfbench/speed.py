"""Machine-speed probe: a fixed reference kernel that gives every timing at
reference speed.

On a shared 2-core virtual machine each CPU switches, every few seconds
and independently of the other, between its normal speed and a spell in
which the same code runs up to 1.8 times slower, as other tenants load the
host. Raw wall times of one program therefore differ by a quarter between
runs minutes apart. The reference kernel below uses only numpy and Python,
never `tsgbomp`, and mixes what the workloads do: an SVD least-squares
solve, a batch of small symmetric eigensolves, a fancy-index gather and a
loop of tuple and dict operations. The benchmark runs it between
operations; a change to `tsgbomp` moves the operations and not the kernel,
while a slow spell moves both.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

# Median time of the kernel on an idle 2.1 GHz Xeon vCPU with numpy 2.4.6
# and single-threaded OpenBLAS, the fast state of the machine above. Times
# at reference speed are wall times on such a machine while it is idle.
REFERENCE_S = 1.45e-3

# A slow spell slows the kernel more than the workloads: between the fast
# and the slow state the kernel's time grew 1.73-1.80 times while a curve
# round grew 1.44 times and a lemma_audit matrix or a ric_cold run 1.30
# times, that is by the kernel's factor to the power 0.67, 0.50 and 0.47.
# Each workload therefore raises the slowdown below to its own power
# (`sensitivity` in workloads.py).

# timed kernels per probe
REPS = 7

# bound at import, so that the traced run's wrappers never see the probe
_lstsq = np.linalg.lstsq
_eigvalsh = np.linalg.eigvalsh


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)  # the kernel's inputs never change
        self.A = rng.standard_normal((160, 40))
        self.y = rng.standard_normal(160)
        B = rng.standard_normal((40, 12, 12))
        self.B = B + B.transpose(0, 2, 1)
        self.G = rng.standard_normal((300, 300))
        self.idx = rng.integers(0, 300, size=(300, 12))

    def _kernel(self) -> None:
        _lstsq(self.A, self.y, rcond=None)
        _eigvalsh(self.B)
        self.G[self.idx[:, :, None], self.idx[:, None, :]].sum()
        counts: dict[int, int] = {}
        for i in range(4000):
            key = (i, i + 1, i & 7)
            counts[key[2]] = counts.get(key[2], 0) + len(key)
        for _ in itertools.combinations(range(18), 3):
            pass

    def slowdown(self) -> float:
        """How many times slower than at reference speed the machine runs
        the kernel now: the median of REPS timed kernels, after one untimed
        one, over REFERENCE_S."""
        self._kernel()
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / REFERENCE_S
