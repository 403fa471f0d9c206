"""Two-stage generalized block OMP: recovery algorithms, restricted-isometry
diagnostics over structured supports, and Monte Carlo experiments.

The package loads none of its modules: import the one you use
(`tsgbomp.analysis`, `tsgbomp.experiments`, ...), so that a command pays
only for the code it runs."""

import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# True when numpy loaded before this package while no BLAS thread variable
# was set: the pin below then comes too late, and `workers.worker_map` warns.
blas_pin_too_late = "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_THREADS)

# One BLAS thread per process unless the caller chose a count (effective
# only before numpy loads): every `--jobs N` forks N workers, and a thread
# per core in each oversubscribes the cores, for identical results.
for _var in _BLAS_THREADS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
