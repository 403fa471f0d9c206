"""Two-stage generalized block OMP: recovery algorithms, restricted-isometry
diagnostics over structured supports, and Monte Carlo experiments.

The package loads none of its modules: import the one you use
(`tsgbomp.analysis`, `tsgbomp.experiments`, ...), so that a command pays
only for the code it runs."""

import os

# One BLAS thread per process unless the caller chose a count. The pin takes
# effect in a process only if numpy has not loaded there yet. The workers
# behind every `--jobs N` are spawned fresh with this environment, so it
# holds in each of them whatever their parent imported first; a BLAS thread
# per core in each worker oversubscribes the cores, for identical results.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
