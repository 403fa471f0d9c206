"""The one process pool behind every `jobs` argument."""

import warnings
from contextlib import contextmanager
from functools import partial

from . import blas_pin_too_late
from .signal_model import check_at_least


@contextmanager
def worker_map(jobs: int, chunksize: int = 1):
    """Yield an ordered `map(fn, items)`: the builtin one when jobs is 1,
    else that of `jobs` forked workers, which inherit this process's caches
    (the cell cache among them) instead of rebuilding them. A jobs below 1
    raises ValueError. When numpy loaded before the package pinned BLAS to
    one thread, a pool warns once per process that each worker may run a
    BLAS thread per core."""
    check_at_least(1, jobs=jobs)
    if jobs == 1:
        yield map
        return
    if blas_pin_too_late:
        # one text from one line, so the default filter shows it once
        warnings.warn(
            "numpy was imported before tsgbomp with no BLAS thread count set, so "
            "each worker may run a BLAS thread per core, for the same results; "
            "set OPENBLAS_NUM_THREADS=1 before numpy loads, or import tsgbomp first",
            RuntimeWarning,
        )
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork")) as pool:
        yield partial(pool.map, chunksize=chunksize)
