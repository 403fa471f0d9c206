"""The one process pool behind every `jobs` argument."""

from contextlib import contextmanager
from functools import partial

from .signal_model import check_at_least


@contextmanager
def worker_map(jobs: int, chunksize: int = 1):
    """Yield an ordered `map(fn, items)`: the builtin one when jobs is 1,
    else that of `jobs` spawned workers. Each worker is a fresh interpreter
    started with this process's environment, so the one-thread BLAS pin of
    `tsgbomp/__init__.py` holds in it whatever this process imported first;
    it shares no cache with this process, and the pool costs 0.2-0.3 s to
    start. A jobs below 1 raises ValueError."""
    check_at_least(1, jobs=jobs)
    if jobs == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield partial(pool.map, chunksize=chunksize)
