"""The one process pool behind every `jobs` argument."""

from contextlib import contextmanager
from functools import partial

from .signal_model import check_at_least


@contextmanager
def worker_map(jobs: int, chunksize: int = 1):
    """Yield an ordered `map(fn, items)`: the builtin one when jobs is 1,
    else that of `jobs` forked workers, which inherit this process's caches
    (the cell cache among them) instead of rebuilding them. A jobs below 1
    raises ValueError."""
    check_at_least(1, jobs=jobs)
    if jobs == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork")) as pool:
        yield partial(pool.map, chunksize=chunksize)
