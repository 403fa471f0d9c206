"""The one process pool behind every `jobs` argument."""

from contextlib import contextmanager
from functools import partial


def check_jobs(jobs: int) -> None:
    """Raise ValueError unless jobs, a worker count, is at least 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


@contextmanager
def worker_map(jobs: int, chunksize: int = 1):
    """Yield an ordered `map(fn, items)`: the builtin one when jobs is 1,
    else that of `jobs` forked workers, which inherit this process's caches
    (the cell cache among them) instead of rebuilding them. A jobs below 1
    raises ValueError (`check_jobs`)."""
    check_jobs(jobs)
    if jobs == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork")) as pool:
        yield partial(pool.map, chunksize=chunksize)
