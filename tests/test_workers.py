import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsgbomp
from tsgbomp.workers import worker_map


def _pid_of(i):
    return i, os.getpid()


class TestWorkerMap:
    def test_one_job_is_the_builtin_map(self):
        with worker_map(1) as mapper:
            assert mapper is map

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raises(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            with worker_map(jobs):
                pass

    def test_workers_return_results_in_input_order(self):
        with worker_map(2) as mapper:
            got = list(mapper(_pid_of, range(40)))
        assert [i for i, _ in got] == list(range(40))
        assert os.getpid() not in {pid for _, pid in got}

    def test_cli_import_loads_no_pool_modules(self):
        # the pool modules load only when a command asks for workers
        loaded = modules_after_cli_import()
        assert [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")] == []

    def test_cli_import_loads_only_what_ric_runs(self):
        # the solvers, the experiments and the pool helper load in the
        # commands that run them, not with the package or the parser
        loaded = modules_after_cli_import()
        assert "tsgbomp.analysis" in loaded
        assert {"tsgbomp.experiments", "tsgbomp.recovery", "tsgbomp.workers"}.isdisjoint(loaded)


def modules_after_cli_import():
    """Every module a fresh interpreter holds after `import tsgbomp.cli`."""
    code = "import sys, tsgbomp.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(tsgbomp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.split()
