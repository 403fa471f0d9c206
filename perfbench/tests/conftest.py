import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"

for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run in an empty directory; child processes find the package and the
    benchmark modules through PYTHONPATH, as under run.py."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(SRC), str(BENCH)]))
    return tmp_path
