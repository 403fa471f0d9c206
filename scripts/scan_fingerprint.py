#!/usr/bin/env python3
"""One SHA-256 over the exact scan's per-cell results on a fixed matrix set.

Usage:
    python scripts/scan_fingerprint.py [--quick]

Runs `analysis.pibric_table` on:
  - the benchmark's `ric` geometry (120x160, b=4, p=2, Lsep=20, K=3, R=0),
    matrix seeds 1-3 drawn as `perfbench` draws them;
  - the README's `ric` example (160x200, b=4, p=2, l=Lsep=20, K=R=1),
    matrix seeds 1-3 drawn as `tsgbomp gen-matrix --seed` draws them;
  - criterion 5's 40x60 matrices 1000-1009 in both lemma families (pseudo
    length 10 and 1), K=R=2, at cell_cap 400,000, so the (2, 2) cell of
    family A is scanned too;
  - two complex 40x60 matrices (seeds 1 and 2) in family A.
For every cell it hashes the constant's float hex, the argmax support's
text, the cell's count and whether it was skipped, and prints
`scan sha256 <16 hex>`. `--quick` takes the first matrix of each group,
a few seconds in all. The hash changes whenever a constant changes in its
last bit or an argmax moves.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tsgbomp.analysis import pibric_table
from tsgbomp.sensing import gaussian_matrix
from tsgbomp.signal_model import PibsParams, support_to_text

RIC_COLD = PibsParams(n=160, b=4, p=2, l=0, Lsep=20, K=3, R=0)
README = PibsParams(n=200, b=4, p=2, l=20, Lsep=20, K=1, R=1)
AUDIT = PibsParams.from_window(n=60, b=2, p=2, l=10, L=4, K=2, R=2)
AUDIT_CAP = 400_000  # above the (2, 2) cell's 383,802 rows


def cases(quick: bool):
    """(name, matrix, params, cell_cap) of every scan, in hash order."""
    seeds = (1,) if quick else (1, 2, 3)
    for seed in seeds:
        Phi = gaussian_matrix(120, 160, "unit", True, np.random.default_rng([seed]))
        yield f"ric_cold seed {seed}", Phi, RIC_COLD, 1_000_000
    for seed in seeds:
        Phi = gaussian_matrix(160, 200, "unit", True, np.random.default_rng(seed))
        yield f"readme seed {seed}", Phi, README, 1_000_000
    for i in range(1 if quick else 10):
        Phi = gaussian_matrix(40, 60, "unit", True, np.random.default_rng(1000 + i))
        yield f"criterion 5 matrix {1000 + i} family A", Phi, AUDIT, AUDIT_CAP
        yield f"criterion 5 matrix {1000 + i} family B", Phi, replace(AUDIT, l=1), AUDIT_CAP
    for seed in (1,) if quick else (1, 2):
        Phi = gaussian_matrix(40, 60, "unit", True, np.random.default_rng(seed),
                              complex_entries=True)
        yield f"complex seed {seed}", Phi, AUDIT, AUDIT_CAP


def fingerprint(quick: bool) -> str:
    digest = hashlib.sha256()
    for name, Phi, params, cap in cases(quick):
        digest.update(f"{name}\n".encode())
        for (k, r), stat in pibric_table(Phi, params, params.K, params.R, cap).items():
            argmax = "" if stat.argmax is None else support_to_text(stat.argmax)
            line = f"{k} {r} {stat.delta.hex()} {stat.count} {int(stat.skipped)}\n{argmax}"
            digest.update(line.encode())
    return digest.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--quick", action="store_true", help="the first matrix of each group only")
    args = ap.parse_args()
    print(f"scan sha256 {fingerprint(args.quick)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
