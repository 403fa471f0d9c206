#!/usr/bin/env python3
"""Brute-force lemma audit over a batch of seeded Gaussian matrices.

Usage:
    python scripts/run_lemma_audit.py [--matrices 100] [--seed 1000]

With no flags this is acceptance criterion 5: matrix i is a unit-column
40x60 Gaussian matrix drawn with seed 1000 + i, audited at K = R = 2 with
the suite's 60 support samples and 25/10/40 sandwich, projected and
inner-product draws. Prints one line per matrix, a tally, and a final line
`report sha256 <16 hex>`: the SHA-256 of every matrix's `render()` and
`margins_csv()`, in matrix order. Exits nonzero on any violated inequality
(skipped cells are listed, never counted as passes).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tsgbomp.analysis import verify_lemmas
from tsgbomp.sensing import gaussian_matrix
from tsgbomp.signal_model import PibsParams


def main() -> int:
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--matrices", type=int, default=100)
    ap.add_argument("--m", type=int, default=40)
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()

    params = PibsParams.from_window(n=args.n, b=2, p=2, l=10, L=4, K=2, R=2)
    digest = hashlib.sha256()
    failures = 0
    t0 = time.time()
    for i in range(args.matrices):
        rng = np.random.default_rng(args.seed + i)
        Phi = gaussian_matrix(args.m, args.n, "unit", True, rng)
        report = verify_lemmas(
            Phi, params, 2, 2, rng,
            support_samples=60, draws_sandwich=25,
            draws_projected=10, draws_innerproduct=40,
        )
        digest.update((report.render() + report.margins_csv()).encode())
        status = "pass" if report.all_passed else "FAIL"
        if not report.all_passed:
            failures += 1
            sys.stdout.write(report.render())
        print(f"matrix {i}: {status}")
    print(f"{args.matrices} matrices in {time.time() - t0:.0f}s, {failures} failures")
    print(f"report sha256 {digest.hexdigest()[:16]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
