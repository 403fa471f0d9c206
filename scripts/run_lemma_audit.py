#!/usr/bin/env python3
"""Brute-force lemma audit over a batch of seeded Gaussian matrices.

Usage:
    python scripts/run_lemma_audit.py [--matrices 100] [--jobs 1]

Runs `experiments.lemma_audit` on the first `--matrices` matrices (matrix i
is a unit-column 40x60 Gaussian draw seeded with 1000 + i) over `--jobs`
processes; with no flags it is acceptance criterion 5. Prints one line per
matrix as it finishes, a tally, and a final line `report sha256 <16 hex>`:
the SHA-256 of every matrix's `render()` and `margins_csv()`, in matrix
order, the same at any `--jobs`. Exits nonzero on any violated inequality
(skipped cells are listed, never counted as passes).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tsgbomp.cli import at_least_one
from tsgbomp.experiments import lemma_audit


def main() -> int:
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--matrices", type=at_least_one, default=100)
    ap.add_argument("--jobs", type=at_least_one, default=1)
    args = ap.parse_args()

    digest = hashlib.sha256()
    failures = 0
    t0 = time.time()
    for i, report in enumerate(lemma_audit(args.matrices, args.jobs)):
        digest.update((report.render() + report.margins_csv()).encode())
        status = "pass" if report.all_passed else "FAIL"
        if not report.all_passed:
            failures += 1
            sys.stdout.write(report.render())
        print(f"matrix {i}: {status}", flush=True)
    print(f"{args.matrices} matrices in {time.time() - t0:.0f}s, {failures} failures")
    print(f"report sha256 {digest.hexdigest()[:16]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
