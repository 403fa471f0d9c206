#!/usr/bin/env python3
"""Run the four phase-transition curves of scripts/configs/*.cfg (m in
{120, 160}, p in {1, 2}) and write one CSV per configuration, named
curve_n{n}_m{m}_b{b}_p{p}_L{L}.csv.

Usage:
    python scripts/run_phase_transition.py [--trials N] [--jobs 2] [--out-dir results]

Each curve runs at its config's master seed 20260808. --trials replaces the
configs' own 1000 trials, the scale of the published curves; --trials 200
gives exactly the curves of acceptance criteria 1-3, which run the
fig_m160_p2, fig_m160_p1 and fig_m120_p2 configs at that scale.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tsgbomp.cli import at_least_one
from tsgbomp.experiments import ExperimentConfig, run_curve


def main() -> int:
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--trials", type=at_least_one)
    ap.add_argument("--jobs", type=at_least_one, default=2)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for path in sorted((ROOT / "scripts" / "configs").glob("*.cfg")):
        config = ExperimentConfig.from_text(path.read_text())
        if args.trials is not None:
            config = dataclasses.replace(config, trials=args.trials)
        out = out_dir / (
            f"curve_n{config.n}_m{config.m}_b{config.b}_p{config.p}_L{config.L}.csv"
        )
        t0 = time.time()
        run_curve(config, jobs=args.jobs, out_path=str(out))
        print(
            f"{out} done in {time.time() - t0:.0f}s (K grid tops out at {config.K_grid[-1]})",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
