"""tsgbomp benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload {curve,lemma_audit,ric_cold} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy. The workload itself runs in a child
process (workloads.py) so that its peak RSS is its own. With --trace 0 the
result carries the end-to-end metrics of BENCHMARK.json, and set-up is
repeated in two more fresh processes so that setup_s is a median of three.
With --trace 1 it carries the per-layer metrics of a second, traced run.
Exit code 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run; no result is printed in the last case.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # extra fresh-process set-ups per --trace 0 run
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "recovery_rate.tsgbomp": "share",
    "recovery_rate.bomp": "share",
}


def workload_process(args, result: Path, setup_only: bool, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL if setup_only else None)
    try:
        proc.wait()
    finally:  # on SIGTERM, let the workload stop its own children first
        if proc.returncode is None:
            proc.terminate()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("curve", "lemma_audit", "ric_cold"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    src = Path("src").resolve()
    if not (src / "tsgbomp" / "__init__.py").is_file():
        print("error: run from the root of a tsgbomp checkout (no src/tsgbomp here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))

    out = Path(".perfbench-out")
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        try:
            main_run = workload_process(args, Path(tmp) / "main.json", False, env)
            setups = [main_run]
            if not args.trace:
                setups += [workload_process(args, Path(tmp) / f"setup{i}.json", True, env)
                           for i in range(SETUP_PROBES)]
        except (RuntimeError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        out.rmdir()  # only when nothing else was written there
    except OSError:
        pass

    name = args.workload
    attempted, failed = main_run["attempted"], main_run["failed"]
    errors = main_run["errors"]
    print(f"{name}: failure share = {failed}/{attempted} = {failed / attempted:.4g}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]}
                   for k, v in main_run["layers"].items()}
    else:
        print(f"{name}: set-up times " + ", ".join(
            f"{r['setup_s']:.4g} s ({r['wall']['setup_s']:.4g} s wall-clock)" for r in setups))
        values = dict(main_run["metrics"], setup_s=statistics.median(r["setup_s"] for r in setups))
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        for k, m in metrics.items():
            print(f"{name}: {k} = {m['value']:.6g} {m['unit']}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
