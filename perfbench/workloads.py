"""One benchmark workload in one process: set up, measure, trace, check.

Run by `run.py`, which owns the command line the benchmark is driven with:

    python3 perfbench/workloads.py --workload curve --seed 1 --seconds 10 \
        --trace 0 --spawned-at <time.monotonic() of the spawn> --result out.json

With --setup-only the process stops after set-up and reports only setup_s.
The process drives public functions of `tsgbomp` and never edits them; the
traced run wraps them from outside (see layers.py).
"""

from __future__ import annotations

import os

# BLAS thread pools must be fixed before numpy loads. With OpenBLAS's default
# of two threads on a two-core machine a K=8 tsgbomp trial took 12.6 ms and
# varied widely, against 4.5 ms with one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tsgbomp import analysis, experiments, sensing, signal_model

import layers
from speed import SpeedProbe
from tracing import Tracer, clock

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"  # relative to the checkout root, git-ignored

LEMMA_FAMILIES = (
    "norm-sandwich",
    "budget-monotonicity",
    "pseudo-length-monotonicity",
    "block-for-pseudo-trade",
    "projected-sandwich",
    "projected-innerproduct",
    "projected-column-bound",
)


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload. `FULL` is the benchmark; tests use smaller
    ones so the same code runs in seconds."""

    # curve: fig_m160_p2 geometry; a round is one trial per (K, algorithm)
    curve: dict = field(default_factory=lambda: dict(n=200, m=160, b=4, p=2, L=8))
    curve_K: tuple[int, ...] = tuple(range(1, 16))
    curve_rounds: int = 40  # fixed trial set behind recovery rates and counts
    # lemma_audit: criterion-5 geometry and acceptance-suite sample sizes
    lemma_m: int = 40
    lemma: dict = field(default_factory=lambda: dict(n=60, b=2, p=2, l=10, L=4, K=2, R=2))
    lemma_samples: dict = field(default_factory=lambda: dict(
        support_samples=60, draws_sandwich=25, draws_projected=10, draws_innerproduct=40))
    # ric_cold: 247,807 supports, under the CLI's default cap of 1e6
    ric_matrix: tuple[int, int] = (120, 160)
    ric: dict = field(default_factory=lambda: dict(b=4, p=2, l=0, lsep=20, K=3, R=0))
    # fewest operations a run measures: the median of fewer spreads too much
    lemma_ops: int = 10
    ric_ops: int = 5


FULL = Scale()
CURVE_CHECK_TRIALS = 2  # per (K, algorithm), compared with run_curve
REFERENCE_CHUNK = 20_000  # supports per batched eigensolve in ric_reference


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, as statistics.quantiles gives it (inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# workloads: each has setup(), op(i) -> ok and checks() -> list of errors


class Workload:
    """Defaults shared by the three workloads."""

    targets: tuple = ()  # what the traced run wraps in this process
    group = 1  # operations run between two speed probes
    sensitivity: float  # power of the probed slowdown the operations feel (speed.py)
    # percentile reported as op_tail_ms: the highest with ten operations
    # beyond it in a run; lemma_audit and ric_cold run too few for a tail
    tail_q = 50
    tracer: Tracer | None = None  # set while the traced run measures
    count_ops: int | None = None  # counts average over all traced operations
    # (label, metric, factor, unit): this workload's own names for metrics
    own_names: tuple = ()

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def recovery_rates(self) -> dict[str, float]:
        """The solver's recovery rates on the curve's fixed trial set, run
        untimed, so that every workload reports them."""
        curve = Curve(self.seed, self.scale, self.workdir)
        for i in range(curve.count_ops):
            curve.op(i)
        return curve.recovery_rates()


class Curve(Workload):
    """Monte Carlo trials exactly as run_curve derives them: trial i is
    round i // (2 * |K|) of the (K, algorithm) grid, seeded by trial_seed."""

    name = "curve"
    op_span = "curve.trial"
    targets = layers.CURVE_TARGETS
    sensitivity = 0.67
    tail_q = 99
    own_names = (
        ("trials_per_s", "ops_per_s", 1.0, "1/s"),
        ("trial_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("trial_p99_ms", "op_tail_ms", 1.0, "ms"),
    )

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.config = experiments.ExperimentConfig(
            **scale.curve, K_grid=scale.curve_K, value_scheme="const:10",
            trials=scale.curve_rounds, epsilon=1e-6, master_seed=seed,
        )
        self.grid = [(K, alg) for K in self.config.K_grid for alg in self.config.algorithms]
        self.group = len(self.grid)
        self.min_ops = self.count_ops = scale.curve_rounds * len(self.grid)
        self.records: dict[int, experiments.TrialRecord] = {}

    def _trial(self, master: int, i: int) -> experiments.TrialRecord:
        K, alg = self.grid[i % len(self.grid)]
        seed = experiments.trial_seed(master, K, alg, i // len(self.grid))
        return experiments.run_trial(self.config, K, alg, seed)

    def setup(self) -> None:
        for i in range(len(self.grid)):  # one warm-up round on other seeds
            self._trial(-1 - self.seed, i)

    def op(self, i: int) -> bool:
        self.records[i] = self._trial(self.seed, i)
        return True

    def recovery_rates(self) -> dict[str, float]:
        rates = {}
        for alg in self.config.algorithms:
            recs = [r for i, r in self.records.items() if i < self.count_ops and r.algorithm == alg]
            rates[alg] = sum(r.success for r in recs) / (self.scale.curve_rounds * len(self.config.K_grid))
        return rates

    def checks(self) -> list[str]:
        """run_curve must write, at jobs=1 and jobs=2, the CSV that this
        benchmark's own trials give for the first few rounds."""
        trials = CURVE_CHECK_TRIALS
        points = []
        for j, (K, alg) in enumerate(self.grid):
            recs = [self.records.get(t * len(self.grid) + j) for t in range(trials)]
            if None in recs:
                return [f"no trial record for K={K} {alg}: a trial raised"]
            rate = sum(r.success for r in recs) / len(recs)
            points.append(experiments.CurvePoint(K=K, algorithm=alg, success_rate=rate, trials=trials))
        expected = experiments.curve_to_csv(points).encode()
        config = replace(self.config, trials=trials)
        errors = []
        for jobs in (1, 2):
            path = self.workdir / f"curve_jobs{jobs}.csv"
            experiments.run_curve(config, jobs=jobs, out_path=str(path))
            if path.read_bytes() != expected:
                errors.append(f"run_curve CSV at jobs={jobs} differs from the benchmark's trials")
        return errors


class LemmaAudit(Workload):
    """verify_lemmas on successive seeded matrices; the support-cell cache is
    filled by one warm-up matrix during set-up."""

    name = "lemma_audit"
    op_span = "lemma_audit.matrix"
    targets = layers.LEMMA_TARGETS
    sensitivity = 0.50
    own_names = (("lemma_matrix_s", "op_p50_ms", 1e-3, "s"),)

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.params = signal_model.PibsParams.from_window(**scale.lemma)
        self.min_ops = scale.lemma_ops
        self.exercised: set[str] = set()
        self.unknown: set[str] = set()

    def _matrix(self, index: int) -> bool:
        rng = np.random.default_rng([self.seed, index])
        p = self.params
        Phi = sensing.gaussian_matrix(self.scale.lemma_m, p.n, "unit", True, rng)
        report = analysis.verify_lemmas(Phi, p, p.K, p.R, rng, **self.scale.lemma_samples)
        self.unknown |= {e.name for e in report.entries} - set(LEMMA_FAMILIES)
        self.exercised |= {e.name for e in report.entries if not e.skipped}
        return report.all_passed

    def setup(self) -> None:
        self._matrix(2**32 - 1)  # warm-up matrix, never one of the timed ones
        self.exercised.clear()

    def op(self, i: int) -> bool:
        return self._matrix(i)

    def checks(self) -> list[str]:
        errors = [f"lemma family {n} was never exercised"
                  for n in LEMMA_FAMILIES if n not in self.exercised]
        return errors + [f"unexpected lemma family {n}" for n in sorted(self.unknown)]


def parse_ric(text: str) -> tuple[str, int, str]:
    """(delta as printed, supports scanned, argmax support text) from the
    output of `tsgbomp ric`."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("delta = ") \
            or not lines[1].startswith("supports scanned = "):
        raise ValueError(f"unexpected ric output: {text[:200]!r}")
    support = "\n".join(lines[3:]) + "\n" if lines[2:3] == ["argmax support:"] else ""
    return lines[0][len("delta = "):], int(lines[1][len("supports scanned = "):]), support


def ric_reference(Phi: sensing.SensingMatrix, params: signal_model.PibsParams) -> tuple[float, int]:
    """(delta, number of supports) by brute force, apart from the scan that
    `tsgbomp ric` runs: every support of every cell from
    signal_model.iter_cell, the largest |eigenvalue| of Phi_S^H Phi_S - I
    from a Gram matrix computed here, in batches of REFERENCE_CHUNK."""
    G = Phi.entries.conj().T @ Phi.entries
    best, count = 0.0, 0

    def batch_max(rows: list[tuple[int, ...]]) -> float:
        idx = np.array(rows, dtype=np.intp) - 1
        diag = np.arange(idx.shape[1])
        sub = G[idx[:, :, None], idx[:, None, :]]
        sub[:, diag, diag] -= 1.0
        ev = np.linalg.eigvalsh(sub)
        return float(np.max(np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))))

    for k in range(params.K + 1):
        for r in range(params.R + 1):
            rows = []  # every support of a cell covers the same number of columns
            for support in signal_model.iter_cell(params, k, r):
                count += 1
                if support.columns:
                    rows.append(support.columns)
                if len(rows) == REFERENCE_CHUNK:
                    best = max(best, batch_max(rows))
                    rows.clear()
            if rows:
                best = max(best, batch_max(rows))
    return best, count


def ric_errors(outputs: list[str], Phi: sensing.SensingMatrix,
               params: signal_model.PibsParams, reference: tuple[float, int]) -> list[str]:
    """Check `tsgbomp ric` outputs against `reference`, the (delta, count)
    of ric_reference: the printed delta is the reference delta and
    operator_norm_dev of the printed argmax support, the scan covered every
    cell, and every run printed the same delta."""
    ref_delta, ref_count = reference
    expected_count = sum(
        analysis.cell_count(params, k, r) for k in range(params.K + 1) for r in range(params.R + 1)
    )
    errors = []
    if ref_count != expected_count:
        errors.append(f"iter_cell gives {ref_count} supports, cell_count {expected_count}")
    deltas = set()
    for i, text in enumerate(outputs):
        try:
            delta, scanned, support_text = parse_ric(text)
            support = signal_model.support_from_text(support_text, params)
        except ValueError as exc:
            errors.append(f"run {i}: {exc}")
            continue
        deltas.add(delta)
        # the scan and the reference may gather and reduce in another order
        if not math.isclose(float(delta), ref_delta, rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"run {i}: delta {delta} but the brute-force maximum is {ref_delta!r}")
        if scanned != expected_count:
            errors.append(f"run {i}: scanned {scanned} supports, cells hold {expected_count}")
        if not support.columns:
            errors.append(f"run {i}: no argmax support printed")
            continue
        # the scan gathers from the cached Gram matrix, operator_norm_dev
        # recomputes the product, so the two agree to rounding only
        direct = analysis.operator_norm_dev(Phi, support.columns)
        if not math.isclose(float(delta), direct, rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"run {i}: delta {delta} but the argmax support gives {direct!r}")
    if len(deltas) > 1:
        errors.append(f"delta differs across runs: {sorted(deltas)}")
    return errors


class RicCold(Workload):
    """Each operation is one `tsgbomp ric` run in a fresh child process on a
    matrix written during set-up, so every run starts with an empty cache.
    The traced run installs its wrappers inside the children."""

    name = "ric_cold"
    op_span = "ric_cold.run"
    sensitivity = 0.47
    own_names = (("ric_scan_s", "op_p50_ms", 1e-3, "s"),)

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.min_ops = scale.ric_ops
        self.outputs: dict[int, str] = {}
        self.child_rss_mb: list[float] = []

    def setup(self) -> None:
        m, n = self.scale.ric_matrix
        self.Phi = sensing.gaussian_matrix(m, n, "unit", True, np.random.default_rng([self.seed]))
        self.matrix_path = self.workdir / "phi.bin"
        self.matrix_path.write_bytes(sensing.matrix_to_binary(self.Phi))
        g = self.scale.ric
        self.params = signal_model.PibsParams(
            n=n, b=g["b"], p=g["p"], l=g["l"], Lsep=g["lsep"], K=g["K"], R=g["R"])
        self.argv = ["ric", "--matrix", str(self.matrix_path)]
        for key, value in g.items():
            self.argv += [f"--{key}", str(value)]

    def op(self, i: int) -> bool:
        spans = self.workdir / f"ric_spans_{i}.jsonl"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "tsgbomp.cli", *self.argv]
        else:
            cmd = [sys.executable, str(HERE / "ric_child.py"), str(spans), *self.argv]
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            out = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if child.returncode is None:
                child.kill()
                child.wait()
        if self.tracer is None:
            self.child_rss_mb.append(usage.ru_maxrss / 1024)
        else:
            self.tracer.load(str(spans), parent=self.tracer.current(), op=i)
        self.outputs[i] = out.decode()
        return child.returncode == 0

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest `tsgbomp ric` child: what a user pays."""
        return max(self.child_rss_mb)

    def checks(self) -> list[str]:
        reference = ric_reference(self.Phi, self.params)
        return ric_errors([self.outputs[i] for i in sorted(self.outputs)], self.Phi, self.params,
                          reference)


WORKLOADS = {w.name: w for w in (Curve, LemmaAudit, RicCold)}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Measurement:
    times: list[float]  # wall seconds per operation
    calibrated: list[float]  # the same at reference speed (speed.py)
    failed: int

    @property
    def slowdown(self) -> float:
        return sum(self.times) / sum(self.calibrated)


def measure(workload, seconds: float, probe: SpeedProbe,
            tracer: Tracer | None = None) -> Measurement:
    """Run operations 0, 1, 2, ... in groups of `workload.group` until
    `seconds` have passed and at least `workload.min_ops` have run. A speed
    probe runs, untimed, before and after each group, and the group's times
    are divided by the mean of the two slowdowns, each to the power
    `workload.sensitivity`. An operation that raises is a failure."""
    m = Measurement([], [], 0)
    deadline = clock() + seconds
    before = probe.slowdown() ** workload.sensitivity
    i = 0
    while i < workload.min_ops or clock() < deadline:
        group = []
        for i in range(i, i + workload.group):
            t0 = clock()
            try:
                if tracer is None:
                    ok = workload.op(i)
                else:
                    with tracer.span(workload.op_span, op=i):
                        ok = workload.op(i)
            except Exception:
                traceback.print_exc()
                ok = False
            group.append(clock() - t0)
            m.failed += not ok
        i += 1
        after = probe.slowdown() ** workload.sensitivity
        slowdown = (before + after) / 2
        m.times += group
        m.calibrated += [t / slowdown for t in group]
        before = after
    return m


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def timing(workload, times: list[float]) -> dict[str, float]:
    """Throughput from the median group of operations, so that one slow
    spell of the machine cannot move it; latency at the median and at the
    workload's tail percentile."""
    g = workload.group
    groups = [sum(times[j:j + g]) for j in range(0, len(times), g)]
    return {
        "ops_per_s": g / statistics.median(groups),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * percentile(times, workload.tail_q),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spawned_at: float,
                 scale: Scale, workdir: Path, setup_only: bool = False) -> dict:
    """Set up, measure and check one workload; return the result record.
    Times are at reference speed; the wall-clock ones are under "wall"."""
    workload = WORKLOADS[name](seed, scale, workdir)
    workload.setup()
    setup_wall = time.monotonic() - spawned_at
    probe = SpeedProbe()
    result = {"setup_s": setup_wall / probe.slowdown() ** workload.sensitivity,
              "wall": {"setup_s": setup_wall}}
    if setup_only:
        return result

    base = measure(workload, seconds, probe)
    attempted, failed = len(base.times), base.failed
    metrics = {"peak_rss_mb": workload.peak_rss_mb(), **timing(workload, base.calibrated)}
    result["wall"].update(timing(workload, base.times), slowdown=base.slowdown)

    if trace:
        tracer = workload.tracer = Tracer()
        with tracer.installed(workload.targets):
            traced = measure(workload, seconds, probe, tracer)
        workload.tracer = None
        attempted += len(traced.times)
        failed += traced.failed
        result["layers"] = layers.layer_metrics(
            tracer, len(traced.times), workload.count_ops or len(traced.times),
            time_scale=1 / traced.slowdown)
        result["layers"]["trace.overhead_share"] = (
            statistics.fmean(traced.calibrated) / statistics.fmean(base.calibrated) - 1.0
        )
        out = Path(OUT_DIR)
        out.mkdir(exist_ok=True)
        tracer.dump(str(out / f"spans-{name}-seed{seed}.jsonl"))

    for alg, rate in workload.recovery_rates().items():
        metrics[f"recovery_rate.{alg}"] = rate

    errors = workload.checks()
    result.update(attempted=attempted, failed=failed, errors=errors, metrics=metrics,
                  ops=len(base.times))
    return result


def report(name: str, result: dict) -> None:
    """Human-readable lines, with the workload's own names for its metrics."""
    m, wall = result["metrics"], result["wall"]
    print(f"{name}: {result['ops']} operations; the machine ran {wall['slowdown']:.3g} "
          f"times slower than reference speed")
    for label, key, factor, unit in WORKLOADS[name].own_names:
        print(f"{name}: {label} = {m[key] * factor:.6g} {unit} at reference speed, "
              f"{wall[key] * factor:.6g} {unit} wall-clock")
    for key, value in result.get("layers", {}).items():
        print(f"{name}: layer {key} = {value:.6g} {layers.PER_LAYER[key][0]}")
    for err in result["errors"]:
        print(f"{name}: CHECK FAILED: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so `finally` blocks stop children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    Path(OUT_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.spawned_at,
            FULL, Path(tmp), setup_only=args.setup_only,
        )
    if not args.setup_only:
        print("env: " + json.dumps(environment(args), sort_keys=True))
        report(args.workload, result)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
