"""Acceptance suite: every headline requirement at its stated tolerance.

Each criterion prints one pass/fail line (visible under `pytest -s`). Once
all nine have run, the lines are written to acceptance_report.txt at the
repository root, so the verdicts survive output capture; a partial run
(`-k`) leaves the file alone. Wall times are printed but kept out of the
report file, so a rerun rewrites it with the same lines. The Monte Carlo
criteria use a fixed master seed: reruns are byte-identical and parallelism
never changes results.
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = ROOT / "acceptance_report.txt"

from tsgbomp.analysis import (
    g_bounds,
    g_empirical,
    real_part_lower_bound_check,
)
from tsgbomp.experiments import (
    ExperimentConfig,
    lemma_audit,
    run_curve,
    theorem_regime_suite,
)
from tsgbomp.recovery import bomp, tsgbomp
from tsgbomp.sensing import gaussian_matrix, measure
from tsgbomp.signal_model import (
    PibsParams,
    compare_counts,
    fill_values,
    iter_cell,
    sample_support,
)

MASTER_SEED = 20260808
TRIALS = 200


_REPORT_LINES: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    _REPORT_LINES.clear()
    yield
    criteria = {line.split()[0] for line in _REPORT_LINES}
    if criteria == {f"criterion-{i}" for i in range(1, 10)}:
        REPORT_PATH.write_text("".join(line + "\n" for line in _REPORT_LINES))


def emit(line: str, seconds: float | None = None) -> None:
    print(f"\n{line}" + ("" if seconds is None else f" [{seconds:.0f}s]"))
    _REPORT_LINES.append(line)


def rates(points, algorithm):
    return {p.K: p.success_rate for p in points if p.algorithm == algorithm}


def replica_config(name: str) -> ExperimentConfig:
    """A committed curve config of scripts/run_phase_transition.py, run at
    the suite's reduced scale."""
    text = (ROOT / "scripts" / "configs" / f"fig_{name}.cfg").read_text()
    return replace(ExperimentConfig.from_text(text), trials=TRIALS)


@pytest.fixture(scope="module")
def replica_curves():
    """The three reduced-scale replica curves shared by criteria 1-3."""
    curves = {}
    for name in ("m160_p2", "m160_p1", "m120_p2"):
        t0 = time.time()
        curves[name] = run_curve(replica_config(name), jobs=2)
        curves[f"{name}_seconds"] = time.time() - t0
    return curves


class TestCriterion1Replica:
    def test_reduced_scale_dominance(self, replica_curves):
        config = replica_config("m160_p2")
        grid = config.K_grid
        # the requested grid tops out at 16, but 16 cannot host 8 separated
        # clusters in 200 indices; the harness must detect that
        assert grid == tuple(range(1, 16))
        with pytest.raises(ValueError, match="infeasible"):
            replace(config, K_grid=(16,))

        ts = rates(replica_curves["m160_p2"], "tsgbomp")
        bo = rates(replica_curves["m160_p2"], "bomp")
        dominance = all(ts[K] >= bo[K] for K in grid)
        big_gap = sum(1 for K in grid if ts[K] - bo[K] >= 0.15)
        elapsed = replica_curves["m160_p2_seconds"]
        ok = dominance and big_gap >= len(grid) / 2 and elapsed <= 600
        emit(
            f"criterion-1 replica: {'PASS' if ok else 'FAIL'} "
            f"(dominance at all {len(grid)} feasible K, gap>=0.15 at {big_gap}, "
            f"K=16 correctly rejected as infeasible)",
            elapsed,
        )
        assert dominance, [(K, ts[K], bo[K]) for K in grid if ts[K] < bo[K]]
        assert big_gap >= len(grid) / 2
        assert elapsed <= 600


class TestCriterion2PImprovement:
    def test_mean_gain_over_mid_grid(self, replica_curves):
        ts_p2 = rates(replica_curves["m160_p2"], "tsgbomp")
        ts_p1 = rates(replica_curves["m160_p1"], "tsgbomp")
        mid = range(4, 13)
        mean_p2 = float(np.mean([ts_p2[K] for K in mid]))
        mean_p1 = float(np.mean([ts_p1[K] for K in mid]))
        ok = mean_p2 - mean_p1 > 0.05
        emit(
            f"criterion-2 p-improvement: {'PASS' if ok else 'FAIL'} "
            f"(mean p=2: {mean_p2:.3f}, mean p=1: {mean_p1:.3f})"
        )
        assert ok


class TestCriterion3MImprovement:
    def test_pointwise_measurement_gain(self, replica_curves):
        grid = replica_config("m160_p2").K_grid
        ts160 = rates(replica_curves["m160_p2"], "tsgbomp")
        ts120 = rates(replica_curves["m120_p2"], "tsgbomp")
        bad = [(K, ts160[K], ts120[K]) for K in grid if ts160[K] < ts120[K] - 0.05]

        bo160 = rates(replica_curves["m160_p2"], "bomp")
        bo120 = rates(replica_curves["m120_p2"], "bomp")
        bomp_notes = [
            (K, bo160[K], bo120[K]) for K in grid if bo160[K] < bo120[K] - 0.05
        ]
        ok = not bad
        emit(
            f"criterion-3 m-improvement: {'PASS' if ok else 'FAIL'} "
            f"(tsgbomp pointwise within slack at all {len(grid)} K; "
            f"baseline comparison informational: {len(bomp_notes)} points outside slack "
            f"{bomp_notes if bomp_notes else ''})"
        )
        assert ok, bad


class TestCriterion4TheoremRegime:
    def test_certified_instances_all_recover(self):
        t0 = time.time()
        report = theorem_regime_suite(60, np.random.default_rng(MASTER_SEED))
        elapsed = time.time() - t0
        ok = (
            report.certified >= 50
            and report.recovered == report.certified
            and elapsed <= 300
        )
        emit(
            f"criterion-4 theorem regime: {'PASS' if ok else 'FAIL'} "
            f"({report.certified} certified, {report.recovered} recovered)",
            elapsed,
        )
        assert report.certified >= 50
        assert report.recovered == report.certified, report.render()
        assert elapsed <= 300


class TestCriterion5LemmaSuite:
    def test_hundred_matrices_zero_violations(self):
        failures = []
        skipped_names = set()
        digest = hashlib.sha256()  # as scripts/run_lemma_audit.py hashes the reports
        t0 = time.time()
        for i, report in enumerate(lemma_audit(100, jobs=2)):
            digest.update((report.render() + report.margins_csv()).encode())
            skipped_names.update(e.name for e in report.entries if e.skipped)
            if not report.all_passed:
                failures.append((i, report.render()))
        elapsed = time.time() - t0
        ran = 7 - len(skipped_names)
        ok = not failures
        emit(
            f"criterion-5 lemma suite: {'PASS' if ok else 'FAIL'} "
            f"(100 matrices, {ran}/7 lemma checks exercised, "
            f"{len(failures)} failures)",
            elapsed,
        )
        assert not failures, failures[:3]
        # every lemma family must actually run somewhere in the batch
        assert not skipped_names, f"never exercised: {skipped_names}"
        assert digest.hexdigest()[:16] == "3a739ac06b09dffd"


class TestCriterion6RealPartBound:
    def test_hundred_thousand_complex_pairs(self):
        rng = np.random.default_rng(MASTER_SEED)
        n = 100_000
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # rescale w to keep |w/z| strictly inside the unit disc
        ratio = rng.uniform(0.0, 0.999, size=n)
        w = w / np.abs(w) * np.abs(z) * ratio
        bad = 0
        for zi, wi in zip(z, w):
            _, _, ok = real_part_lower_bound_check(complex(zi), complex(wi))
            bad += not ok
        real_bad = 0
        for t in rng.uniform(-0.999, 0.999, size=20_000):
            zi = complex(rng.standard_normal(), rng.standard_normal())
            lhs, _, ok = real_part_lower_bound_check(zi, t * zi)
            real_bad += not (ok and abs(lhs - abs(zi)) <= 1e-12)
        ok_all = bad == 0 and real_bad == 0
        emit(
            f"criterion-6 real-part bound: {'PASS' if ok_all else 'FAIL'} "
            f"({n} complex pairs, 20000 real-ratio pairs, "
            f"{bad}+{real_bad} violations)"
        )
        assert bad == 0
        assert real_bad == 0


class TestCriterion7Counting:
    def test_formula_vs_enumeration_grid(self):
        # the enumeration is the independent oracle for the exact count
        def walk(params, k, r):
            return sum(1 for _ in iter_cell(params, k, r))

        matches = 0
        mismatches = []
        # pseudo-free grid: closed form must agree exactly
        for n in (8, 12, 20, 30):
            for b in (1, 2):
                for p in (1, 2):
                    for Lsep in (2, 4):
                        for K in range(4):
                            params = PibsParams(n=n, b=b, p=p, l=0, Lsep=Lsep, K=K, R=0)
                            cmp = compare_counts(params, K, 0)
                            assert cmp.match, cmp.describe()
                            assert cmp.exact == walk(params, K, 0)
                            matches += 1
        # single-pseudo grid: the per-gap occupancy formula undercounts; the
        # comparison must detect and report it, never patch it
        reported = []
        for n in (12, 16, 24, 30):
            for b in (1, 2):
                K = 3 if b == 1 else 2
                Lsep = 2 * b
                params = PibsParams(n=n, b=b, p=1, l=Lsep, Lsep=Lsep, K=K, R=1)
                cmp = compare_counts(params, K, 1)
                assert cmp.exact == walk(params, K, 1)
                if not cmp.match:
                    assert "MISMATCH" in cmp.describe()
                    reported.append(cmp.describe())
                else:
                    matches += 1
        # the documented edge case from the parameter sheet
        edge_params = PibsParams(n=30, b=2, p=2, l=4, Lsep=4, K=3, R=1)
        edge = compare_counts(edge_params, 3, 1)
        assert edge.exact == walk(edge_params, 3, 1)
        if not edge.match:
            assert edge.notes  # flags explain the gap
            reported.append(edge.describe())
        ok = matches > 0 and len(reported) > 0
        emit(
            f"criterion-7 counting: {'PASS' if ok else 'FAIL'} "
            f"({matches} exact agreements; {len(reported)} formula gaps detected "
            f"and reported, e.g. {reported[0] if reported else 'none'})"
        )
        assert matches >= 128
        assert reported, "the known single-pseudo undercount was not detected"


class TestCriterion8GBounds:
    def test_empirical_within_closed_form_bounds(self):
        rng = np.random.default_rng(MASTER_SEED)
        trials = 100_000
        worst = []
        for K, b in ((2, 1), (3, 1), (4, 1), (8, 1)):
            for a in np.arange(0.0, 0.95, 0.1):
                a = float(round(a, 1))
                lower, upper = g_bounds(a, K, b)
                est = g_empirical(a, K, b, trials, rng)
                # slack from the binomial deviation of the bound under test
                se_lo = math.sqrt(lower * (1 - lower) / trials)
                se_hi = math.sqrt(min(upper, 1.0) * (1 - min(upper, 1.0)) / trials)
                if not (lower - 3 * se_lo <= est <= upper + 3 * se_hi):
                    worst.append((K * b, a, lower, est, upper))
        lower0, upper0 = g_bounds(0.0, 2, 1)
        exact_point = lower0 == upper0 == 1.0 and g_empirical(
            0.0, 2, 1, trials, rng
        ) == 1.0
        ok = not worst and exact_point
        emit(
            f"criterion-8 magnitude-ratio bounds: {'PASS' if ok else 'FAIL'} "
            f"(40 grid points at {trials} trials, Kb=2 a=0 pinned at 1)"
        )
        assert not worst, worst
        assert exact_point


def _fits(n, b, p, L, K):
    """Whether K blocks of the (b, p, L) window geometry fit in n indices,
    as ExperimentConfig decides it."""
    try:
        ExperimentConfig(n=n, m=n, b=b, p=p, L=L, K_grid=(K,))
    except ValueError as exc:
        assert "infeasible" in str(exc)
        return False
    return True


class TestCriterion9SolverInvariants:
    def test_thousand_random_solves(self):
        rng = np.random.default_rng(MASTER_SEED)
        checked = 0
        t0 = time.time()
        for trial in range(1000):
            b = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            L = p * b * int(rng.integers(1, 3))
            n_windows = int(rng.integers(6, 13))
            n = L * n_windows
            lo = max(4, n // 3)
            m = int(rng.integers(lo, max(lo + 1, n)))
            K = int(rng.integers(1, 5))
            params = PibsParams.from_window(n=n, b=b, p=p, l=L, L=L, K=K, R=0)
            if not _fits(n, b, p, L, K):
                continue
            Phi = gaussian_matrix(m, n, "unit", True, rng)
            support = sample_support(params, K, rng)
            x = fill_values(support, "gaussian", rng=rng)
            noise = None
            if trial % 3 == 0:
                noise = ("gaussian", 0.05)
            y = measure(Phi, x, noise=noise, rng=rng)
            y_norm = np.linalg.norm(y)
            solver = tsgbomp if trial % 4 else bomp
            if solver is tsgbomp:
                res = tsgbomp(Phi, y, iterations=K, L=L, B=b * p, epsilon=0.0)
            else:
                res = bomp(Phi, y, iterations=K, B=b * p, epsilon=0.0)

            norms = [y_norm] + [r.residual_norm for r in res.trace]
            for before, after in zip(norms, norms[1:]):
                assert after <= before + 1e-10

            # independent replay: refit every prefix and test orthogonality
            starts: set[int] = set()
            for rec in res.trace:
                starts.add(rec.cluster_start)
                cols = sorted({c for s in starts for c in range(s - 1, s - 1 + b * p)})
                A = Phi.entries[:, cols]
                u, *_ = np.linalg.lstsq(A, y, rcond=None)
                r = y - A @ u
                assert np.linalg.norm(A.conj().T @ r) <= 1e-8 * y_norm
            checked += 1
        elapsed = time.time() - t0

        cfg = ExperimentConfig(
            n=48, m=32, b=2, p=2, L=4, K_grid=(1, 2, 3), trials=10,
            master_seed=MASTER_SEED,
        )
        serial = run_curve(cfg, jobs=1)
        parallel = run_curve(cfg, jobs=2)
        from tsgbomp.experiments import curve_to_csv

        byte_exact = curve_to_csv(serial) == curve_to_csv(parallel)
        emit(
            f"criterion-9 solver invariants: "
            f"{'PASS' if checked >= 900 and byte_exact else 'FAIL'} "
            f"({checked} solves checked, jobs determinism byte-exact: {byte_exact})",
            elapsed,
        )
        assert checked >= 900
        assert byte_exact
