import numpy as np
import pytest

from tsgbomp.recovery import (
    bomp,
    relative_error,
    result_report,
    success_check,
    trace_to_csv,
    tsgbomp,
)
from tsgbomp.sensing import gaussian_matrix, identity_matrix, measure
from tsgbomp.signal_model import PibsParams, Support, fill_values, sample_support


def make_instance(n=200, m=160, b=4, p=2, L=8, K=4, seed=1, amplitude=10.0):
    rng = np.random.default_rng(seed)
    params = PibsParams.from_window(n=n, b=b, p=p, l=L, L=L, K=K, R=0)
    support = sample_support(params, K, rng)
    signal = fill_values(support, "const", amplitude, rng)
    Phi = gaussian_matrix(m, n, "unit", True, rng)
    meas = measure(Phi, signal.x)
    return Phi, meas, signal


class TestTsgbomp:
    def test_identity_matrix_recovers(self):
        n = 24
        params = PibsParams.from_window(n=n, b=2, p=2, l=4, L=4, K=2, R=0)
        rng = np.random.default_rng(3)
        support = sample_support(params, 2, rng)
        signal = fill_values(support, "gaussian", rng=rng)
        Phi = identity_matrix(n)
        meas = measure(Phi, signal.x)
        res = tsgbomp(Phi, meas, K=2, L=4, b=2, p=2, epsilon=1e-10)
        assert set(signal.support.columns).issubset(res.estimated_columns)
        assert np.linalg.norm(res.x_hat - signal.x) <= 1e-10

    def test_below_threshold_returns_zero(self):
        Phi = identity_matrix(8)
        meas = measure(Phi, np.zeros(8), noise=np.full(8, 1e-9))
        res = tsgbomp(Phi, meas, K=3, L=4, b=2, p=2, epsilon=1e-3)
        assert res.iterations == 0
        assert res.estimated_columns == ()
        assert not res.x_hat.any()
        assert res.stop_reason == "residual-threshold"

    def test_gaussian_fixture_succeeds(self):
        Phi, meas, signal = make_instance(seed=1)
        res = tsgbomp(Phi, meas, K=4, L=8, b=4, p=2,
                      epsilon=1e-6 * np.linalg.norm(meas.y))
        assert success_check(res, signal)
        assert res.iterations == 4

    def test_residual_monotone_and_orthogonal(self):
        Phi, meas, signal = make_instance(K=6, seed=9)
        res = tsgbomp(Phi, meas, K=6, L=8, b=4, p=2, epsilon=0.0)
        norms = [np.linalg.norm(meas.y)] + [r.residual_norm for r in res.trace]
        for a, b_ in zip(norms, norms[1:]):
            assert b_ <= a + 1e-10
        cols = np.asarray(res.estimated_columns) - 1
        r = meas.y - Phi.entries @ res.x_hat
        assert np.linalg.norm(Phi.entries[:, cols].T @ r) <= 1e-8 * np.linalg.norm(meas.y)

    def test_stage2_start_in_clamped_window_range(self):
        Phi, meas, _ = make_instance(K=5, seed=21)
        res = tsgbomp(Phi, meas, K=5, L=8, b=4, p=2, epsilon=0.0)
        B = 8
        for rec in res.trace:
            lo = max(1, 8 * (rec.window - 1) + 1 - (B - 1))
            hi = min(8 * rec.window, 200 - B + 1)
            assert lo <= rec.cluster_start <= hi
            assert len(rec.block_starts) == 2
            # selected cluster overlaps the chosen window
            w_lo, w_hi = 8 * (rec.window - 1) + 1, 8 * rec.window
            assert rec.cluster_start <= w_hi and rec.cluster_start + B - 1 >= w_lo

    def test_estimated_columns_deduplicated(self):
        Phi, meas, _ = make_instance(K=6, seed=4)
        res = tsgbomp(Phi, meas, K=6, L=8, b=4, p=2, epsilon=0.0)
        assert len(res.estimated_columns) == len(set(res.estimated_columns))
        assert list(res.estimated_columns) == sorted(res.estimated_columns)

    def test_deterministic_trace(self):
        Phi, meas, _ = make_instance(seed=13)
        r1 = tsgbomp(Phi, meas, K=4, L=8, b=4, p=2, epsilon=0.0)
        r2 = tsgbomp(Phi, meas, K=4, L=8, b=4, p=2, epsilon=0.0)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x_hat, r2.x_hat)

    def test_regression_trace_pinned(self):
        rng = np.random.default_rng(2718)
        Phi = gaussian_matrix(24, 48, "unit", True, rng)
        params = PibsParams.from_window(n=48, b=2, p=2, l=4, L=4, K=4, R=0)
        support = sample_support(params, 4, rng)
        signal = fill_values(support, "gaussian", rng=rng)
        meas = measure(Phi, signal.x)
        res = tsgbomp(Phi, meas, K=2, L=4, b=2, p=2, epsilon=0.0)
        assert support.clusters == ((3, 1), (22, 2), (36, 1))
        assert [r.window for r in res.trace] == [1, 9]
        assert [r.cluster_start for r in res.trace] == [2, 34]
        assert [r.block_starts for r in res.trace] == [(2, 4), (34, 36)]
        assert res.estimated_columns == (2, 3, 4, 5, 34, 35, 36, 37)
        assert [r.residual_norm for r in res.trace] == pytest.approx(
            [2.720670877489354, 1.8336841800995194], rel=1e-12
        )

    def test_dimension_and_divisibility_errors(self):
        Phi = identity_matrix(10)
        meas = measure(Phi, np.zeros(10))
        with pytest.raises(ValueError):
            tsgbomp(Phi, meas, K=1, L=3, b=1, p=1, epsilon=0.0)
        with pytest.raises(ValueError):
            tsgbomp(Phi, meas, K=1, L=2, b=1, p=3, epsilon=0.0)

    def test_complex_instance(self):
        rng = np.random.default_rng(6)
        n, m = 32, 24
        Phi = gaussian_matrix(m, n, "unit", True, rng, complex_entries=True)
        params = PibsParams.from_window(n=n, b=2, p=2, l=4, L=4, K=2, R=0)
        support = sample_support(params, 2, rng)
        x = np.zeros(n, dtype=complex)
        cols = support.column_array
        x[cols] = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
        meas = measure(Phi, x)
        res = tsgbomp(Phi, meas, K=2, L=4, b=2, p=2,
                      epsilon=1e-8 * np.linalg.norm(meas.y))
        assert set(support.columns).issubset(res.estimated_columns)
        assert np.linalg.norm(res.x_hat - x) <= 1e-6 * np.linalg.norm(x)


class TestBomp:
    def test_single_partition_block_one_iteration(self):
        Phi = identity_matrix(8)
        x = np.zeros(8)
        x[4:6] = 2.0  # inside partition block [5..6] is block 3 of length 2
        meas = measure(Phi, x)
        res = bomp(Phi, meas, K=4, block=2, epsilon=1e-10)
        assert res.iterations == 1
        assert res.estimated_columns == (5, 6)

    def test_straddling_cluster_needs_two_iterations(self):
        Phi = identity_matrix(6)
        x = np.zeros(6)
        x[1] = 1.0
        x[2] = 2.0
        meas = measure(Phi, x)
        res = bomp(Phi, meas, K=3, block=2, epsilon=1e-10)
        assert res.iterations == 2
        assert set((2, 3)).issubset(res.estimated_columns)

    def test_regression_trace_pinned(self):
        rng = np.random.default_rng(314)
        Phi = gaussian_matrix(24, 32, "unit", True, rng)
        params = PibsParams.from_window(n=32, b=2, p=2, l=4, L=4, K=2, R=0)
        support = sample_support(params, 2, rng)
        signal = fill_values(support, "const", 10.0, rng)
        meas = measure(Phi, signal.x)
        res = bomp(Phi, meas, K=2, block=4, epsilon=1e-6 * np.linalg.norm(meas.y))
        assert support.clusters == ((2, 1), (20, 1))
        assert [r.window for r in res.trace] == [1, 6]
        assert res.estimated_columns == (1, 2, 3, 4, 21, 22, 23, 24)
        assert [r.residual_norm for r in res.trace] == pytest.approx(
            [9.993244442491541, 7.7172034780572805], rel=1e-12
        )


class TestSuccessCheck:
    def test_exact_match(self):
        _, _, signal = make_instance(K=2, seed=2)
        res_cols = signal.support.columns
        from tsgbomp.recovery import RecoveryResult

        res = RecoveryResult(
            estimated_columns=res_cols, x_hat=signal.x.copy(), trace=(),
            iterations=0, stop_reason="budget",
        )
        assert success_check(res, signal)

    def test_missing_index_fails(self):
        _, _, signal = make_instance(K=2, seed=2)
        from tsgbomp.recovery import RecoveryResult

        res = RecoveryResult(
            estimated_columns=signal.support.columns[1:], x_hat=signal.x.copy(),
            trace=(), iterations=0, stop_reason="budget",
        )
        assert not success_check(res, signal)

    def test_superset_with_noiseless_refit(self):
        Phi, meas, signal = make_instance(K=2, seed=8)
        extra = [c for c in range(1, 201) if c not in signal.support.columns][:4]
        cols = sorted(set(signal.support.columns) | set(extra))
        u, *_ = np.linalg.lstsq(Phi.entries[:, np.asarray(cols) - 1], meas.y, rcond=None)
        x_hat = np.zeros(200)
        x_hat[np.asarray(cols) - 1] = u
        from tsgbomp.recovery import RecoveryResult

        res = RecoveryResult(
            estimated_columns=tuple(cols), x_hat=x_hat, trace=(),
            iterations=1, stop_reason="budget",
        )
        assert success_check(res, signal)


class TestReports:
    def test_report_and_csv_render(self):
        Phi, meas, _ = make_instance(seed=1)
        res = tsgbomp(Phi, meas, K=4, L=8, b=4, p=2, epsilon=0.0)
        text = result_report(res)
        assert "estimated columns:" in text
        csv = trace_to_csv(res)
        assert csv.splitlines()[0] == "k,window,cluster_start,block_starts,residual_norm"
        assert len(csv.splitlines()) == res.iterations + 1
