import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgbomp import experiments, recovery
from tsgbomp.experiments import solve
from tsgbomp.recovery import (
    IterationRecord,
    RecoveryResult,
    bomp,
    relative_error,
    result_report,
    success_check,
    trace_to_csv,
    tsgbomp,
)
from tsgbomp.sensing import SensingMatrix, gaussian_matrix, measure
from tsgbomp.signal_model import PibsParams, Support, fill_values, sample_support


def make_instance(n=200, m=160, b=4, p=2, L=8, K=4, seed=1):
    rng = np.random.default_rng(seed)
    params = PibsParams.from_window(n=n, b=b, p=p, l=L, L=L, K=K, R=0)
    support = sample_support(params, K, rng)
    x = fill_values(support, "const:10", rng)
    Phi = gaussian_matrix(m, n, "unit", True, rng)
    y = measure(Phi, x)
    return Phi, y, support, x


class TestTsgbomp:
    def test_identity_matrix_recovers(self):
        n = 24
        params = PibsParams.from_window(n=n, b=2, p=2, l=4, L=4, K=2, R=0)
        rng = np.random.default_rng(3)
        support = sample_support(params, 2, rng)
        x = fill_values(support, "gaussian", rng=rng)
        Phi = SensingMatrix(np.eye(n), normalized=True)
        y = measure(Phi, x)
        res = tsgbomp(Phi, y, iterations=2, L=4, B=4, epsilon=1e-10)
        assert set(support.columns).issubset(res.estimated_columns)
        assert np.linalg.norm(res.x_hat - x) <= 1e-10

    def test_below_threshold_returns_zero(self):
        Phi = SensingMatrix(np.eye(8), normalized=True)
        y = measure(Phi, np.zeros(8), noise=np.full(8, 1e-9))
        res = tsgbomp(Phi, y, iterations=3, L=4, B=4, epsilon=1e-3)
        assert res.iterations == 0
        assert res.estimated_columns == ()
        assert not res.x_hat.any()
        assert res.stop_reason == "residual-threshold"

    def test_gaussian_fixture_succeeds(self):
        Phi, y, support, x = make_instance(seed=1)
        res = tsgbomp(Phi, y, iterations=4, L=8, B=8,
                      epsilon=1e-6 * np.linalg.norm(y))
        assert success_check(res, support, x)
        assert res.iterations == 4

    def test_residual_monotone_and_orthogonal(self):
        Phi, y, _, _ = make_instance(K=6, seed=9)
        res = tsgbomp(Phi, y, iterations=6, L=8, B=8, epsilon=0.0)
        norms = [np.linalg.norm(y)] + [r.residual_norm for r in res.trace]
        for a, b_ in zip(norms, norms[1:]):
            assert b_ <= a + 1e-10
        cols = np.asarray(res.estimated_columns) - 1
        r = y - Phi.entries @ res.x_hat
        assert np.linalg.norm(Phi.entries[:, cols].T @ r) <= 1e-8 * np.linalg.norm(y)

    def test_zero_epsilon_stops_at_rounding_level(self):
        # the fifth pick recovers the signal exactly; a sixth would be
        # chosen from a residual of rounding noise
        Phi, y, support, x = make_instance(K=6, seed=9)
        res = tsgbomp(Phi, y, iterations=6, L=8, B=8, epsilon=0.0)
        floor = 1e-12 * np.linalg.norm(y)
        assert res.stop_reason == "residual-threshold"
        assert res.iterations == 5
        assert res.trace[-1].residual_norm < floor
        assert all(t.residual_norm >= floor for t in res.trace[:-1])
        assert success_check(res, support, x)

    def test_stage2_start_in_clamped_window_range(self):
        Phi, y, _, _ = make_instance(K=5, seed=21)
        res = tsgbomp(Phi, y, iterations=5, L=8, B=8, epsilon=0.0)
        B = 8
        for rec in res.trace:
            lo = max(1, 8 * (rec.window - 1) + 1 - (B - 1))
            hi = min(8 * rec.window, 200 - B + 1)
            assert lo <= rec.cluster_start <= hi
            # selected cluster overlaps the chosen window
            w_lo, w_hi = 8 * (rec.window - 1) + 1, 8 * rec.window
            assert rec.cluster_start <= w_hi and rec.cluster_start + B - 1 >= w_lo

    def test_estimated_columns_deduplicated(self):
        Phi, y, _, _ = make_instance(K=6, seed=4)
        res = tsgbomp(Phi, y, iterations=6, L=8, B=8, epsilon=0.0)
        assert len(res.estimated_columns) == len(set(res.estimated_columns))
        assert list(res.estimated_columns) == sorted(res.estimated_columns)

    def test_deterministic_trace(self):
        Phi, y, _, _ = make_instance(seed=13)
        r1 = tsgbomp(Phi, y, iterations=4, L=8, B=8, epsilon=0.0)
        r2 = tsgbomp(Phi, y, iterations=4, L=8, B=8, epsilon=0.0)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x_hat, r2.x_hat)

    def test_regression_trace_pinned(self):
        rng = np.random.default_rng(2718)
        Phi = gaussian_matrix(24, 48, "unit", True, rng)
        params = PibsParams.from_window(n=48, b=2, p=2, l=4, L=4, K=4, R=0)
        support = sample_support(params, 4, rng)
        x = fill_values(support, "gaussian", rng=rng)
        y = measure(Phi, x)
        res = tsgbomp(Phi, y, iterations=2, L=4, B=4, epsilon=0.0)
        assert support.clusters == ((3, 1), (22, 2), (36, 1))
        assert [r.window for r in res.trace] == [1, 9]
        assert [r.cluster_start for r in res.trace] == [2, 34]
        assert res.estimated_columns == (2, 3, 4, 5, 34, 35, 36, 37)
        assert [r.residual_norm for r in res.trace] == pytest.approx(
            [2.720670877489354, 1.8336841800995194], rel=1e-12
        )

    def test_dimension_and_divisibility_errors(self):
        Phi = SensingMatrix(np.eye(10), normalized=True)
        y = measure(Phi, np.zeros(10))
        with pytest.raises(ValueError):
            tsgbomp(Phi, y, iterations=1, L=3, B=1, epsilon=0.0)
        with pytest.raises(ValueError):
            tsgbomp(Phi, y, iterations=1, L=2, B=3, epsilon=0.0)

    def test_complex_instance(self):
        rng = np.random.default_rng(6)
        n, m = 32, 24
        Phi = gaussian_matrix(m, n, "unit", True, rng, complex_entries=True)
        params = PibsParams.from_window(n=n, b=2, p=2, l=4, L=4, K=2, R=0)
        support = sample_support(params, 2, rng)
        x = np.zeros(n, dtype=complex)
        cols = support.column_array
        x[cols] = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
        y = measure(Phi, x)
        res = tsgbomp(Phi, y, iterations=2, L=4, B=4,
                      epsilon=1e-8 * np.linalg.norm(y))
        assert set(support.columns).issubset(res.estimated_columns)
        assert np.linalg.norm(res.x_hat - x) <= 1e-6 * np.linalg.norm(x)


@pytest.mark.parametrize("epsilon", [-1e-12, -np.inf, np.inf, np.nan])
@pytest.mark.parametrize("algorithm", ["tsgbomp", "bomp"])
def test_threshold_outside_its_domain_raises(algorithm, epsilon):
    # nan and inf used to run no iteration, and a negative value acted as 0
    Phi, y, _, _ = make_instance(n=40, m=32, K=1)
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        solve(algorithm, Phi, y, iterations=1, L=8, B=8, epsilon=epsilon)


class TestBomp:
    def test_single_partition_block_one_iteration(self):
        Phi = SensingMatrix(np.eye(8), normalized=True)
        x = np.zeros(8)
        x[4:6] = 2.0  # inside partition block [5..6] is block 3 of length 2
        y = measure(Phi, x)
        res = bomp(Phi, y, iterations=4, B=2, epsilon=1e-10)
        assert res.iterations == 1
        assert res.estimated_columns == (5, 6)

    def test_straddling_cluster_needs_two_iterations(self):
        Phi = SensingMatrix(np.eye(6), normalized=True)
        x = np.zeros(6)
        x[1] = 1.0
        x[2] = 2.0
        y = measure(Phi, x)
        res = bomp(Phi, y, iterations=3, B=2, epsilon=1e-10)
        assert res.iterations == 2
        assert set((2, 3)).issubset(res.estimated_columns)

    def test_regression_trace_pinned(self):
        rng = np.random.default_rng(314)
        Phi = gaussian_matrix(24, 32, "unit", True, rng)
        params = PibsParams.from_window(n=32, b=2, p=2, l=4, L=4, K=2, R=0)
        support = sample_support(params, 2, rng)
        x = fill_values(support, "const:10", rng)
        y = measure(Phi, x)
        res = bomp(Phi, y, iterations=2, B=4, epsilon=1e-6 * np.linalg.norm(y))
        assert support.clusters == ((2, 1), (20, 1))
        assert [r.window for r in res.trace] == [1, 6]
        assert res.estimated_columns == (1, 2, 3, 4, 21, 22, 23, 24)
        assert [r.residual_norm for r in res.trace] == pytest.approx(
            [9.993244442491541, 7.7172034780572805], rel=1e-12
        )


class TestSuccessCheck:
    def test_exact_match(self):
        _, _, support, x = make_instance(K=2, seed=2)
        res_cols = support.columns
        from tsgbomp.recovery import RecoveryResult

        res = RecoveryResult(
            estimated_columns=res_cols, x_hat=x.copy(), trace=(), stop_reason="budget",
        )
        assert success_check(res, support, x)

    def test_missing_index_fails(self):
        _, _, support, x = make_instance(K=2, seed=2)
        from tsgbomp.recovery import RecoveryResult

        res = RecoveryResult(
            estimated_columns=support.columns[1:], x_hat=x.copy(),
            trace=(), stop_reason="budget",
        )
        assert not success_check(res, support, x)

    def test_superset_with_noiseless_refit(self):
        Phi, y, support, x = make_instance(K=2, seed=8)
        extra = [c for c in range(1, 201) if c not in support.columns][:4]
        cols = sorted(set(support.columns) | set(extra))
        u, *_ = np.linalg.lstsq(Phi.entries[:, np.asarray(cols) - 1], y, rcond=None)
        x_hat = np.zeros(200)
        x_hat[np.asarray(cols) - 1] = u
        from tsgbomp.recovery import RecoveryResult

        res = RecoveryResult(
            estimated_columns=tuple(cols), x_hat=x_hat, trace=(), stop_reason="budget",
        )
        assert success_check(res, support, x)


class TestReports:
    def test_report_and_csv_render(self):
        Phi, y, _, _ = make_instance(seed=1)
        res = tsgbomp(Phi, y, iterations=4, L=8, B=8, epsilon=0.0)
        text = result_report(res)
        assert "estimated columns:" in text
        csv = trace_to_csv(res)
        assert csv.splitlines()[0] == "k,window,cluster_start,residual_norm"
        assert len(csv.splitlines()) == res.iterations + 1


def _reference_greedy(Phi, y, iterations, epsilon, width, select):
    """The greedy loop with a full least-squares refit on every iteration."""
    dtype = complex if Phi.is_complex or np.iscomplexobj(y) else float
    r = y.astype(dtype)
    covered = np.zeros(Phi.n, dtype=bool)
    trace = []
    u = None
    cols0 = np.empty(0, dtype=np.intp)
    k = 0
    while np.linalg.norm(r) >= epsilon and k < iterations:
        k += 1
        window, start = select(np.abs(Phi.entries.conj().T @ r) ** 2)
        covered[start - 1 : start - 1 + width] = True
        cols0 = np.flatnonzero(covered)
        A = Phi.entries[:, cols0]
        u, *_ = np.linalg.lstsq(A, y, rcond=None)
        r = y - A @ u
        trace.append(IterationRecord(k, window, start, float(np.linalg.norm(r))))
    stop = "residual-threshold" if np.linalg.norm(r) < epsilon else "budget"
    x_hat = np.zeros(Phi.n, dtype=dtype)
    if u is not None:
        x_hat[cols0] = u
    return RecoveryResult(tuple(int(c) + 1 for c in cols0), x_hat, tuple(trace), stop)


def _check_against_reference(algorithm, Phi, y, iterations, L, B, epsilon):
    """Solve once as shipped and once with the reference loop; the picks,
    stop and x_hat bytes must agree and the residual norms to rel=1e-9 (to
    1e-12 of |y| when at rounding level). Returns the result and the number
    of np.linalg.lstsq calls it made."""
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        got = solve(algorithm, Phi, y, iterations, L, B, epsilon)
    with mock.patch.object(recovery, "_greedy", _reference_greedy):
        want = solve(algorithm, Phi, y, iterations, L, B, epsilon)

    def picks(res):
        return [(t.k, t.window, t.cluster_start) for t in res.trace]

    assert picks(got) == picks(want)
    assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
    assert [t.residual_norm for t in got.trace] == pytest.approx(
        [t.residual_norm for t in want.trace],
        rel=1e-9, abs=1e-12 * np.linalg.norm(y),
    )
    assert got.estimated_columns == want.estimated_columns
    assert got.x_hat.dtype == want.x_hat.dtype
    assert got.x_hat.tobytes() == want.x_hat.tobytes()
    return got, lstsq.call_count


def _random_instance(kind, seed, m, n, complex_entries, noise):
    """A Gaussian m x n matrix and a measurement of a random sparse signal.
    kind "duplicate" copies column 0 into column 1 and puts signal on both;
    kind "orthogonal" zeroes the last row of Phi and measures only e_m, so
    every correlation is exactly zero and every pick after the first
    repeats it."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_entries else z

    entries = draw(m, n)
    x = np.zeros(n, dtype=entries.dtype)
    x[rng.choice(n, size=max(1, m // 3), replace=False)] = draw(max(1, m // 3))
    if kind == "duplicate":
        entries[:, 1] = entries[:, 0]
        x[:2] = 10 * draw(2)
    y = entries @ x + noise * draw(m)
    if kind == "orthogonal":
        entries[-1] = 0
        y = np.zeros(m, dtype=entries.dtype)
        y[-1] = 1.0
    return SensingMatrix(entries), y


class TestIncrementalResidual:
    """The QR-updated residual and the single final refit against a loop
    that refits by least squares on every iteration."""

    @given(
        algorithm=st.sampled_from(["tsgbomp", "bomp"]),
        kind=st.sampled_from(["gaussian", "duplicate", "orthogonal"]),
        complex_entries=st.booleans(),
        noise=st.sampled_from([0.0, 0.05]),
        B=st.integers(1, 6),
        windows=st.integers(3, 6),
        K=st.integers(1, 6),
        m_share=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_lstsq_every_iteration(
        self, algorithm, kind, complex_entries, noise, B, windows, K, m_share, seed
    ):
        L = 2 * B
        n = L * windows
        m = max(2, int(m_share * n))
        Phi, y = _random_instance(kind, seed, m, n, complex_entries, noise)
        epsilon = 1e-6 * np.linalg.norm(y)
        _check_against_reference(algorithm, Phi, y, K, L, B, epsilon)

    def test_one_lstsq_per_solve_without_fallback(self):
        Phi, y, support, x = make_instance(K=6, seed=9)
        epsilon = 1e-6 * np.linalg.norm(y)
        res, calls = _check_against_reference("tsgbomp", Phi, y, 6, 8, 8, epsilon)
        assert success_check(res, support, x)
        assert calls == 1

    def test_overlapping_picks(self):
        # a run of six true columns: the first pick takes the strong four
        # (columns 3-6), the second the weak two and two covered ones
        rng = np.random.default_rng(5)
        Phi = gaussian_matrix(60, 96, "unit", True, rng)
        x = np.zeros(96)
        x[2:6] = 10.0
        x[0:2] = 3.0
        y = measure(Phi, x)
        res, calls = _check_against_reference(
            "tsgbomp", Phi, y, 3, 8, 4, 1e-6 * np.linalg.norm(y)
        )
        assert [t.cluster_start for t in res.trace] == [3, 1]
        assert res.estimated_columns == (1, 2, 3, 4, 5, 6)
        assert calls == 1

    @pytest.mark.parametrize("algorithm", ["tsgbomp", "bomp"])
    def test_repeated_picks_add_no_columns(self, algorithm):
        Phi, y = _random_instance("orthogonal", 3, 12, 24, True, 0.0)
        res, calls = _check_against_reference(algorithm, Phi, y, 3, 4, 4, 0.0)
        assert res.iterations == 3
        assert len({t.cluster_start for t in res.trace}) == 1
        assert res.estimated_columns == (1, 2, 3, 4)
        assert calls == 1

    @pytest.mark.parametrize("algorithm", ["tsgbomp", "bomp"])
    def test_fallback_on_duplicated_column(self, algorithm):
        Phi, y = _random_instance("duplicate", 11, 20, 40, False, 0.0)
        res, calls = _check_against_reference(algorithm, Phi, y, 4, 4, 4, 0.0)
        assert res.trace[0].cluster_start == 1
        # the first pick covers both copies: every iteration refits for its
        # residual, and one refit after the loop gives the coefficients
        assert res.iterations == 4
        assert calls == res.iterations + 1

    @pytest.mark.parametrize("m, fitted", [(10, 2), (3, 0)])
    def test_fallback_when_columns_outnumber_rows(self, m, fitted):
        # picks of 4 columns: at m=10 the third pick would make 12 > 10, at
        # m=3 the first already does
        Phi, y = _random_instance("gaussian", 2, m, 40, False, 0.05)
        res, calls = _check_against_reference("bomp", Phi, y, 4, 4, 4, 1e-9)
        assert len(res.estimated_columns) > m
        assert calls == res.iterations - fitted + 1

    @staticmethod
    def _monomials(n):
        # columns t^j on [0, 1]: nearly parallel, but independent
        t = np.linspace(0.0, 1.0, 40)
        entries = t[:, None] ** np.arange(n)
        return entries / np.linalg.norm(entries, axis=0)

    def test_ill_conditioned_columns(self):
        entries = self._monomials(12)  # condition number about 8e7
        y = np.random.default_rng(0).standard_normal(40)
        res, calls = _check_against_reference(
            "bomp", SensingMatrix(entries), y, 6, 2, 2, 0.0
        )
        assert res.estimated_columns == tuple(range(1, 13))
        assert calls == 1

    def test_basis_stays_orthonormal(self):
        # one Gram-Schmidt pass leaves |Q^T Q - I| at about 2e-2 here
        entries = self._monomials(12)
        Q = np.empty((40, 12), order="F")
        for j in range(0, 12, 2):
            Q2 = recovery._extend_basis(Q, j, entries[:, j : j + 2].copy())
            assert Q2 is not None
        assert np.abs(Q.T @ Q - np.eye(12)).max() < 1e-13
        assert np.allclose(Q @ (Q.T @ entries), entries, rtol=0, atol=1e-12)


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _digest_results(results) -> str:
    """SHA-256 over each solve's stop reason, estimated columns, the repr of
    every trace residual norm and the x_hat bytes: any last-bit change in
    the loop or its refit changes it."""
    h = hashlib.sha256()
    for res in results:
        residuals = ",".join(repr(t.residual_norm) for t in res.trace)
        h.update(f"{res.stop_reason}|{res.estimated_columns}|{residuals}|".encode())
        h.update(res.x_hat.dtype.str.encode() + res.x_hat.tobytes())
    return h.hexdigest()


class TestSolverBitPin:
    """Solver outputs pinned bit for bit. `TestIncrementalResidual` allows
    the residual norms rel=1e-9 of its reference; these hashes allow
    nothing, so a change that reorders the loop's arithmetic must show that
    it keeps every bit, or say why it rewrites a hash."""

    def test_curve_trials(self):
        # three trials of every (K, algorithm) point of the four published
        # curves, drawn by run_trial itself: 336 solves
        results = []

        def solve_and_keep(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        with mock.patch.object(experiments, "solve", solve_and_keep):
            for path in sorted(CONFIGS.glob("*.cfg")):
                config = experiments.ExperimentConfig.from_text(path.read_text())
                for K in config.K_grid:
                    for algorithm in config.algorithms:
                        for t in range(3):
                            seed = experiments.trial_seed(config.master_seed, K, algorithm, t)
                            experiments.run_trial(config, K, algorithm, seed)
        assert len(results) == 336
        assert _digest_results(results) == (
            "f520e5af7196ede098670a443c9b11c8395ac0ddd784d06b765364ad2a0a8b7b"
        )

    def test_complex_and_fallback_solves(self):
        # the complex loop, and both fallbacks: a duplicated column, and
        # more covered columns than rows
        results = []
        for seed in range(4):
            for kind, m, complex_entries in [
                ("gaussian", 30, True), ("duplicate", 20, False), ("gaussian", 10, False),
            ]:
                Phi, y = _random_instance(kind, seed, m, 40, complex_entries, 0.05)
                for algorithm, L in [("tsgbomp", 8), ("bomp", None)]:
                    results.append(solve(algorithm, Phi, y, 4, L, 4, 1e-9))
        assert _digest_results(results) == (
            "1d42c10d960a86e5494d6106dcd2a6aec3c148457e4af5060843096adc553245"
        )
