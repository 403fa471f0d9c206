import itertools
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsgbomp import analysis, signal_model
from tsgbomp.analysis import thm2_bound
from tsgbomp.signal_model import (
    CountComparison,
    EnumerationCapError,
    GeometryError,
    PibsParams,
    Support,
    compare_counts,
    count_supports_formula,
    cell_rows,
    enumerate_supports,
    fill_values,
    formula_assumptions,
    iter_cell,
    min_separation,
    sample_support,
    signal_to_csv,
    signal_values_from_csv,
    support_from_text,
    support_to_text,
    validate_support,
)


def block_starts(sup):
    """The 1-based start of each block of the support's clusters, in order."""
    b = sup.params.b
    return tuple(start + i * b for start, j in sup.clusters for i in range(j))


def make_params(**kw):
    defaults = dict(n=20, b=1, p=1, l=0, Lsep=2, K=2, R=0)
    defaults.update(kw)
    return PibsParams(**defaults)


class TestMinSeparation:
    @pytest.mark.parametrize(
        "b,p,L,expected", [(4, 2, 8, 20), (1, 1, 1, 2), (4, 1, 8, 12)]
    )
    def test_plug_in(self, b, p, L, expected):
        assert min_separation(b, p, L) == expected

    @given(
        b=st.integers(1, 6), p=st.integers(1, 4), L=st.integers(1, 30)
    )
    def test_formula(self, b, p, L):
        assert min_separation(b, p, L) == L + 2 * p * b - b


class TestParams:
    def test_window_constructor_records_L(self):
        params = PibsParams.from_window(n=200, b=4, p=2, l=8, L=8, K=4, R=0)
        assert params.Lsep == 20
        assert params.window_length == 8
        assert params.B == 8

    def test_window_and_separation_constructors_agree(self):
        # one geometry, however it is given, so both share the cell caches
        by_window = PibsParams.from_window(n=200, b=4, p=2, l=8, L=8, K=4, R=0)
        by_separation = PibsParams(n=200, b=4, p=2, l=8, Lsep=20, K=4, R=0)
        assert by_window == by_separation
        assert hash(by_window) == hash(by_separation)

    def test_pseudo_length_bounded_by_separation(self):
        with pytest.raises(ValueError):
            make_params(l=3, Lsep=2)


class TestValidateSupport:
    def test_gap_exactly_at_bound(self):
        params = make_params(n=20, b=4, Lsep=5)
        sup = Support(clusters=((1, 1), (10, 1)), pseudo=(), params=params)
        ok, bad = validate_support(sup)
        assert ok and not bad

    def test_gap_below_bound(self):
        params = make_params(n=20, b=4, Lsep=6)
        sup = Support(clusters=((1, 1), (10, 1)), pseudo=(), params=params)
        ok, bad = validate_support(sup)
        assert not ok
        assert any("separation" in msg for msg in bad)

    def test_pseudo_overlapping_cluster(self):
        params = make_params(n=20, b=4, Lsep=5, l=3, R=1)
        sup = Support(clusters=((1, 1),), pseudo=(3,), params=params)
        ok, bad = validate_support(sup)
        assert not ok
        assert any("pseudo-overlap" in msg for msg in bad)

    def test_pseudo_adjacent_to_cluster_is_fine(self):
        params = make_params(n=20, b=4, Lsep=5, l=3, R=1)
        sup = Support(clusters=((1, 1),), pseudo=(5,), params=params)
        ok, _ = validate_support(sup)
        assert ok

    def test_columns_union(self):
        params = make_params(n=30, b=3, p=2, Lsep=4, l=2, R=1)
        sup = Support(clusters=((2, 2),), pseudo=(20,), params=params)
        assert sup.columns == (2, 3, 4, 5, 6, 7, 20, 21)
        assert block_starts(sup) == (2, 5)


class TestSampling:
    def test_singleton_frequencies(self):
        params = make_params(n=4, K=1)
        rng = np.random.default_rng(0)
        counts = Counter(
            sample_support(params, 1, rng).columns for _ in range(10_000)
        )
        assert set(counts) == {(1,), (2,), (3,), (4,)}
        for freq in counts.values():
            assert abs(freq / 10_000 - 0.25) < 0.02

    def test_infeasible_geometry(self):
        params = make_params(n=3, b=2, K=2)
        with pytest.raises(GeometryError):
            sample_support(params, 2, np.random.default_rng(0))

    def test_sampled_support_validates(self):
        params = PibsParams.from_window(n=200, b=4, p=2, l=8, L=8, K=4, R=0)
        rng = np.random.default_rng(7)
        sup = sample_support(params, 4, rng)
        ok, bad = validate_support(sup)
        assert ok, bad

    def test_deterministic_given_seed(self):
        params = PibsParams.from_window(n=100, b=2, p=2, l=4, L=4, K=3, R=0)
        s1 = sample_support(params, 3, np.random.default_rng(5))
        s2 = sample_support(params, 3, np.random.default_rng(5))
        assert s1 == s2

    def test_exact_fit_arrangement(self):
        # only a handful of admissible layouts exist; rejection-free placement
        # must still find one
        params = PibsParams.from_window(n=200, b=4, p=2, l=8, L=8, K=15, R=0)
        sup = sample_support(params, 15, np.random.default_rng(1))
        ok, bad = validate_support(sup)
        assert ok, bad

    @pytest.mark.parametrize("K,R", [(30, 0)])
    def test_counts_beyond_int64(self, K, R):
        params = PibsParams(n=1000, b=1, p=1, l=2, Lsep=2, K=K, R=R)
        sup = sample_support(params, K, np.random.default_rng(0))
        ok, bad = validate_support(sup)
        assert ok, bad
        assert (len(block_starts(sup)), len(sup.pseudo)) == (K, R)


def assert_combinations_match_itertools(m, k):
    """`_combinations(m, k)` holds the k-subsets of range(m) as its columns,
    in `itertools.combinations` order."""
    got = signal_model._combinations(m, k)
    assert got.dtype == np.int32 and got.shape == (k, math.comb(m, k))
    assert list(map(tuple, got.T.tolist())) == list(itertools.combinations(range(m), k))


def assert_rows_match_iter_cell(params, k, r):
    """`cell_rows` holds iter_cell's supports in iter_cell's order: the
    block starts and pseudo starts of each row, the columns the scan
    expands them to, and the Support it rebuilds. Returns the cell's
    size. The rows are of the narrowest signed type whose minimum is at
    most -(n + max(b, l))."""
    cell = cell_rows(params, k, r)
    sups = list(iter_cell(params, k, r))
    assert len(cell) == len(sups) == signal_model.cell_count(params, k, r)
    reach = params.n + max(params.b, params.l)
    dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).min <= -reach)
    assert cell.blocks.dtype == cell.pseudo.dtype == dtype
    width = k * params.b + r * params.l
    columns = np.empty((len(sups), width), dtype)
    if len(sups) and width:
        columns = analysis._row_columns(cell.segments, np.arange(len(sups)))
    assert columns.dtype == dtype and columns.shape == (len(sups), width)
    assert cell.blocks.shape == (len(sups), k) and cell.pseudo.shape == (len(sups), r)
    for i, sup in enumerate(sups):
        assert tuple(columns[i] + 1) == sup.columns
        assert tuple(cell.blocks[i] + 1) == block_starts(sup)
        assert tuple(cell.pseudo[i] + 1) == sup.pseudo
        assert cell.support(i) == sup
    return len(sups)


class TestEnumeration:
    def test_singletons_plus_empty(self):
        params = make_params(n=4, K=1)
        sups = enumerate_supports(params, 1, 0)
        assert len(sups) == 5
        assert sum(1 for s in sups if s.is_empty()) == 1

    def test_two_block_supports_n5(self):
        params = make_params(n=5, K=2)
        two = [s.columns for s in iter_cell(params, 2, 0)]
        assert two == [(1, 4), (1, 5), (2, 5)]

    @pytest.mark.parametrize(
        "n,b,p,l,Lsep",
        [(9, 1, 2, 2, 2), (9, 2, 1, 1, 2), (8, 1, 3, 0, 1), (10, 1, 2, 3, 3), (11, 2, 2, 2, 3)],
    )
    def test_matches_brute_force_oracle(self, n, b, p, l, Lsep):
        # every valid (clusters, pseudo) pair over all starts and block counts,
        # in (cluster count, block counts, starts, pseudo) order
        params = PibsParams(n=n, b=b, p=p, l=l, Lsep=Lsep, K=3, R=2)
        pairs = [(s, j) for s in range(1, n + 1) for j in range(1, p + 1)]
        for k in range(4):
            layouts = [
                Support(clusters=chosen, pseudo=(), params=params)
                for c in range(k + 1)
                for chosen in itertools.combinations(pairs, c)
                if sum(j for _, j in chosen) == k
            ]
            layouts = [sup.clusters for sup in layouts if validate_support(sup)[0]]
            for r in range(3):
                candidates = [
                    Support(clusters=clusters, pseudo=pseudo, params=params)
                    for clusters in layouts
                    for pseudo in itertools.combinations(range(1, n + 1), r)
                ]
                valid = [sup for sup in candidates if validate_support(sup)[0]]
                valid.sort(key=lambda s: (
                    len(s.clusters), [j for _, j in s.clusters], [start for start, _ in s.clusters], s.pseudo,
                ))
                assert list(iter_cell(params, k, r)) == valid
                assert signal_model.cell_count(params, k, r) == len(valid)

    def test_thousand_clusters_enumerate_without_recursion(self):
        # 1000 single-block clusters one column apart fill 1999 columns
        params = PibsParams(n=1999, b=1, p=1, l=0, Lsep=1, K=1000, R=0)
        (sup,) = iter_cell(params, 1000, 0)
        assert sup.columns == tuple(range(1, 2000, 2))
        assert_rows_match_iter_cell(params, 1000, 0)

    @pytest.mark.parametrize(
        "n,b,p,Lsep,K",
        [(9, 1, 1, 2, 3), (12, 1, 2, 3, 3), (14, 2, 2, 2, 3), (11, 1, 3, 4, 3), (12, 1, 3, 2, 4)],
        # K = 4 lays out three clusters, one of two blocks, and four clusters
        ids=["9-1-1-2", "12-1-2-3", "14-2-2-2", "11-1-3-4", "12-1-3-2-K4"],
    )
    @pytest.mark.parametrize("chunked", [False, True])
    def test_cell_rows_match_iter_cell(self, n, b, p, Lsep, K, chunked, monkeypatch):
        # every cell with k <= K and r <= 2, the empty ones included; chunked
        # enumeration steps take two rows at a time
        if chunked:
            monkeypatch.setattr(signal_model, "_ROW_CHUNK_ELEMENTS", 2 * n)
        empty = 0
        for l in sorted({0, 1, 2, Lsep}):
            params = PibsParams(n=n, b=b, p=p, l=l, Lsep=Lsep, K=K, R=2)
            for k in range(K + 1):
                for r in range(3):
                    empty += assert_rows_match_iter_cell(params, k, r) == 0
        assert empty > 0

    def test_cell_rows_widen_to_int32(self):
        # n + b = 40,001 leaves int16, so the rows and their columns are int32
        params = PibsParams(n=40_000, b=1, p=1, l=0, Lsep=1, K=1, R=0)
        assert assert_rows_match_iter_cell(params, 1, 0) == 40_000

    def test_enumeration_peak_stays_near_the_rows(self):
        # the (1, 2) cell of the p=1 curve geometry: 2,633,925 int16 rows of
        # 3 starts; one enumeration step allocates about 1 MB besides them
        params = PibsParams(n=200, b=4, p=1, l=12, Lsep=12, K=1, R=2)
        tracemalloc.start()
        try:
            cell = cell_rows(params, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = cell.blocks.nbytes + cell.pseudo.nbytes
        assert len(cell) == 2_633_925 and cell.blocks.dtype == np.int16
        assert peak < 1.5 * rows

    @pytest.mark.parametrize("b,l", [(2, 10), (2, 3), (3, 6), (4, 2)])
    def test_cells_hold_runs_not_columns(self, b, l):
        # a cell stores only its block and pseudo starts, the starts of runs
        # of b and l columns; the scan expands them into ascending columns
        # for the rows it gathers
        params = PibsParams(n=40, b=b, p=2, l=l, Lsep=l, K=2, R=2)
        for r in (0, 1, 2):
            cell = cell_rows(params, 2, r)
            assert len(cell) > 0 and cell.segments == ((cell.blocks, b), (cell.pseudo, l))
            assert not hasattr(cell, "runs") and not hasattr(cell, "columns")
            rows = np.arange(0, len(cell), 7)
            columns = analysis._row_columns(cell.segments, rows)
            assert columns.shape == (len(rows), 2 * b + r * l)
            assert np.all(np.diff(columns, axis=1) > 0)
            if not r:
                blocks = cell.blocks[rows][:, :, None] + np.arange(b)
                assert np.array_equal(columns, blocks.reshape(len(rows), 2 * b))

    @pytest.mark.parametrize("m", range(13))
    def test_combinations_match_itertools(self, m):
        for k in range(m + 1):
            assert_combinations_match_itertools(m, k)

    @pytest.mark.parametrize("m", [13, 21, 32, 40])
    def test_wide_combinations_match_itertools(self, m):
        for k in range(5):
            assert_combinations_match_itertools(m, k)

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("error", [-1, 1])
    def test_cell_rows_miscount_raises(self, r, error, monkeypatch):
        params = PibsParams(n=12, b=1, p=2, l=2, Lsep=3, K=2, R=1)
        count = signal_model.cell_count(params, 2, r)
        monkeypatch.setattr(signal_model, "cell_count", lambda *args: count + error)
        with pytest.raises(AssertionError):
            cell_rows(params, 2, r)

    def test_budget_zero_is_only_empty(self):
        params = make_params(n=12, K=0)
        sups = enumerate_supports(params, 0, 0)
        assert len(sups) == 1 and sups[0].is_empty()

    def test_every_support_validates(self):
        params = PibsParams(n=20, b=2, p=2, l=3, Lsep=4, K=2, R=1)
        for sup in enumerate_supports(params, 2, 1):
            ok, bad = validate_support(sup)
            assert ok, bad

    def test_monotone_in_budgets(self):
        params = PibsParams(n=16, b=1, p=2, l=2, Lsep=3, K=3, R=1)
        sizes = {}
        for K in range(4):
            for R in range(2):
                sizes[(K, R)] = len(enumerate_supports(params, K, R))
        for K in range(3):
            for R in range(2):
                assert sizes[(K, R)] <= sizes[(K + 1, R)]
        for K in range(4):
            assert sizes[(K, 0)] <= sizes[(K, 1)]

    def test_cap_error_carries_count(self):
        params = make_params(n=30, K=3)
        with pytest.raises(EnumerationCapError) as err:
            enumerate_supports(params, 3, 0, cap=10)
        assert err.value.count > 10

    def test_no_duplicates(self):
        params = PibsParams(n=18, b=2, p=2, l=2, Lsep=4, K=2, R=1)
        sups = enumerate_supports(params, 2, 1)
        assert len(sups) == len(set(sups))


class TestCounting:
    def test_matches_enumeration_examples(self):
        assert count_supports_formula(make_params(n=4, K=1), 1, 0) == 4
        assert count_supports_formula(make_params(n=5, K=2), 2, 0) == 3

    def test_empty_budget(self):
        assert count_supports_formula(make_params(), 0, 0) == 1

    @pytest.mark.parametrize("n", [8, 15, 30])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("p", [1, 2])
    def test_pseudo_free_grid_agreement(self, n, b, p):
        for Lsep in (2, 4):
            for K in range(4):
                params = PibsParams(n=n, b=b, p=p, l=0, Lsep=Lsep, K=K, R=0)
                cmp = compare_counts(params, K, 0)
                assert cmp.match, cmp.describe()

    @pytest.mark.parametrize(
        "params,k,r,expected",
        [
            (PibsParams(n=200, b=4, p=2, l=20, Lsep=20, K=2, R=1), 2, 1, 2_125_447),
            (PibsParams(n=200, b=4, p=2, l=20, Lsep=20, K=3, R=1), 3, 1, 70_801_180),
            (PibsParams(n=160, b=1, p=1, l=2, Lsep=2, K=2, R=12), 2, 12,
             1_304_331_495_427_066_553_460),
            # 25 pseudo blocks of length 2 in one free run of 60 columns: C(35, 25)
            (PibsParams(n=60, b=1, p=1, l=2, Lsep=2, K=0, R=25), 0, 25, 183_579_396),
            # long signal: the count is linear in n
            (PibsParams(n=2000, b=1, p=1, l=2, Lsep=2, K=8, R=3), 8, 3,
             7_656_627_898_141_506_258_386_332_089_708),
            # 400 single-block clusters in 800 columns: compositions of depth 400
            (PibsParams(n=800, b=1, p=1, l=0, Lsep=1, K=400, R=0), 400, 0, 401),
        ],
        ids=["ric-K2", "ric-K3", "beyond-int64", "no-clusters", "long-signal", "deep-compositions"],
    )
    def test_pinned_pseudo_counts(self, params, k, r, expected):
        signal_model._cell_lattice.cache_clear()
        t0 = time.perf_counter()
        assert signal_model.cell_count(params, k, r) == expected
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("k,r", [(3, 0), (0, 2), (-1, 0), (0, -1)])
    def test_cell_outside_budgets_rejected(self, k, r):
        params = PibsParams(n=20, b=1, p=1, l=1, Lsep=2, K=2, R=1)
        with pytest.raises(ValueError, match=r"outside \[0, K=2\] x \[0, R=1\]"):
            signal_model.cell_count(params, k, r)

    @pytest.mark.parametrize("n,b,p,Lsep", [(9, 1, 1, 2), (12, 1, 2, 3), (14, 2, 2, 2), (11, 1, 3, 4)])
    def test_count_matches_enumeration(self, n, b, p, Lsep):
        for l in sorted({0, 1, 2, Lsep}):
            params = PibsParams(n=n, b=b, p=p, l=l, Lsep=Lsep, K=3, R=3)
            for k in range(4):
                for r in range(4):
                    enumerated = sum(1 for _ in iter_cell(params, k, r))
                    assert signal_model.cell_count(params, k, r) == enumerated, (l, k, r)

    def test_single_pseudo_discrepancy_is_reported(self):
        # per-gap occupancy counting misses interleavings; the comparison
        # must surface the gap rather than force agreement
        params = PibsParams(n=12, b=1, p=1, l=2, Lsep=2, K=2, R=1)
        cmp = compare_counts(params, 2, 1)
        assert formula_assumptions(params, 2, 1) == []
        assert not cmp.match
        assert "MISMATCH" in cmp.describe()

    def test_compare_counts_never_enumerates(self, monkeypatch):
        def walk(*args):
            raise AssertionError("compare_counts walked the cell")

        monkeypatch.setattr(signal_model, "iter_cell", walk)
        params = PibsParams(n=120, b=1, p=1, l=0, Lsep=2, K=3, R=0)
        cmp = compare_counts(params, 3, 0)
        assert cmp.exact == 253_460
        assert cmp.match

    def test_assumption_flags(self):
        params = PibsParams(n=30, b=2, p=2, l=4, Lsep=4, K=3, R=1)
        reasons = formula_assumptions(params, 3, 1)
        assert len(reasons) == 2

    def test_bound_value_pinned(self):
        # Theorem 2's count bound exp(h) over the order-(K-1, R) supports:
        # A and D count K - 1 = 3 blocks, the other terms K = 4
        rep = thm2_bound(1, 1, 1, 4, 0, 1000, 40, eps0=0.05, eps=0.05)
        expected = 3 * 3 / 8 + 4 * (21 / 8 - 1) + 4 * math.log((40 - 3 + 2) / 4 - 1)
        assert rep.h == pytest.approx(expected, rel=1e-12)
        assert math.exp(rep.h) == pytest.approx(12009574.942659318, rel=1e-12)

    def test_bound_monotone_in_n(self):
        values = [
            thm2_bound(1, 1, 1, 4, 0, 1000, n, eps0=0.05, eps=0.05).h for n in range(20, 60, 5)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bound_exponent_orders(self):
        # thm2_bound takes its union bound over the supports of the
        # order-(K-1, R) constant that the recovery certificate checks, so A
        # and D count K - 1 blocks. The other K terms are K.
        params = PibsParams.from_window(n=200, b=4, p=2, l=0, L=8, K=4, R=1)
        assert params.Lsep == 20
        rep = thm2_bound(4, 2, 8, 4, 1, 2000, 200, eps0=0.05, eps=0.05)
        terms = (2.0, 2.8181471805599454, 208.0, 19.0, 31.04319374820105)
        assert (rep.A, rep.C, rep.D, rep.E, rep.h) == terms
        assert analysis._count_bound_exponent(200, 4, 2, 20, 4, 1) == terms


class TestFillValues:
    def test_const_scheme(self):
        params = make_params(n=10, K=2)
        sup = Support(clusters=((1, 1), (5, 1)), pseudo=(), params=params)
        x = fill_values(sup, "const:10", np.random.default_rng(0))
        assert np.flatnonzero(x).tolist() == [0, 4]
        assert set(np.abs(x[[0, 4]])) == {10.0}

    @pytest.mark.parametrize(
        "scheme, match",
        [("bogus", "unknown value scheme 'bogus'"), ("const", "unknown value scheme 'const'"),
         ("const:0", "amplitude must be finite and > 0, got 0.0")],
    )
    def test_scheme_checked_on_empty_support(self, scheme, match):
        # the scheme used to be read only when the support had columns
        sup = Support(clusters=(), pseudo=(), params=make_params(K=0))
        with pytest.raises(ValueError, match=match):
            fill_values(sup, scheme, np.random.default_rng(0))

    def test_gaussian_empty_support_flagged(self):
        params = make_params(K=0)
        sup = Support(clusters=(), pseudo=(), params=params)
        x = fill_values(sup, "gaussian", rng=np.random.default_rng(0))
        assert x.shape == (params.n,)
        assert not x.any()

    def test_gaussian_deterministic(self):
        params = make_params(n=10, K=2)
        sup = Support(clusters=((1, 1), (5, 1)), pseudo=(), params=params)
        a = fill_values(sup, "gaussian", rng=np.random.default_rng(3))
        b = fill_values(sup, "gaussian", rng=np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.flatnonzero(a).tolist() == [0, 4]

    def test_pseudo_support_rejected(self):
        params = make_params(n=10, l=2, Lsep=2, R=1)
        sup = Support(clusters=(), pseudo=(4,), params=params)
        with pytest.raises(ValueError):
            fill_values(sup, "const:1", np.random.default_rng(0))


class TestSerialization:
    def test_support_round_trip(self):
        params = PibsParams(n=40, b=2, p=2, l=3, Lsep=5, K=2, R=2)
        sup = Support(clusters=((2, 2), (15, 1)), pseudo=(25, 30), params=params)
        text = support_to_text(sup)
        assert "cluster 2 2" in text and "pseudo 25" in text
        assert support_from_text(text, params) == sup

    @pytest.mark.parametrize(
        "text,violation",
        [
            ("cluster 1 5\n", "cluster-size"),
            ("cluster 38 2\n", "cluster-range"),
            ("cluster 2 2\ncluster 4 1\n", "separation"),
            ("cluster 2 1\ncluster 2 1\n", "separation"),
            ("cluster 2 2\npseudo 4\n", "pseudo-overlap"),
            ("pseudo 10\npseudo 11\n", "pseudo-overlap"),
            ("pseudo 39\n", "pseudo-range"),
        ],
        ids=["too-many-blocks", "past-n", "overlapping-clusters", "repeated-cluster",
             "pseudo-in-cluster", "overlapping-pseudo", "pseudo-past-n"],
    )
    def test_invalid_support_text_rejected(self, text, violation):
        params = PibsParams(n=40, b=2, p=2, l=3, Lsep=5, K=2, R=2)
        with pytest.raises(ValueError, match=f"invalid support: .*{violation}"):
            support_from_text(text, params)

    @pytest.mark.parametrize(
        "line", ["cluster a 1", "cluster 1.5 1", "cluster 2", "pseudo x", "block 3"]
    )
    def test_unrecognized_support_record_named(self, line):
        params = PibsParams(n=40, b=2, p=2, l=3, Lsep=5, K=2, R=2)
        with pytest.raises(ValueError, match=f"unrecognized support record: '{line}'"):
            support_from_text(f"cluster 2 1\n{line}\n", params)

    def test_signal_round_trip_real(self):
        x = np.zeros(9)
        x[2] = -1.5
        x[7] = 3.25
        again = signal_values_from_csv(signal_to_csv(x), 9)
        assert np.array_equal(x, again)

    @pytest.mark.parametrize("index", [0, -1, 10])
    def test_signal_index_outside_range_rejected(self, index):
        with pytest.raises(ValueError, match="outside"):
            signal_values_from_csv(f"index,value\n{index},1.0\n", 9)

    @pytest.mark.parametrize(
        "text",
        ["index,value\n3\n", "index,value\n3,1.0,2.0\n", "index,value\nx,1.0\n",
         "index,value\n3,y\n", "index,re,im\n3,1.0\n"],
    )
    def test_malformed_signal_row_rejected(self, text):
        with pytest.raises(ValueError, match="malformed"):
            signal_values_from_csv(text, 9)

    @pytest.mark.parametrize(
        "text",
        ["index,value\n3,nan\n", "index,value\n3,inf\n", "index,value\n3,-inf\n",
         "index,re,im\n3,1.0,nan\n"],
        ids=["nan", "inf", "-inf", "complex-nan"],
    )
    def test_non_finite_signal_value_rejected(self, text):
        with pytest.raises(ValueError, match="signal row '3,.*' holds a non-finite value"):
            signal_values_from_csv(text, 9)

    @pytest.mark.parametrize("text", ["index,value\n1,3\n1,4\n", "index,re,im\n1,3,0\n1,4,0\n"])
    def test_repeated_signal_index_rejected(self, text):
        with pytest.raises(ValueError, match="signal index 1 appears twice"):
            signal_values_from_csv(text, 3)

    def test_signal_round_trip_complex(self):
        x = np.zeros(6, dtype=complex)
        x[1] = 1 - 2j
        again = signal_values_from_csv(signal_to_csv(x), 6)
        assert np.array_equal(x, again)
