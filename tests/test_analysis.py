import itertools
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsgbomp import analysis, signal_model
from tsgbomp.analysis import (
    _order_deltas,
    cell_count,
    f_K,
    f_K_inverse,
    g_bounds,
    g_empirical,
    operator_norm_dev,
    pibric,
    pibric_table,
    real_part_lower_bound_check,
    thm1_certificate,
    thm2_bound,
    verify_lemmas,
)
from tsgbomp.experiments import lemma_audit
from tsgbomp.sensing import SensingMatrix, gaussian_matrix
from tsgbomp.signal_model import EnumerationCapError, PibsParams, iter_cell


def orthonormal_matrix(n, rng):
    """Orthonormal n x n matrix from the QR of a square Gaussian draw, with
    the signs fixed so that R has a positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return SensingMatrix(entries=q * np.sign(np.diag(r)), normalized=True)


class TestOperatorNormDev:
    def test_orthonormal_columns(self):
        Phi = SensingMatrix(np.eye(8), normalized=True)
        assert operator_norm_dev(Phi, [1, 4, 6]) == pytest.approx(0.0, abs=1e-10)

    def test_duplicated_column(self):
        Phi = gaussian_matrix(15, 6, "unit", True, np.random.default_rng(0))
        assert operator_norm_dev(Phi, [3, 3]) == pytest.approx(1.0, abs=1e-10)

    def test_two_columns_equals_inner_product(self):
        rng = np.random.default_rng(1)
        Phi = gaussian_matrix(15, 6, "unit", True, rng)
        c = abs(np.vdot(Phi.entries[:, 0], Phi.entries[:, 4]))
        assert operator_norm_dev(Phi, [1, 5]) == pytest.approx(c, abs=1e-10)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            operator_norm_dev(SensingMatrix(np.eye(4), normalized=True), [])

    def test_orthonormal_matrix_gram_is_identity(self):
        mat = orthonormal_matrix(8, np.random.default_rng(0))
        assert np.allclose(mat.gram, np.eye(8), atol=1e-12)


class TestPibric:
    def test_orthonormal_matrix_gives_zero(self):
        Phi = orthonormal_matrix(16, np.random.default_rng(2))
        params = PibsParams(n=16, b=1, p=1, l=2, Lsep=2, K=2, R=1)
        est = pibric(Phi, params, 2, 1)
        assert est.delta == pytest.approx(0.0, abs=1e-10)

    def test_reduces_to_pairwise_scan(self):
        rng = np.random.default_rng(3)
        Phi = gaussian_matrix(15, 20, "unit", True, rng)
        params = PibsParams(n=20, b=1, p=1, l=0, Lsep=2, K=2, R=0)
        est = pibric(Phi, params, 2, 0)
        G = Phi.gram
        pairwise = max(
            abs(G[i, j]) for i in range(20) for j in range(i + 3, 20)
        )
        assert est.delta == pytest.approx(pairwise, abs=1e-10)
        assert est.argmax is not None
        assert len(est.argmax.columns) == 2

    def test_block_monotonicity_on_random_matrices(self):
        params = PibsParams(n=24, b=1, p=1, l=2, Lsep=2, K=3, R=0)
        for seed in range(10):
            Phi = gaussian_matrix(16, 24, "unit", True, np.random.default_rng(seed))
            d = [pibric(Phi, params, K, 0).delta for K in (1, 2, 3)]
            assert d[0] <= d[1] + 1e-12 <= d[2] + 2e-12

    def test_cap_error(self):
        params = PibsParams(n=60, b=1, p=1, l=0, Lsep=1, K=4, R=0)
        Phi = SensingMatrix(np.eye(60), normalized=True)
        with pytest.raises(EnumerationCapError):
            pibric(Phi, params, 4, 0, cap=100)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, cap):
        params = PibsParams(n=12, b=1, p=1, l=0, Lsep=1, K=1, R=0)
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            pibric(SensingMatrix(np.eye(12), normalized=True), params, 1, 0, cap=cap)

    def test_cap_check_counts_every_cell_in_one_pass(self):
        # 65 cells, all read from one counting pass of the geometry
        params = PibsParams(n=1000, b=4, p=3, l=50, Lsep=100, K=12, R=4)
        Phi = SensingMatrix(np.eye(1000), normalized=True)
        signal_model._cell_lattice.cache_clear()
        t0 = time.perf_counter()
        with pytest.raises(EnumerationCapError) as err:
            pibric(Phi, params, 12, 4)
        assert time.perf_counter() - t0 < 1.0
        assert err.value.count == 667_939_705_693_488_502_226_193_470

    def test_cell_count_matches_enumeration(self):
        params = PibsParams(n=30, b=2, p=2, l=4, Lsep=6, K=2, R=2)
        for k in range(3):
            for r in range(3):
                assert cell_count(params, k, r) == sum(
                    1 for _ in iter_cell(params, k, r)
                )

    def test_structured_constant_below_classical(self):
        rng = np.random.default_rng(5)
        Phi = gaussian_matrix(10, 12, "unit", True, rng)
        params = PibsParams(n=12, b=1, p=1, l=1, Lsep=2, K=2, R=1)
        structured = pibric(Phi, params, 2, 1).delta
        # the unstructured constant: every 3-column subset, 220 rows
        subsets = np.array(list(itertools.combinations(range(12), 3)))
        unstructured = _full_scan_max(Phi.gram, subsets)[0]
        assert structured <= unstructured + 1e-12

    def test_ties_go_to_the_first_support(self, monkeypatch):
        # every column is the same unit vector, so each support's Gram matrix
        # is all ones and every support of a width ties
        Phi = SensingMatrix(np.full((4, 9), 0.5), normalized=True)
        monkeypatch.setattr(analysis, "_BOUND_BLOCK_ELEMENTS", 1)  # one row per block
        params = PibsParams(n=9, b=1, p=2, l=2, Lsep=2, K=2, R=1)
        # n = 2 leaves cell (2, 1) empty, so the cells (1, 1) and (2, 0) tie
        tiny = PibsParams(n=2, b=1, p=2, l=1, Lsep=1, K=2, R=1)
        est = pibric(Phi, params, 2, 1)
        assert est.delta == pytest.approx(3.0)
        assert est.argmax == next(iter_cell(params, 2, 1))
        est = pibric(SensingMatrix(Phi.entries[:, :2], normalized=True), tiny, 2, 1)
        assert est.delta == pytest.approx(1.0)
        assert est.argmax == next(iter_cell(tiny, 1, 1))

    def test_table_cells_and_order_constants(self, monkeypatch):
        # cell (2, 2) is empty and cell (1, 1) holds 20 supports, over the cap
        params = PibsParams(n=7, b=2, p=1, l=2, Lsep=2, K=2, R=2)
        Phi = gaussian_matrix(5, 7, "unit", True, np.random.default_rng(11))
        table = pibric_table(Phi, params, 2, 2, cell_cap=15)
        cells = [(k, r) for k in range(3) for r in range(3)]
        assert list(table) == cells
        assert table[(2, 2)].count == 0
        assert table[(2, 2)].delta == 0.0 and table[(2, 2)].argmax is None
        assert table[(1, 1)].skipped and math.isnan(table[(1, 1)].delta)
        for cell, stat in table.items():
            if not stat.count or stat.skipped:
                continue
            sups = list(iter_cell(params, *cell))
            assert stat.count == len(sups) and stat.argmax in sups
            if not stat.argmax.columns:
                assert stat.delta == 0.0
                continue
            devs = [operator_norm_dev(Phi, s.columns) for s in sups]
            assert stat.delta == pytest.approx(max(devs), abs=1e-12)
            assert operator_norm_dev(Phi, stat.argmax.columns) == pytest.approx(stat.delta, abs=1e-12)

        # an order is known iff none of its cells was skipped
        deltas = _order_deltas(table)
        assert list(deltas) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
        for (K, R), d in deltas.items():
            assert d == max(table[(k, r)].delta for k in range(K + 1) for r in range(R + 1))

        full = pibric_table(Phi, params, 2, 2, cell_cap=100)
        est = pibric(Phi, params, 2, 2)
        top = max(s.delta for s in full.values())
        first = next(s for s in full.values() if s.delta == top)
        assert est.delta == first.delta and est.argmax == first.argmax
        assert est.count == sum(s.count for s in full.values())

        # one row per block: every row of a cell is a block's seed
        monkeypatch.setattr(analysis, "_BOUND_BLOCK_ELEMENTS", 1)
        assert pibric_table(Phi, params, 2, 2, cell_cap=15) == table

    def test_identity_matrix_returns_empty_support(self):
        params = PibsParams(n=7, b=2, p=1, l=2, Lsep=2, K=2, R=2)
        est = pibric(SensingMatrix(np.eye(7), normalized=True), params, 2, 2)
        assert est.delta == 0.0 and est.argmax.is_empty()

    def test_complex_matrix_pairwise_reduction(self):
        rng = np.random.default_rng(9)
        Phi = gaussian_matrix(18, 14, "unit", True, rng, complex_entries=True)
        params = PibsParams(n=14, b=1, p=1, l=0, Lsep=2, K=2, R=0)
        est = pibric(Phi, params, 2, 0)
        G = Phi.gram
        pairwise = max(
            abs(G[i, j]) for i in range(14) for j in range(i + 3, 14)
        )
        assert est.delta == pytest.approx(pairwise, abs=1e-10)


def _deviations_of(G, idx):
    """max |eigenvalue| of G[S,S] - I for every row S of idx, from one
    eigvalsh of every row."""
    sub = G[idx[:, :, None], idx[:, None, :]]
    diag = np.arange(idx.shape[1])
    sub[:, diag, diag] -= 1.0
    ev = np.linalg.eigvalsh(sub)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def _full_scan_max(G, idx, rows=4096):
    """(max, first argmax row) of the max-|eigenvalue| of G[S,S] - I over
    the rows S of idx, from one eigvalsh of every row, `rows` rows at a
    time (eigvalsh solves each matrix of a stack on its own, so the
    values do not depend on the batch)."""
    best, arg = -1.0, -1
    for lo in range(0, len(idx), rows):
        devs = _deviations_of(G, idx[lo : lo + rows])
        i = int(np.argmax(devs))
        if devs[i] > best:
            best, arg = float(devs[i]), lo + i
    return best, arg


def _cell_columns(cell):
    """Every row's columns, ascending, as the scan gathers a cell's rows."""
    return analysis._row_columns(cell.segments, slice(None))


def _kernel_case(kind, complex_entries, s, rows, seed):
    """A Hermitian matrix G on 8 columns and index rows of width s into it.

    gaussian: the Gram matrix of unit Gaussian columns, random rows (which
    may repeat a column); duplicated: the same, with every other column a
    copy of column 0; equal: every column the same unit vector, so every
    row of a width ties; identity: G = I, so every deviation is 0;
    permuted: G = I + w w^H and every ordering of one column set, so the
    rows tie in exact arithmetic and differ only by rounding; tiny: the
    Gaussian case with off-diagonal entries scaled to about 1e-100 and rows
    of distinct columns, so the bound's fourth powers underflow."""
    rng = np.random.default_rng(seed)
    n = 8
    if kind == "permuted":
        w = _draw(rng, complex_entries, n)
        G = np.eye(n) + np.outer(w, w.conj())
        perms = list(itertools.permutations(rng.choice(n, size=s, replace=False)))
        return G, np.asarray(perms)[rng.permutation(len(perms))]
    G = _gram(kind, complex_entries, n, rng)
    if kind == "tiny":
        return G, np.argsort(rng.random((rows, n)), axis=1)[:, :s]
    return G, rng.integers(0, n, size=(rows, s))


def _draw(rng, complex_entries, *shape):
    z = rng.standard_normal(shape)
    return z + 1j * rng.standard_normal(shape) if complex_entries else z


def _gram(kind, complex_entries, n, rng):
    """G on n columns for the identity, gaussian, duplicated, equal and tiny
    kinds of `_kernel_case`, and small: the gaussian case with off-diagonal
    entries scaled to about 1e-20."""
    if kind == "identity":
        return np.eye(n)
    A = _draw(rng, complex_entries, 6, n)
    if kind == "duplicated":
        A[:, 2::2] = A[:, :1]
    elif kind == "equal":
        A[:] = A[:, :1]
    A /= np.linalg.norm(A, axis=0)
    G = A.conj().T @ A
    if kind in ("tiny", "small"):
        G = np.eye(n) + (1e-100 if kind == "tiny" else 1e-20) * (G - np.diag(np.diag(G)))
    return G


def _run_case(kind, complex_entries, g, w, rows, ordered, seed):
    """A Hermitian matrix G on 12 columns and rows of w disjoint runs of g
    consecutive columns into it, ascending (as a cell holds them) or in
    random order, and the rows' columns run by run."""
    rng = np.random.default_rng(seed)
    n = 12
    G = _gram(kind, complex_entries, n, rng)
    picks = np.argsort(rng.random((rows, n - w * (g - 1))), axis=1)[:, :w]
    runs = np.sort(picks, axis=1) + np.arange(w) * (g - 1)
    if not ordered:
        runs = np.take_along_axis(runs, np.argsort(rng.random(runs.shape), axis=1), axis=1)
    columns = (runs[:, :, None] + np.arange(g)).reshape(rows, w * g)
    return G, runs.astype(np.int32), columns


class TestScanKernel:
    """The bound-screened scan kernel against a full eigvalsh of every row."""

    @given(
        kind=st.sampled_from(["gaussian", "duplicated", "equal", "identity", "permuted", "tiny"]),
        complex_entries=st.booleans(),
        s=st.integers(1, 4),
        rows=st.integers(1, 300),
        block_elements=st.sampled_from([1, 20, 1 << 16]),
        dtype=st.sampled_from([np.intp, np.int32]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_eigvalsh(
        self, kind, complex_entries, s, rows, block_elements, dtype, seed
    ):
        G, idx = _kernel_case(kind, complex_entries, s, rows, seed)
        idx = idx.astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BOUND_BLOCK_ELEMENTS", block_elements)
            mp.setattr(analysis, "_SCAN_BATCH_ELEMENTS", block_elements)
            got = analysis._batched_max_opdev(G, ((idx, 1),))
        assert got == _full_scan_max(G, idx)

    @given(
        kind=st.sampled_from(["gaussian", "duplicated", "equal", "identity", "tiny"]),
        complex_entries=st.booleans(),
        g=st.sampled_from([2, 3, 4]),
        w=st.integers(1, 3),
        rows=st.integers(1, 300),
        ordered=st.booleans(),
        block_elements=st.sampled_from([1, 20, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_runs_match_full_eigvalsh_of_their_columns(
        self, kind, complex_entries, g, w, rows, ordered, block_elements, seed
    ):
        G, runs, columns = _run_case(kind, complex_entries, g, w, rows, ordered, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BOUND_BLOCK_ELEMENTS", block_elements)
            mp.setattr(analysis, "_SCAN_BATCH_ELEMENTS", block_elements)
            got = analysis._batched_max_opdev(G, ((runs, g),))
        assert got == _full_scan_max(G, columns)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_rounding_ties_match_full_eigvalsh(self, complex_entries):
        # permuted rows tie in exact arithmetic, so rounding decides both the
        # order of their bounds and which of them eigvalsh puts on top
        for seed in range(20):
            for s in (3, 4):
                G, idx = _kernel_case("permuted", complex_entries, s, 0, seed)
                assert analysis._batched_max_opdev(G, ((idx, 1),)) == _full_scan_max(G, idx)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_underflowing_bounds_match_full_eigvalsh(self, complex_entries):
        # deviations near 1e-100: every bound underflows to 0
        for seed in range(10):
            G, idx = _kernel_case("tiny", complex_entries, 3, 50, seed)
            assert analysis._batched_max_opdev(G, ((idx, 1),)) == _full_scan_max(G, idx)

    def test_tie_inside_a_later_batch_goes_to_the_lower_row(self):
        # row 0 has the largest bound (eigenvalues +-0.9, twice each) but not
        # the largest deviation; rows 1 and 2 are the same support, with one
        # eigenvalue 1, and are eigensolved together in the second batch
        G = np.eye(8)
        G[:4, :4] += 0.9 * np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        G[4:, 4:] += 0.25
        idx = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [4, 5, 6, 7]])
        got = analysis._batched_max_opdev(G, ((idx, 1),))
        assert got == _full_scan_max(G, idx)
        assert got[1] == 1

    def test_largest_bound_row_need_not_win(self):
        # the row with the largest pair bound is eigensolved first, and in
        # some of these cells a later candidate beats it
        beaten = 0
        for seed in range(20):
            G, idx = _kernel_case("gaussian", False, 3, 200, seed)
            diag, pair, _ = analysis._PairTables(G).read([1, 1, 1])
            bound = analysis._pair_bound(list(idx.T), [1, 1, 1], diag, pair)
            got = analysis._batched_max_opdev(G, ((idx.astype(np.int32), 1),))
            assert got == _full_scan_max(G, idx)
            beaten += got[1] != np.argmax(bound)
        assert beaten > 0

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_int32_and_intp_rows_gather_the_same(self, complex_entries):
        # the rows are random columns, repeats included
        G, columns = _kernel_case("gaussian", complex_entries, 4, 50, seed=3)
        wide = analysis._gather(G, columns.astype(np.intp))
        narrow = analysis._gather(G, columns.astype(np.int32))
        assert np.array_equal(wide, narrow)
        assert np.array_equal(wide, G[columns[:, :, None], columns[:, None, :]] - np.eye(4))
        # on 200 columns, column times 200 leaves int8 from column 1 and
        # int16 from column 164: rows of the top 50 columns each type holds
        rng = np.random.default_rng(3)
        G = _gram("gaussian", complex_entries, 200, rng)
        for dtype in (np.int8, np.int16):
            top = min(200, np.iinfo(dtype).max + 1)
            columns = rng.integers(top - 50, top, size=(50, 4))
            wide = analysis._gather(G, columns.astype(np.intp))
            assert np.array_equal(analysis._gather(G, columns.astype(dtype)), wide)
            assert np.array_equal(wide, G[columns[:, :, None], columns[:, None, :]] - np.eye(4))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_narrow_rows_screen_as_intp(self, dtype):
        # rows of 3 columns read the D, T and E tables of a 200-column G at
        # flat indices column * 200 + column, past int8 and int16 as above
        rng = np.random.default_rng(5)
        G = _gram("gaussian", False, 200, rng)
        top = min(200, np.iinfo(dtype).max + 1)
        idx = rng.integers(top - 50, top, size=(300, 3))
        got = analysis._batched_max_opdev(G, ((idx.astype(dtype), 1),))
        assert got == analysis._batched_max_opdev(G, ((idx, 1),)) == _full_scan_max(G, idx)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("kind", ["gaussian", "duplicated", "equal", "permuted", "tiny"])
    def test_bound_covers_every_deviation(self, kind, complex_entries):
        for s in range(1, 5):
            G, idx = _kernel_case(kind, complex_entries, s, 500, seed=s)
            M = G[idx[:, :, None], idx[:, None, :]]
            M[:, range(s), range(s)] -= 1.0
            ev = np.linalg.eigvalsh(M)
            devs = np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))
            # the coarse bound, and the fine bound as the scan computes it
            coarse = analysis._eig_bound(M) * (1.0 + analysis._BOUND_MARGIN)
            fine = np.sqrt(analysis._eig_bound(M @ M)) * (1.0 + analysis._BOUND_MARGIN)
            assert np.all(coarse + analysis._BOUND_FLOOR >= devs)
            assert np.all(fine + analysis._FINE_BOUND_FLOOR >= devs)

    def test_out_of_range_column_raises(self):
        # the gather's flat take clips, so the range is checked first; a
        # segment of 2 columns from start 1 ends at column 2 of 3, one from
        # start 2 past it. Each segment is checked on its own width, so a
        # start that fits a block of 1 can still leave G as a block of 2.
        eye = np.eye(3)
        assert analysis._batched_max_opdev(eye, ((np.array([[1]]), 2),)) == (0.0, 0)
        two = ((np.array([[0]]), 1), (np.array([[1]]), 2))
        assert analysis._batched_max_opdev(eye, two) == (0.0, 0)
        for idx, width in (([[0, 3]], 1), ([[-1, 0]], 1), ([[2]], 2), ([[0, 2]], 2), ([[-1]], 2)):
            with pytest.raises(IndexError):
                analysis._batched_max_opdev(eye, ((np.array(idx), width),))
        for blocks, pseudo in (([[0]], [[2]]), ([[3]], [[0]]), ([[0]], [[-1]]), ([[-1]], [[1]])):
            with pytest.raises(IndexError):
                analysis._batched_max_opdev(eye, ((np.array(blocks), 1), (np.array(pseudo), 2)))
        # a row that covers no column deviates by 0
        empty = ((np.empty((2, 0), int), 2), (np.array([[0], [1]]), 0))
        assert analysis._batched_max_opdev(eye, empty) == (0.0, 0)

    def test_screen_skips_eigensolves(self):
        params = PibsParams(n=50, b=1, p=1, l=0, Lsep=1, K=3, R=0)
        Phi = gaussian_matrix(30, 50, "unit", True, np.random.default_rng(12))
        cell = analysis._cell_data(params, 3, 0)
        assert len(cell) >= 10_000
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
            table = pibric_table(Phi, params, 3, 0, 200_000)
        solved = sum(call.args[0].shape[0] for call in eig.call_args_list)
        assert solved < len(cell)
        delta, i = _full_scan_max(Phi.gram, _cell_columns(cell))
        assert (table[(3, 0)].delta, table[(3, 0)].argmax) == (delta, cell.support(i))


def _segment_case(kind, complex_entries, b, l, k, r, rows, seed):
    """A Hermitian matrix G on 24 columns and rows of k blocks of b columns
    and r pseudo blocks of l columns, pairwise disjoint, at random places
    in random order: the block starts (rows, k), the pseudo starts
    (rows, r) and each row's columns, blocks first."""
    rng = np.random.default_rng(seed)
    n = 24
    G = _gram(kind, complex_entries, n, rng)
    widths = np.array([b] * k + [l] * r)
    starts = np.empty((rows, k + r), np.int32)
    for row in range(rows):
        order = rng.permutation(k + r)
        gaps = np.sort(rng.integers(0, n - widths.sum() + 1, size=k + r))
        ends = np.cumsum(widths[order]) - widths[order]
        starts[row, order] = gaps + ends
    columns = np.concatenate(
        [starts[:, [j]] + np.arange(h) for j, h in enumerate(widths)], axis=1
    )
    return G, starts[:, :k], starts[:, k:], columns


def _assert_pair_bound_covers(G, segments, columns, strip_elements, block_elements):
    """The pair bound of every row, times 1 + margin plus its floor, is at
    least the row's deviation from a full eigvalsh, and so is the bound
    without the E tables, which is never below it; the D and T tables are
    built in strips of `strip_elements` entries and E in blocks of
    `block_elements`. Returns both bounds, without E and with it."""
    widths = [h for part, h in segments for _ in range(part.shape[1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_TABLE_STRIP_ELEMENTS", strip_elements)
        mp.setattr(analysis, "_BOUND_BLOCK_ELEMENTS", block_elements)
        diag, pair, two = analysis._PairTables(G).read(widths)
    assert bool(two) == (len(widths) == 3)
    starts = [part[:, j] for part, _ in segments for j in range(part.shape[1])]
    plain = analysis._pair_bound(starts, widths, diag, pair)
    bound = plain
    if two:
        bound = np.fmin(plain, analysis._split_bound(starts, widths, diag, pair, two))
    devs = _deviations_of(G, columns)
    for b in (plain, bound):
        assert np.all(b * (1.0 + analysis._BOUND_MARGIN) + analysis._BOUND_FLOOR >= devs)
    assert np.all(bound <= plain)
    return plain, bound


class TestPairBound:
    """The block-norm bound that screens every row of a scan."""

    KINDS = ["gaussian", "duplicated", "equal", "identity", "small", "tiny"]

    @given(
        kind=st.sampled_from(KINDS),
        complex_entries=st.booleans(),
        b=st.integers(1, 4),
        l=st.integers(1, 5),
        k=st.integers(0, 3),
        r=st.integers(0, 2),
        rows=st.integers(1, 60),
        strip_elements=st.sampled_from([1, 50, 1 << 13]),
        block_elements=st.sampled_from([1, 50, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_covers_blocks_and_pseudo_blocks(
        self, kind, complex_entries, b, l, k, r, rows, strip_elements, block_elements, seed
    ):
        assume(b != l and k + r)
        G, blocks, pseudo, columns = _segment_case(kind, complex_entries, b, l, k, r, rows, seed)
        segments = [(part, h) for part, h in ((blocks, b), (pseudo, l)) if part.shape[1]]
        _, bound = _assert_pair_bound_covers(G, segments, columns, strip_elements, block_elements)
        # the scan reads the same bound; it gathers the columns of blocks
        # and pseudo blocks in ascending order, and those of one group in
        # the order given
        got = analysis._batched_max_opdev(G, segments)
        assert got == _full_scan_max(G, np.sort(columns, axis=1) if k and r else columns)
        if kind == "identity":
            assert np.all(bound == 0.0) and got == (0.0, 0)

    @given(
        kind=st.sampled_from(KINDS),
        complex_entries=st.booleans(),
        g=st.integers(1, 4),
        w=st.integers(1, 4),
        rows=st.integers(1, 60),
        strip_elements=st.sampled_from([1, 50, 1 << 13]),
        block_elements=st.sampled_from([1, 50, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_covers_repeated_and_overlapping_runs(
        self, kind, complex_entries, g, w, rows, strip_elements, block_elements, seed
    ):
        rng = np.random.default_rng(seed)
        G = _gram(kind, complex_entries, 8, rng)
        runs = rng.integers(0, 8 - g + 1, size=(rows, w))
        # runs start anywhere, so they overlap; some rows repeat a run
        repeat = rng.random(rows) < 0.3
        runs[repeat, -1] = runs[repeat, 0]
        columns = (runs[:, :, None] + np.arange(g)).reshape(rows, w * g)
        plain, bound = _assert_pair_bound_covers(
            G, [(runs, g)], columns, strip_elements, block_elements
        )
        # a row whose runs all overlap one another reads +inf from every E
        # entry, so it keeps the bound without E
        gaps = np.abs(runs[:, :, None] - runs[:, None, :])
        apart = (gaps >= g) & ~np.eye(w, dtype=bool)
        clash = ~apart.any(axis=(1, 2))
        assert np.array_equal(bound[clash], plain[clash])
        assert analysis._batched_max_opdev(G, ((runs, g),)) == _full_scan_max(G, columns)

    @given(
        kind=st.sampled_from(KINDS),
        complex_entries=st.booleans(),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        block_elements=st.sampled_from([1, 50, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_segment_table_covers_every_disjoint_pair(
        self, kind, complex_entries, h, w, block_elements, seed
    ):
        # E[a, c] bounds the deviation of the columns a..a+h-1, c..c+w-1
        # wherever the two segments are disjoint, and is +inf elsewhere
        n = 12
        G = _gram(kind, complex_entries, n, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BOUND_BLOCK_ELEMENTS", block_elements)
            E = analysis._two_segment_table(G, h, w)
        a, c = np.divmod(np.arange(E.size), E.shape[1])
        disjoint = (c >= a + h) | (a >= c + w)
        assert np.all(np.isinf(E.ravel()[~disjoint]))
        columns = np.concatenate(
            [a[disjoint, None] + np.arange(h), c[disjoint, None] + np.arange(w)], axis=1
        )
        assert np.all(E.ravel()[disjoint] >= _deviations_of(G, columns))

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("h", [1, 2, 4, 10])
    def test_diag_table_matches_each_block_solved_alone(self, h, complex_entries, monkeypatch):
        # strips of 4 starts leave a partial last strip of the 31 - h starts;
        # eigvalsh solves each matrix of a stack on its own, so D is the
        # per-block deviation bit for bit
        n = 30
        G = _gram("gaussian", complex_entries, n, np.random.default_rng(h))
        assert (n - h + 1) % 4
        monkeypatch.setattr(analysis, "_TABLE_STRIP_ELEMENTS", 4 * h * h)
        D = analysis._diag_table(G, h)
        expected = []
        for a in range(n - h + 1):
            block = np.arange(a, a + h)
            ev = np.linalg.eigvalsh(G[block[:, None], block] - np.eye(h))
            expected.append(max(abs(ev[0]), abs(ev[-1])))
        assert D.tobytes() == np.array(expected).tobytes()

    def test_two_groups_need_the_stacked_block_norm(self):
        # every column the same unit vector: a row of 3 single columns has
        # M = J - I, of norm 2, each pair block norm 1 and each column
        # block 0, so the two-group bound needs c = sqrt(1 + 1); with
        # c = max(1, 1) it would read about 1.68
        G = np.ones((6, 6))
        idx = np.array([[0, 2, 4], [1, 3, 5]])
        tables = analysis._PairTables(G).read([1, 1, 1])
        assert np.all(analysis._split_bound(list(idx.T), [1, 1, 1], *tables) >= 2.0)


class TestScanIdentity:
    """`pibric_table` against a full eigvalsh of every row of every cell."""

    GEOMETRIES = {
        # criterion 5's two families on its 40x60 matrices, and the README's
        # `ric` example on a 160x200 matrix
        "family-A": (40, PibsParams.from_window(n=60, b=2, p=2, l=10, L=4, K=2, R=2)),
        "family-B": (40, PibsParams.from_window(n=60, b=2, p=2, l=1, L=4, K=2, R=2)),
        "readme": (160, PibsParams(n=200, b=4, p=2, l=20, Lsep=20, K=1, R=1)),
    }

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_cells_match_full_eigvalsh(self, geometry, complex_entries):
        m, params = self.GEOMETRIES[geometry]
        rng = np.random.default_rng(18)
        Phi = gaussian_matrix(m, params.n, "unit", True, rng, complex_entries=complex_entries)
        scanned = 0
        for (k, r), stat in pibric_table(Phi, params, params.K, params.R, 150_000).items():
            if stat.skipped or not k + r:
                continue
            cell = analysis._cell_data(params, k, r)
            delta, i = _full_scan_max(Phi.gram, _cell_columns(cell))
            assert (stat.delta, stat.argmax) == (delta, cell.support(i)), (k, r)
            scanned += 1
        assert scanned >= 3


class TestGatherCount:
    def test_family_a_pseudo_pair_cell_gathers_few_rows(self, monkeypatch):
        # criterion 5's family A cell (1, 2), one 2-column block and two
        # 10-column pseudo blocks, on the audit's matrices 1000-1009: the
        # scan gathers under 5% of its 31,980 rows per matrix (75% with the
        # block-norm pair bound alone). The tables are built first, so only
        # the scan's own gathers are counted; the count is exact. A full
        # eigvalsh of the first matrix's cell checks the scan's result.
        params = PibsParams.from_window(n=60, b=2, p=2, l=10, L=4, K=2, R=2)
        cell = analysis._cell_data(params, 1, 2)
        assert len(cell) == 31_980
        gathered = []
        gather = analysis._gather

        def counting(G, cols):
            gathered[-1] += len(cols)
            return gather(G, cols)

        for i in range(10):
            Phi = gaussian_matrix(40, 60, "unit", True, np.random.default_rng(1000 + i))
            tables = analysis._PairTables(Phi.gram)
            tables.read([2, 10, 10])
            gathered.append(0)
            with monkeypatch.context() as mp:
                mp.setattr(analysis, "_gather", counting)
                got = analysis._batched_max_opdev(Phi.gram, cell.segments, tables)
            if i == 0:
                assert got == _full_scan_max(Phi.gram, _cell_columns(cell))
        assert sum(gathered) / 10 < 0.05 * len(cell)


class TestVerifyLemmas:
    def test_orthonormal_matrix_all_pass(self):
        Phi = orthonormal_matrix(30, np.random.default_rng(4))
        params = PibsParams(n=30, b=2, p=2, l=8, Lsep=8, K=2, R=1)
        report = verify_lemmas(Phi, params, 2, 1, np.random.default_rng(0))
        assert report.all_passed
        ran = {e.name for e in report.entries if not e.skipped}
        assert "norm-sandwich" in ran
        assert "projected-column-bound" in ran

    def test_gaussian_matrix_passes_at_acceptance_geometry(self):
        params = PibsParams.from_window(n=60, b=2, p=2, l=10, L=4, K=2, R=2)
        rng = np.random.default_rng(11)
        Phi = gaussian_matrix(40, 60, "unit", True, rng)
        report = verify_lemmas(Phi, params, 2, 2, rng)
        assert report.all_passed, report.render()
        names = [e.name for e in report.entries]
        assert names == [
            "norm-sandwich",
            "budget-monotonicity",
            "pseudo-length-monotonicity",
            "block-for-pseudo-trade",
            "projected-sandwich",
            "projected-innerproduct",
            "projected-column-bound",
        ]

    def test_render_and_csv(self):
        Phi = orthonormal_matrix(24, np.random.default_rng(1))
        params = PibsParams(n=24, b=1, p=1, l=4, Lsep=4, K=1, R=1)
        report = verify_lemmas(Phi, params, 1, 1, np.random.default_rng(0))
        assert "lemma checks" in report.render()
        assert report.margins_csv().startswith("lemma,passed,skipped")

    # complex 30x24 and unnormalized 6x24 matrices on one geometry; together
    # they exercise the window, "delta >= 1" and "no order with delta < 1" skips
    PINNED = {
        "complex": [
            ("norm-sandwich", True, False, "", 19100, 0.0006675492202530275),
            ("budget-monotonicity", True, False, "", 12, 8.881784197001252e-16),
            ("pseudo-length-monotonicity", True, False, "", 12, 0.0),
            ("block-for-pseudo-trade", True, True, "window below cluster capacity", 0, math.inf),
            ("projected-sandwich", True, False, "", 8700, 0.36863447264925264),
            ("projected-innerproduct", True, False, "", 41500, 0.3998830207904649),
            ("projected-column-bound", True, False, "", 2652, 0.08860462102139877),
        ],
        "unnormalized": [
            ("norm-sandwich", True, False, "", 1100, 0.6573551355864531),
            ("budget-monotonicity", True, False, "", 2, 7.499148560336124),
            ("pseudo-length-monotonicity", True, False, "", 6, 0.0),
            ("block-for-pseudo-trade", True, True, "window below cluster capacity", 0, math.inf),
            ("projected-sandwich", True, True, "delta >= 1", 0, math.inf),
            ("projected-innerproduct", True, True, "delta >= 1", 0, math.inf),
            ("projected-column-bound", True, True, "no order with delta < 1", 0, math.inf),
        ],
    }

    @pytest.mark.parametrize("case", ["complex", "unnormalized"])
    def test_pinned_report(self, case):
        params = PibsParams(n=24, b=1, p=2, l=3, Lsep=3, K=2, R=1)
        if case == "complex":
            rng = np.random.default_rng(0)
            Phi = gaussian_matrix(30, 24, "unit", True, rng, complex_entries=True)
            report = verify_lemmas(Phi, params, 2, 1, rng)
        else:
            rng = np.random.default_rng(5)
            Phi = gaussian_matrix(6, 24, "unit", False, rng)
            report = verify_lemmas(Phi, params, 2, 1, rng, cell_cap=50)
        got = [(e.name, e.passed, e.skipped, e.reason, e.checks) for e in report.entries]
        assert got == [row[:5] for row in self.PINNED[case]]
        for e, row in zip(report.entries, self.PINNED[case]):
            assert e.worst_margin == pytest.approx(row[5], abs=1e-12), e.name

    def test_cold_and_warm_cell_cache_give_the_same_report(self):
        def report():
            [rep] = lemma_audit(1)
            return rep.render() + rep.margins_csv()

        analysis._cell_data.cache_clear()
        cold = report()
        assert analysis._cell_data.cache_info().currsize > 0
        assert report() == cold

    def test_requires_matching_pseudo_length(self):
        params = PibsParams(n=24, b=1, p=1, l=1, Lsep=4, K=1, R=1)
        Phi = SensingMatrix(np.eye(24), normalized=True)
        with pytest.raises(ValueError):
            verify_lemmas(Phi, params, 1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cell_cap_below_one_rejected(self, cap):
        params = PibsParams(n=24, b=1, p=1, l=4, Lsep=4, K=1, R=1)
        with pytest.raises(ValueError, match="cell_cap must be >= 1"):
            verify_lemmas(SensingMatrix(np.eye(24), normalized=True), params, 1, 1,
                          np.random.default_rng(0), cell_cap=cap)

    def test_families_stopped_by_the_cap_are_skipped(self):
        # every cell but the empty one is over the cap: no family may pass
        # vacuously or blame delta; the trade needs R >= 2 whatever the cap
        params = PibsParams(n=30, b=1, p=1, l=3, Lsep=3, K=1, R=1)
        Phi = gaussian_matrix(20, 30, "unit", True, np.random.default_rng(0))
        report = verify_lemmas(Phi, params, 1, 1, np.random.default_rng(0), cell_cap=1)
        reasons = {e.name: e.reason for e in report.entries if e.skipped}
        capped = ("norm-sandwich", "budget-monotonicity", "projected-sandwich",
                  "projected-innerproduct", "projected-column-bound")
        assert reasons == {**dict.fromkeys(capped, "cells over cell_cap"),
                           "block-for-pseudo-trade": "needed orders unavailable"}

    # (params, rows, seed, complex entries, normalized, verify_lemmas options)
    ORACLE_CASES = {
        "criterion-5": (PibsParams.from_window(n=60, b=2, p=2, l=10, L=4, K=2, R=2), 40, 1003,
                        False, True, dict(support_samples=60, draws_sandwich=25,
                                          draws_projected=10, draws_innerproduct=40)),
        "complex": (PibsParams(n=24, b=1, p=2, l=3, Lsep=3, K=2, R=1), 30, 0, True, True, {}),
        "unnormalized": (PibsParams(n=24, b=1, p=2, l=3, Lsep=3, K=2, R=1), 6, 5,
                         False, False, dict(cell_cap=50)),
        "pseudo-length-3": (PibsParams(n=30, b=2, p=2, l=3, Lsep=3, K=2, R=1), 20, 3,
                            False, True, {}),
        "complex-unnormalized": (PibsParams(n=30, b=2, p=2, l=3, Lsep=3, K=2, R=1), 20, 5,
                                 True, False, {}),
        "capped": (PibsParams(n=30, b=1, p=1, l=3, Lsep=3, K=1, R=1), 20, 0,
                   False, True, dict(cell_cap=30)),
        "four-blocks": (PibsParams(n=24, b=1, p=1, l=2, Lsep=2, K=4, R=1), 60, 9,
                        False, True, {}),
        "no-pseudo-blocks": (PibsParams(n=30, b=2, p=2, l=3, Lsep=3, K=2, R=0), 20, 3,
                             False, True, {}),
    }

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_the_one_support_at_a_time_oracle(self, case):
        from lemma_oracle import reference_lemmas

        params, m, seed, complex_entries, normalize, options = self.ORACLE_CASES[case]
        reports = []
        for verify in (verify_lemmas, reference_lemmas):
            rng = np.random.default_rng(seed)
            Phi = gaussian_matrix(m, params.n, "unit", normalize, rng,
                                  complex_entries=complex_entries)
            report = verify(Phi, params, params.K, params.R, rng, **options)
            reports.append(report.render() + report.margins_csv())
        assert reports[0] == reports[1]
        if case == "four-blocks":
            # 4-block supports have 16 subsets, of which 8 are drawn
            d = _order_deltas(pibric_table(Phi, params, params.K, params.R, 200_000))
            assert d[(4, 1)] < 1.0
        if case == "capped":
            assert "skipped (cells over cell_cap)" in reports[0]
        if case == "no-pseudo-blocks":
            assert "projected-column-bound: skipped (needed orders unavailable)" in reports[0]

    def test_unnormalized_flag_skips_only_the_column_bound(self):
        # projected-column-bound assumes unit columns; the flag alone gates
        # it, and it is the last family, so the others keep their draws
        params = PibsParams(n=24, b=1, p=2, l=3, Lsep=3, K=2, R=1)
        Phi = gaussian_matrix(30, 24, "unit", True, np.random.default_rng(0))
        unit, flagged_off = (
            verify_lemmas(mat, params, 2, 1, np.random.default_rng(1))
            for mat in (Phi, replace(Phi, normalized=False))
        )
        assert unit.entries[-1].checks > 0
        assert flagged_off.entries[:-1] == unit.entries[:-1]
        assert flagged_off.entries[-1].reason == "columns not unit norm"
        assert flagged_off.entries[-1].skipped


class TestRealPartBound:
    def test_real_ratio_gives_exact_magnitude(self):
        lhs, rhs, ok = real_part_lower_bound_check(3.0, 1.5)
        assert ok
        assert lhs == pytest.approx(3.0, abs=1e-12)

    def test_imaginary_perturbation(self):
        lhs, rhs, ok = real_part_lower_bound_check(1.0, 0.6j)
        assert ok
        assert lhs == pytest.approx(1.0 / math.sqrt(1.36), abs=1e-12)
        assert rhs == pytest.approx(0.8, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            real_part_lower_bound_check(0.0, 1.0)
        with pytest.raises(ValueError):
            real_part_lower_bound_check(1.0, 2.0)

    @given(
        zr=st.floats(-5, 5), zi=st.floats(-5, 5),
        wr=st.floats(-5, 5), wi=st.floats(-5, 5),
    )
    @settings(max_examples=300)
    def test_random_property(self, zr, zi, wr, wi):
        z = complex(zr, zi)
        w = complex(wr, wi)
        if z == 0 or abs(w) >= abs(z):
            return
        _, _, ok = real_part_lower_bound_check(z, w)
        assert ok


class TestScalingFunction:
    def test_zero_at_zero(self):
        for K, b, p in [(1, 1, 1), (3, 2, 2), (5, 4, 2)]:
            assert f_K(0.0, K, b, p) == 0.0

    def test_pinned_value(self):
        assert f_K(1.0, 1, 1, 1) == pytest.approx(0.25 + (math.sqrt(2) + 1) / 2, abs=1e-14)

    def test_inverse_round_trip(self):
        u = f_K_inverse(f_K(0.3, 2, 2, 2), 2, 2, 2)
        assert u == pytest.approx(0.3, abs=1e-10)

    @given(u=st.floats(0.001, 50), K=st.integers(1, 6), b=st.integers(1, 4), p=st.integers(1, 3))
    @settings(max_examples=100)
    def test_strictly_increasing(self, u, K, b, p):
        assert f_K(u, K, b, p) < f_K(u * 1.01 + 1e-9, K, b, p)

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            f_K_inverse(1e9, 1, 1, 1)  # f_K(1e3, 1, 1, 1) = 252.4


class TestCertificate:
    def test_zero_delta_always_passes(self):
        for field in ("real", "complex"):
            cert = thm1_certificate(0.0, 2, 2, 2, epsilon=0.0, x_min=0.01,
                                    x_max=1.0, field=field)
            assert cert.passed
            assert cert.margin_18 == pytest.approx(0.01)

    def test_delta_condition_fails(self):
        cert = thm1_certificate(0.6, 1, 1, 1)
        assert not cert.condition_17_ok
        assert cert.margin_17 == pytest.approx(1 / math.sqrt(3) - 0.6)

    def test_real_threshold_double_evaluation(self):
        # independent term-by-term evaluation of the magnitude condition
        d, K, b, p = 0.2, 2, 4, 2
        Bp = p * b - b + 1
        assert Bp == 5
        coeff = d * math.sqrt(Bp * b) / (1 + d)
        bracket = K * (1 + d) / (4 * Bp) + math.sqrt(K + 1) + 1
        required = coeff * bracket
        assert required == pytest.approx(2.1257931603357276, rel=1e-12)
        # above 1, so no magnitudes with x_min <= x_max clear it
        cert = thm1_certificate(d, K, b, p, epsilon=0.0, x_min=1.0, x_max=1.0)
        assert not cert.condition_18_ok
        assert cert.margin_18 == pytest.approx(1.0 - required, rel=1e-12)
        # at a smaller delta the threshold is below 1 and x_min crosses it
        d = 0.05
        required = d * math.sqrt(Bp * b) / (1 + d) * (K * (1 + d) / (4 * Bp) + math.sqrt(K + 1) + 1)
        assert required < 1
        cert = thm1_certificate(d, K, b, p, epsilon=0.0, x_min=required * 1.001,
                                x_max=1.0)
        assert cert.condition_18_ok
        cert2 = thm1_certificate(d, K, b, p, epsilon=0.0, x_min=required * 0.999,
                                 x_max=1.0)
        assert not cert2.condition_18_ok

    def test_complex_threshold_double_evaluation(self):
        d, K, b, p = 0.05, 2, 2, 2
        Bp = p * b - b + 1
        bracket = K * (1 + d) / (4 * Bp) + math.sqrt(K + 1) + 1
        numer = (d * math.sqrt(K * b)
                 + d * (1 - d**2) * math.sqrt(Bp * b) / (1 + d) * bracket)
        required = numer / math.sqrt((1 - d**2) ** 2 + d**2)
        cert = thm1_certificate(d, K, b, p, epsilon=0.0, x_min=required * 1.001,
                                x_max=1.0, field="complex")
        assert cert.condition_18_ok
        assert cert.margin_18 == pytest.approx(required * 0.001, rel=1e-6)

    def test_noise_term(self):
        d, K, b, p, eps = 0.1, 1, 1, 1, 0.5
        Bp = 1
        noise = math.sqrt(2 * (1 + Bp) * (1 + d)) * eps / (1 - d * math.sqrt(3))
        cert = thm1_certificate(d, K, b, p, epsilon=eps, x_min=10.0, x_max=10.0)
        expected = f_K(d, K, b, p) * 10.0 + noise
        assert cert.margin_18 == pytest.approx(10.0 - expected, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            thm1_certificate(1.0, 1, 1, 1)
        with pytest.raises(ValueError):
            thm1_certificate(0.1, 0, 1, 1)

    @pytest.mark.parametrize("eps", [-5.0, -1e-300, math.nan, math.inf])
    def test_negative_or_non_finite_noise_rejected(self, eps):
        # a negative noise term lowered the threshold of condition 18
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            thm1_certificate(0.2, 2, 2, 2, epsilon=eps, x_min=3.0, x_max=3.0)

    @pytest.mark.parametrize("x_min, x_max", [
        (3.0, 1.0), (3.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (-3.0, -1.0),
        (math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_magnitudes_outside_their_domain_rejected(self, x_min, x_max):
        # x_max < x_min describes no signal, and a zero x_min no support
        with pytest.raises(ValueError, match="need finite 0 < x_min <= x_max"):
            thm1_certificate(0.2, 2, 2, 2, x_min=x_min, x_max=x_max)


class TestThm2:
    def test_bound_never_exceeds_one(self):
        for m in (100, 1000, 10_000, 100_000):
            rep = thm2_bound(1, 1, 2, 4, 2, m, 200, eps0=0.05, eps=0.05)
            assert rep.bound <= 1.0

    def test_bound_monotone_on_m_ladder(self):
        bounds = [
            thm2_bound(1, 1, 2, 4, 2, m, 200, eps0=0.05, eps=0.05).bound
            for m in (2_000, 4_000, 8_000, 16_000, 32_000, 64_000)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))

    def test_invalid_order_flagged_not_raised(self):
        rep = thm2_bound(2, 2, 4, 2, 2, 50, 100, eps0=0.1, eps=0.1)
        assert not rep.flags["nu-rho-order"] or not rep.flags["cluster-capacity"]
        assert isinstance(rep.bound, float)

    def test_lambda_variants(self):
        sep = thm2_bound(1, 1, 2, 4, 2, 1000, 200, eps0=0.05, eps=0.05)
        win = thm2_bound(1, 1, 2, 4, 2, 1000, 200, eps0=0.05, eps=0.05,
                         lambda_variant="window")
        Lp = 2 + 2 * 1 * 1 - 1
        assert sep.lam == pytest.approx(math.sqrt((3 + 2 * Lp) / 1000))
        assert win.lam == pytest.approx(math.sqrt((3 + 2 * 2) / 1000))
        assert win.lam < sep.lam

    def test_intermediates_match_definitions(self):
        b, p, L, K, R, m, n = 1, 1, 2, 4, 2, 2000, 200
        rep = thm2_bound(b, p, L, K, R, m, n, eps0=0.05, eps=0.05)
        Lp = L + 2 * p * b - b
        assert rep.nu == pytest.approx(rep.lam**2 + 2 * rep.lam, rel=1e-12)
        assert f_K(rep.rho, K, b, p) == pytest.approx(1.0, abs=1e-9)
        assert rep.A == pytest.approx(3 * p * (K - 1) / (2 * (p + 1) ** 2) + R)
        assert rep.C == pytest.approx(math.log(p) + 21 / 8 - 1 / p)
        assert rep.D == n - (K - 1) * b + Lp
        assert rep.E == Lp - 1
        assert rep.h == pytest.approx(rep.A + K * rep.C + K * math.log(p * rep.D / K - rep.E))
        assert rep.c1 == pytest.approx(2 * math.exp(rep.h))
        assert rep.c2 == pytest.approx(m / (rep.lam + 1 + math.sqrt(1 + rep.rho)) ** 2)

    def test_becomes_positive_for_large_m(self):
        rep = thm2_bound(1, 1, 2, 3, 2, 1_000_000, 200, eps0=0.02, eps=0.01)
        assert rep.bound > 0.5
        ok_except_window = {k: v for k, v in rep.flags.items() if k != "eps0-window"}
        assert all(ok_except_window.values()), rep.flags

    def test_eps0_window_unsatisfiable_as_stated(self):
        # rho = f_K^{-1}(1) sits below 1/sqrt(2K+1) for every (K, b, p), so
        # the eps0 window can never open; the flag must say so honestly
        for K, b, p in [(1, 1, 1), (4, 1, 1), (6, 2, 2), (12, 4, 2)]:
            t = 1.0 / math.sqrt(2 * K + 1)
            assert f_K(t, K, b, p) > 1.0
            rep = thm2_bound(b, p, max(2, p * b), K, 2, 10_000, 500, eps0=0.01, eps=0.01)
            assert not rep.flags["eps0-window"]

    def test_signal_length_flag(self):
        # n >= K*b + R*Lsep + (K+1)*(Lsep-1) with Lsep = L + 2pb - b
        assert thm2_bound(1, 1, 1, 2, 0, 1000, 30, eps0=0.05, eps=0.05).flags["signal-length"]
        assert not thm2_bound(1, 1, 3, 2, 0, 1000, 10, eps0=0.05, eps=0.05).flags["signal-length"]

    def test_user_supplied_g(self):
        rep = thm2_bound(1, 1, 2, 4, 2, 60_000, 200, eps0=0.09, eps=0.09, g_value=1.0)
        tail = rep.c1 * math.exp(-rep.c2 * 0.09**2)
        assert rep.bound == pytest.approx(1.0 - 2.0 * tail, rel=1e-9)


class TestGBounds:
    def test_endpoints(self):
        assert g_bounds(0.0, 2, 1) == (1.0, 1.0)
        assert g_bounds(1.0, 2, 1) == (0.0, 0.0)
        lower, upper = g_bounds(0.0, 2, 2)  # Kb = 4
        assert lower == pytest.approx(0.5)
        assert upper == pytest.approx(2.0)

    def test_length_one_vector(self):
        assert g_bounds(0.5, 1, 1) == (1.0, 1.0)
        assert g_bounds(1.0, 1, 1) == (0.0, 0.0)

    def test_empirical_within_bounds(self):
        rng = np.random.default_rng(0)
        w = 2 / math.pi * math.atan2(1, 0.5) - 0.5
        lower, upper = g_bounds(0.5, 4, 1)
        assert lower == pytest.approx(4 * w**3)
        assert upper == pytest.approx(4 * w)
        est = g_empirical(0.5, 4, 1, 100_000, rng)
        se = math.sqrt(max(est * (1 - est), 1e-6) / 100_000)
        assert lower - 3 * se <= est <= upper + 3 * se

    def test_empirical_extremes(self):
        rng = np.random.default_rng(1)
        assert g_empirical(0.0, 2, 1, 10_000, rng) == 1.0
        assert g_empirical(1.0, 2, 1, 10_000, rng) == 0.0
