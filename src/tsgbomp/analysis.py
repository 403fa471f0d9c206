"""Restricted-isometry diagnostics over structured supports.

Computes the structured isometry constant by exhaustive scan, checks the
supporting inequalities (monotonicity chains, projected-matrix sandwiches,
projected-column lower bounds, the complex real-part bound) as executable
properties, and evaluates the deterministic recovery certificate and the
Gaussian-matrix probability bound with all intermediates exposed for audit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .sensing import SensingMatrix
from .signal_model import (
    CellRows,
    EnumerationCapError,
    PibsParams,
    Support,
    cell_count,
    cell_rows,
    check_at_least,
    iter_cell,
    min_separation,
)

__all__ = [
    "RicEstimate",
    "RecoveryCertificate",
    "Thm2Report",
    "LemmaCheck",
    "LemmaReport",
    "operator_norm_dev",
    "cell_count",
    "pibric",
    "pibric_table",
    "verify_lemmas",
    "real_part_lower_bound_check",
    "f_K",
    "f_K_inverse",
    "thm1_certificate",
    "thm2_bound",
    "g_bounds",
    "g_empirical",
]

_BOUND_BLOCK_ELEMENTS = 1 << 16  # scalars per block of rows or pairs: its N or M stays in cache
_SCAN_BATCH_ELEMENTS = 1 << 14  # entries of M per scan batch: each of its temporaries holds 128 KB
_TABLE_STRIP_ELEMENTS = 1 << 13  # entries per table strip: a temporary holds 64 KB (128 KB complex)
_BOUND_MARGIN = 1e-9  # relative slack on the pruning bounds, far above their rounding
_BOUND_FLOOR = 1e-70  # absolute slack: below about 1e-77 the pair bound's 4th powers underflow
_FINE_BOUND_FLOOR = 1e-30  # the same for the 8th powers of the fine bound, below about 1e-38
_STACK_CHUNK = 32  # sampled supports or subsets per stacked product: their draws stay near 0.1 MB
_OVER_CAP = "cells over cell_cap"  # why a family ran no check when cap-skipped cells stopped it
_NO_COLUMNS = "no support covers a column"  # why a family ran no check at K = R = 0
_LEMMA_TOL = 1e-10  # a lemma family fails iff some margin falls below -_LEMMA_TOL
_F_K_BRACKET = 1e3  # f_K_inverse bisects on [0, _F_K_BRACKET]


# ---------------------------------------------------------------------------
# operator norm deviation

def operator_norm_dev(Phi: SensingMatrix, columns: Sequence[int]) -> float:
    """Largest absolute eigenvalue of Phi_S^H Phi_S - I for the 1-based column
    selection S (duplicates allowed, mirroring repeated block picks)."""
    cols = np.asarray(list(columns), dtype=np.intp)
    if cols.size == 0:
        raise ValueError("operator_norm_dev needs a nonempty column selection")
    if cols.min() < 1 or cols.max() > Phi.n:
        raise ValueError("column index out of range")
    A = Phi.entries[:, cols - 1]
    gram = A.conj().T @ A
    gram[np.diag_indices_from(gram)] -= 1.0
    ev = np.linalg.eigvalsh(gram)
    return float(max(abs(ev[0]), abs(ev[-1])))


def _flat(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """rows * width + cols, the flat indices of entries of a table `width`
    wide, in intp whatever the type of rows and cols: in their own type
    the flat indices of a square table overflow int8 from width 12, int16
    from 182 and int32 from 46,341."""
    return np.multiply(rows, width, dtype=np.intp) + cols


def _gather(G: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """M = G[S,S] - I for every row S of cols, a new (rows, s, s) array:
    one take of G's flat indices (`_flat`). The take clips, so the caller
    checks the columns' range."""
    c, s = cols.shape
    M = G.take(_flat(cols[:, :, None], cols[:, None, :], G.shape[0]), mode="clip")
    M.reshape(c, s * s)[:, :: s + 1] -= 1.0
    return M


def _eig_bound(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """||M @ M||_F^(1/2) per matrix of a Hermitian stack: that is
    (sum of lambda^4)^(1/4), so at least max |lambda|. Applied to M @ M,
    its square root is (sum of lambda^8)^(1/8), closer still. M @ M goes
    to `out` if one is given."""
    P = np.matmul(M, M, out=out)
    return np.einsum("ijk,ijk->i", P, P.conj()).real ** 0.25


def _deviations(M: np.ndarray) -> np.ndarray:
    """max |eigenvalue| of each matrix of a Hermitian stack."""
    ev = np.linalg.eigvalsh(M)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def _diag_table(G: np.ndarray, h: int) -> np.ndarray:
    """D[a] = max |eigenvalue| of G[a:a+h, a:a+h] - I for every a, gathered
    (`_gather`) and solved in batched eigvalsh calls of at most
    _TABLE_STRIP_ELEMENTS entries each."""
    v = G.shape[0] - h + 1
    D = np.empty(v)
    strip = max(1, _TABLE_STRIP_ELEMENTS // (h * h))
    for a in range(0, v, strip):
        starts = np.arange(a, min(a + strip, v))
        D[starts] = _deviations(_gather(G, starts[:, None] + np.arange(h)))
    return D


def _pair_table(G: np.ndarray, h: int, w: int) -> np.ndarray:
    """T[a, c] = ||B B^H||_F^(1/2) = (sum sigma^4)^(1/4) >= ||B||_2 for
    every h x w block B = G[a:a+h, c:c+w], read off the smaller Gram side.
    With h <= w, entry (i, i+d) of B B^H is Q_d[a+i, c], where Q_d[p, c]
    sums G[p, c+t] conj(G[p+d, c+t]) over t < w: w shifted adds of one
    product of rows of G per offset d, and h - d more for the squares that
    ||B B^H||_F^2 takes over i. Rows a go in strips of about
    _TABLE_STRIP_ELEMENTS entries of G, so every temporary is a strip."""
    if h > w:
        return np.ascontiguousarray(_pair_table(np.ascontiguousarray(G.conj().T), w, h).T)
    n = G.shape[0]
    va, vc = n - h + 1, n - w + 1
    T = np.empty((va, vc))
    strip = max(1, _TABLE_STRIP_ELEMENTS // n)
    for a in range(0, va, strip):
        rows = G[a : min(a + strip, va) + h - 1]
        na = len(rows) - h + 1
        sq = np.zeros((na, vc))
        for d in range(h):
            prod = rows[: len(rows) - d] * rows[d:].conj()
            Q = prod[:, :vc].copy()
            for t in range(1, w):
                Q += prod[:, t : t + vc]
            Q2 = (Q * Q.conj()).real
            if d:
                Q2 *= 2.0
            for i in range(h - d):
                sq += Q2[i : i + na]
        T[a : a + na] = np.sqrt(np.sqrt(sq))
    return T


def _two_segment_table(G: np.ndarray, h: int, w: int) -> np.ndarray:
    """E[a, c] >= ||G[S,S] - I||_2 for S the columns a..a+h-1 and then
    c..c+w-1: the reach (`_reach`) of the scan's fine bound
    (sum lambda^8)^(1/8), so it holds whatever the rounding or underflow.
    Only disjoint pairs are bounded; an overlapping pair reads +inf. The
    pairs are gathered (`_gather`) in blocks of at most
    _BOUND_BLOCK_ELEMENTS entries. The columns of (a, c) in E_hw are those
    of (c, a) in E_wh, so h > w transposes E_wh and h = w mirrors a < c."""
    if h > w:
        return np.ascontiguousarray(_two_segment_table(G, w, h).T)
    n = G.shape[0]
    va, vc = n - h + 1, n - w + 1
    a, c = np.arange(va)[:, None], np.arange(vc)
    disjoint = c >= a + h
    if h < w:
        disjoint |= a >= c + w
    pairs = np.flatnonzero(disjoint)
    E = np.full(va * vc, np.inf)
    block = min(len(pairs), max(1, _BOUND_BLOCK_ELEMENTS // (h + w) ** 2))
    for lo in range(0, len(pairs), block):
        part = pairs[lo : lo + block]
        a, c = np.divmod(part[:, None], vc)
        m = _gather(G, np.concatenate([a + np.arange(h), c + np.arange(w)], axis=1))
        # ||(M @ M)^2||_F^(1/2) = (sum lambda^8)^(1/4), as the scan's fine bound
        E[part] = np.sqrt(_eig_bound(m @ m))
    E = _reach(E, _FINE_BOUND_FLOOR).reshape(va, vc)
    if h == w:
        np.fmin(E, E.T, out=E)  # in place: a new array would sit above the freed blocks
    return E


class _PairTables:
    """The tables of the pair bound for one Gram matrix G, each built on
    first use and then kept: D_h (`_diag_table`) for each segment width h,
    and T_hw (`_pair_table`) and E_hw (`_two_segment_table`) for each
    ordered pair of widths that rows read, so a `pibric_table` call builds
    each once. Only rows of 3 segments read E (`_split_bound`): there each
    entry serves every row that pairs its two segments with a third one,
    while a row of 2 segments would read an entry no other row reads, its
    own fine bound, which the scan computes for its candidates anyway."""

    def __init__(self, G: np.ndarray):
        self.G = G
        self.diag: dict[int, np.ndarray] = {}
        self.pair: dict[tuple[int, int], np.ndarray] = {}
        self.two: dict[tuple[int, int], np.ndarray] = {}

    def read(self, widths: list[int]) -> tuple[dict, dict, dict]:
        """Every D, T and E table built so far, once those that rows of
        segments of these widths, in this order, read are built. E is empty
        unless there are 3 segments."""
        for i, h in enumerate(widths):
            if h not in self.diag:
                self.diag[h] = _diag_table(self.G, h)
            for w in widths[i + 1 :]:
                if (h, w) not in self.pair:
                    self.pair[h, w] = _pair_table(self.G, h, w)
                if len(widths) == 3 and (h, w) not in self.two:
                    self.two[h, w] = _two_segment_table(self.G, h, w)
        return self.diag, self.pair, self.two if len(widths) == 3 else {}


def _block_norms(starts: list[np.ndarray], widths: list[int], diag: dict, pair: dict) -> dict:
    """N for each row of segments, starts[i] holding every row's start of
    segment i, of width widths[i]: the symmetric matrix with N_ii =
    D[start_i] and N_ij = N_ji = T[start_i, start_j] (i < j), each at least
    the norm of the block of M = G[S,S] - I that segments i and j span.
    Structure of arrays: one vector per entry."""
    N = {}
    for i, h in enumerate(widths):
        N[i, i] = diag[h].take(starts[i])
        for j in range(i + 1, len(widths)):
            T = pair[h, widths[j]]
            N[i, j] = N[j, i] = T.take(_flat(starts[i], starts[j], T.shape[1]))
    return N


def _pair_bound(starts: list[np.ndarray], widths: list[int], diag: dict, pair: dict) -> np.ndarray:
    """||N^2||_F^(1/2) >= ||N||_2 >= ||M||_2 for each row of segments, N
    being its block norms (`_block_norms`): the block-norm bound, which is
    (sum of lambda(N)^4)^(1/4). One vector per entry of N^2, the upper
    triangle only."""
    m = len(starts)
    N = _block_norms(starts, widths, diag, pair)
    total = np.zeros(len(starts[0]))
    for i in range(m):
        for j in range(i, m):
            e = N[i, 0] * N[0, j]
            for k in range(1, m):
                e += N[i, k] * N[k, j]
            e *= e
            if i != j:
                e *= 2.0
            total += e
    return np.sqrt(np.sqrt(total))


def _split_bound(
    starts: list[np.ndarray], widths: list[int], diag: dict, pair: dict, two: dict
) -> np.ndarray:
    """A second bound on ||M||_2, M = G[S,S] - I, for each row of 3
    segments, read from the E tables `two` (`_two_segment_table`): the
    smallest, over the row's three splits into a pair {i, j} and a segment
    k, top eigenvalue of [[E_ij, c], [c, N_kk]] with c^2 = N_ik^2 + N_jk^2
    (`_block_norms`). That is the block-norm bound with two groups: the
    stacked block of M that {i, j} and k span has norm at most c, and a
    nonnegative matrix's top eigenvalue only grows with its entries. E
    reads +inf on overlapping segments, so such a split bounds nothing.
    The squares underflow only below about 1e-154, far under
    _BOUND_FLOOR."""
    N = _block_norms(starts, widths, diag, pair)
    bound = np.full(len(starts[0]), np.inf)
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        E = two[widths[i], widths[j]]
        p = E.take(_flat(starts[i], starts[j], E.shape[1]))
        # (p + q) / 2 + sqrt(((p - q) / 2)^2 + c^2) for q = N_kk
        q = N[k, k]
        d = p - q
        d *= 0.5
        d *= d
        d += N[i, k] * N[i, k]
        d += N[j, k] * N[j, k]
        p += q
        p *= 0.5
        p += np.sqrt(d, out=d)
        np.fmin(bound, p, out=bound)
    return bound


def _reach(bound: np.ndarray, floor: float) -> np.ndarray:
    """The reach of a bound, in place: bound times 1 + _BOUND_MARGIN, plus
    `floor`, a value no deviation the bound covers exceeds, whatever the
    rounding or underflow of the bound. A NaN bound, possible only when
    entries overflow, reaches everything."""
    bound *= 1.0 + _BOUND_MARGIN
    bound += floor
    bound[np.isnan(bound)] = np.inf
    return bound


def _row_columns(segments, rows) -> np.ndarray:
    """The columns of the rows `rows`, a nonempty index array or slice, of
    `segments`, (starts, h) pairs: each pair's columns in turn, sorted only
    if two pairs cover columns. A cell's blocks and pseudo blocks each
    ascend, so its columns ascend."""
    parts = [starts[rows][:, :, None] + np.arange(h, dtype=starts.dtype)
             for starts, h in segments if starts.shape[1] and h]
    cols = np.concatenate([part.reshape(len(part), -1) for part in parts], axis=1)
    if len(parts) > 1:
        cols.sort(axis=1)
    return cols


def _max_opdev(
    G: np.ndarray, segments, rows: np.ndarray, reach: np.ndarray, best: float, arg: int
) -> tuple[float, int]:
    """(max, first argmax row) of the max-|eigenvalue| of M = G[S,S] - I
    over the candidate rows `rows` of segments, S being their columns
    (`_row_columns`) as `_gather` takes them, starting from the best
    value so far, `best`, first attained at row `arg`: bit-identical to
    np.argmax over a full batched eigvalsh of those rows and row `arg`.

    `reach` holds each candidate's certified bound: no deviation above it.
    Only the candidates whose reach attains `best` are kept; they are
    sorted (stable) by descending reach and gathered in that order, in
    batches of 2, 4, 8, ... rows, at most _SCAN_BATCH_ELEMENTS entries of
    M each. A row is eigensolved only if its coarse bound `_eig_bound(M)`
    and then its fine bound, `_eig_bound(M @ M)` ** 0.5, can still reach
    the best value so far, and the scan stops at the first row whose reach
    cannot. A bound can reach a value if its reach (`_reach`) is at least
    that value. Ties go to the lowest row."""
    s = sum(starts.shape[1] * h for starts, h in segments)
    order = np.flatnonzero(reach >= best)
    order = order[np.argsort(-reach[order], kind="stable")]
    # minus each candidate's reach, ascending: the rows that can still
    # reach a value are a prefix, whose end one binary search finds
    rows, fall = rows[order], -reach[order]
    block = min(len(rows), max(1, _SCAN_BATCH_ELEMENTS // s**2))
    lo, size, stop = 0, min(2, block), len(rows)
    while lo < stop:
        batch = rows[lo : min(lo + size, stop)]
        lo += len(batch)
        size = min(2 * size, block)
        m = _gather(G, _row_columns(segments, batch))
        mm = np.empty_like(m)
        near = _reach(_eig_bound(m, out=mm), _BOUND_FLOOR) >= best
        if not near.any():
            continue
        # ||(M @ M)^2||_F^(1/2) = (sum lambda^8)^(1/4), the fine bound squared
        fine = _reach(np.sqrt(_eig_bound(mm[near])), _FINE_BOUND_FLOOR)
        near[near] = fine >= best
        if not near.any():
            continue
        batch = batch[near]
        dev = _deviations(m[near])
        top = dev.max()
        if top >= best:
            first = int(batch[dev == top].min())
            arg = first if top > best else min(arg, first)
            best = top
        stop = int(np.searchsorted(fall, -best, side="right"))
    return float(best), arg


def _batched_max_opdev(G: np.ndarray, segments, tables=None) -> tuple[float, int]:
    """(max, first argmax row) of the max-|eigenvalue| of G[S,S] - I over
    the rows of `segments`, pairs (starts, h) of (rows, count) arrays: S is
    the columns starts[i] + t, 0 <= t < h, of row i's segments, in the
    order `_row_columns` lists them. A cell passes its blocks (width b)
    and pseudo blocks (width l); one pair of width 1 holds column indices,
    in any order and with repeats. A segment past G raises IndexError; a
    row of no column deviates by 0.

    No row is gathered to be screened; off-diagonal blocks come from G, so
    repeated or overlapping segments are bounded too. `tables`, a
    `_PairTables` of G (a new one by default), builds any table it lacks.

    Rows go in blocks of _BOUND_BLOCK_ELEMENTS // (k+r)^2, k + r being
    the segments of a row, so each block's vectors of N entries hold
    _BOUND_BLOCK_ELEMENTS in all. Each block's rows get the reach
    (`_reach`) of their pair bound (`_pair_bound`); if the block's largest
    reach (the first, on ties) exceeds the best value so far, that row is
    eigensolved and may raise it, a lower bound on the maximum. Only rows
    whose reach attains the best value are kept as candidates, so memory
    grows with a block and the candidates, not with the cell. Once every
    block has its seed, the candidates of 3 segments that still attain the
    best value take, in blocks of the same size, the smaller of that reach
    and the reach of their split bound (`_split_bound`), and one descent
    (`_max_opdev`) scans every candidate that can still reach the best
    value, from the blocks' best row on."""
    n = G.shape[0]
    segments = [(starts, h) for starts, h in segments if starts.shape[1] and h]
    if not segments:
        return 0.0, 0
    if any(starts.min() < 0 or int(starts.max()) + h > n for starts, h in segments):
        raise IndexError(f"column index out of range for {n} columns")
    widths = [h for starts, h in segments for _ in range(starts.shape[1])]
    diag, pair, two = (_PairTables(G) if tables is None else tables).read(widths)
    step = max(1, _BOUND_BLOCK_ELEMENTS // len(widths) ** 2)

    def block_starts(rows) -> list[np.ndarray]:
        return [part[rows, j] for part, _ in segments for j in range(part.shape[1])]

    best, arg, rows, reach = -math.inf, 0, [], []
    for lo in range(0, len(segments[0][0]), step):
        r = _pair_bound(block_starts(slice(lo, lo + step)), widths, diag, pair)
        r = _reach(r, _BOUND_FLOOR)
        j = int(np.argmax(r))
        if r[j] > best:
            dev = _deviations(_gather(G, _row_columns(segments, [lo + j])))[0]
            if dev > best:  # blocks ascend, so an equal value keeps the lower row
                best, arg = dev, lo + j
            r[j] = -np.inf  # solved
        keep = np.flatnonzero(r >= best)
        rows.append(keep + lo)
        reach.append(r[keep])
    rows, reach = np.concatenate(rows), np.concatenate(reach)
    keep = reach >= best
    rows, reach = rows[keep], reach[keep]
    if two:
        for lo in range(0, len(rows), step):
            part = slice(lo, lo + step)
            split = _split_bound(block_starts(rows[part]), widths, diag, pair, two)
            np.minimum(reach[part], _reach(split, _BOUND_FLOOR), out=reach[part])
    return _max_opdev(G, segments, rows, reach, best, arg)


# ---------------------------------------------------------------------------
# cell enumeration with caching

@lru_cache(maxsize=512)
def _cell_data(params: PibsParams, k: int, r: int) -> CellRows:
    """The (k, r) cell as index arrays (`cell_rows`), rows in `iter_cell`
    order; only arrays are cached, and a Support is built only for a row
    that is reported. Row 0 is checked against the first support
    `iter_cell` yields. Callers check the cell's `cell_count` against their
    cap first."""
    cell = cell_rows(params, k, r)
    first = next(iter_cell(params, k, r), None)
    if (cell.support(0) if len(cell) else None) != first:
        raise AssertionError(f"cell ({k}, {r}) row 0 differs from iter_cell's first support")
    return cell


@dataclass(frozen=True)
class RicEstimate:
    """Structured isometry constant of a cell or an order, with the first
    support attaining it (None when no support was scanned) and the count
    of supports it covers. A cell over its cap is `skipped`, with delta NaN."""

    delta: float
    argmax: Support | None
    count: int
    skipped: bool = False


def pibric(
    Phi: SensingMatrix,
    params: PibsParams,
    K: int,
    R: int,
    cap: int = 1_000_000,
) -> RicEstimate:
    """Exact max of operator_norm_dev over every support with at most K true
    blocks and at most R pseudo blocks: the largest cell maximum of
    `pibric_table`, after checking the total support count against `cap`
    (at least 1). On ties the argmax support is the first in (k, r) cell
    order and then in enumeration order. The estimate is that cell's, with
    `count` the total scanned.
    """
    check_at_least(1, cap=cap)
    total = sum(cell_count(params, k, r) for k in range(K + 1) for r in range(R + 1))
    if total > cap:
        raise EnumerationCapError(total, cap)
    table = pibric_table(Phi, params, K, R, cell_cap=cap)
    best = max(table.values(), key=lambda stat: stat.delta)
    return replace(best, count=total)


def pibric_table(
    Phi: SensingMatrix, params: PibsParams, K: int, R: int, cell_cap: int
) -> dict[tuple[int, int], RicEstimate]:
    """Per-cell maxima of operator_norm_dev, keyed in (k, r) order, each with
    the first support attaining it. `_batched_max_opdev` reduces the rows of
    the cell (`_cell_data`) to the exact (max, first argmax row), screening
    each row with the pair bound of its blocks (width b) and pseudo blocks
    (width l), and each candidate of 3 of them with the split bound as
    well, and eigensolving only the rows whose certified bounds can still
    reach the maximum; only that row becomes a Support. One `_PairTables`
    of G serves every cell, so each table the cells read is built once per
    call, and only those: E only for cells with k + r = 3. Cells larger
    than cell_cap are marked skipped instead of computed, and
    `_order_deltas` reads the order constants off the table."""
    if Phi.n != params.n:
        raise ValueError(f"matrix has n={Phi.n} but params.n={params.n}")
    G = Phi.gram
    tables = _PairTables(G)
    table: dict[tuple[int, int], RicEstimate] = {}
    for k in range(K + 1):
        for r in range(R + 1):
            count = cell_count(params, k, r)
            if count == 0:
                table[(k, r)] = RicEstimate(delta=0.0, argmax=None, count=0)
                continue
            if count > cell_cap:
                table[(k, r)] = RicEstimate(delta=math.nan, argmax=None, count=count, skipped=True)
                continue
            cell = _cell_data(params, k, r)
            delta, i = _batched_max_opdev(G, cell.segments, tables)
            table[(k, r)] = RicEstimate(delta=delta, argmax=cell.support(i), count=count)
    return table


def _order_deltas(table: dict[tuple[int, int], RicEstimate]) -> dict[tuple[int, int], float]:
    """Constant of every order (K', R') whose cells k <= K', r <= R' were all
    computed, in the table's (k, r) order: the max of cell (K', R') and of
    the orders (K'-1, R') and (K', R'-1)."""
    deltas: dict[tuple[int, int], float] = {}
    for (k, r), stat in table.items():
        below = [o for o in ((k - 1, r), (k, r - 1)) if min(o) >= 0]
        if not stat.skipped and all(o in deltas for o in below):
            deltas[(k, r)] = max([stat.delta] + [deltas[o] for o in below])
    return deltas


# ---------------------------------------------------------------------------
# lemma verification

@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    checks: int
    worst_margin: float
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class LemmaReport:
    entries: tuple[LemmaCheck, ...]
    K: int
    R: int

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries if not e.skipped)

    def render(self) -> str:
        lines = [f"lemma checks (K={self.K}, R={self.R})"]
        for e in self.entries:
            if e.skipped:
                lines.append(f"  {e.name}: skipped ({e.reason})")
            else:
                verdict = "pass" if e.passed else "FAIL"
                lines.append(
                    f"  {e.name}: {verdict} checks={e.checks} worst_margin={e.worst_margin:.3e}"
                )
        return "\n".join(lines) + "\n"

    def margins_csv(self) -> str:
        lines = ["lemma,passed,skipped,checks,worst_margin"]
        for e in self.entries:
            lines.append(
                f"{e.name},{int(e.passed)},{int(e.skipped)},{e.checks},{e.worst_margin!r}"
            )
        return "\n".join(lines) + "\n"


def _table_cells(
    table: dict[tuple[int, int], RicEstimate], params: PibsParams, K: int, R: int
) -> list[CellRows]:
    """The computed cells of the table with k <= K and r <= R whose supports
    cover at least one column, in cell order: the pool `_sample_rows` draws
    from."""
    cells = []
    for k in range(K + 1):
        for r in range(R + 1):
            stat = table[(k, r)]
            if stat.count and not stat.skipped and k * params.b + r * params.l:
                cells.append(_cell_data(params, k, r))
    return cells


def _sample_rows(
    cells: list[CellRows], limit: int, rng: np.random.Generator
) -> list[tuple[CellRows, np.ndarray]]:
    """Every row of the cells when they number at most `limit`, otherwise
    `limit` rows drawn without replacement, as (cell, ascending row indices)
    pairs in row order, each holding at most _STACK_CHUNK rows of one cell."""
    sizes = [len(cell) for cell in cells]
    total = sum(sizes)
    if total <= limit:
        picks = np.arange(total)
    else:
        picks = np.sort(rng.choice(total, size=limit, replace=False))
    starts = np.cumsum([0] + sizes)
    ends = np.searchsorted(picks, starts)
    return [
        (cell, picks[lo : min(lo + _STACK_CHUNK, hi)] - start)
        for cell, start, first, hi in zip(cells, starts, ends, ends[1:])
        for lo in range(first, hi, _STACK_CHUNK)
    ]


def _stacked(Phi: SensingMatrix, cols: np.ndarray) -> np.ndarray:
    """Phi[:, cols[i]] for every row i of cols, as an (S, m, s) stack. Each
    slice has the F-contiguous layout of `Phi.entries[:, cols[i]]`: a
    C-contiguous stack rounds some products differently in the last bit."""
    return Phi.entries.T[cols].transpose(0, 2, 1)


def _draws(rng: np.random.Generator, shape: tuple[int, int, int], complex_values: bool):
    """Standard normal coefficients of shape (S, size, draws), consuming the
    generator as S successive (size, draws) draws do; a complex item takes
    its real part before its imaginary part."""
    if not complex_values:
        return rng.standard_normal(shape)
    Z = rng.standard_normal((shape[0], 2) + shape[1:])
    return Z[:, 0] + 1j * Z[:, 1]


def _unit(X: np.ndarray) -> np.ndarray:
    """X with each column of each slice scaled to unit norm, in place."""
    X /= np.linalg.norm(X, axis=-2, keepdims=True)
    return X


def _project_out(Q: np.ndarray | None, V: np.ndarray) -> np.ndarray:
    """(I - Q Q^H) V slice by slice; Q None projects onto nothing."""
    if Q is None:
        return V
    return V - Q @ (Q.conj().transpose(0, 2, 1) @ V)


def _projected_checks(
    Phi: SensingMatrix, items: list[tuple], sandwich: _Tally, inner: _Tally
) -> None:
    """The projected sandwich and inner-product checks of same-shape
    subsets, stacked. Each item is (delta, covered, rest, X, split) with,
    when rest has 2 or more columns, split = (S2, S3, U, V)."""
    delta = np.array([item[0] for item in items])[:, None]
    covered = np.stack([item[1] for item in items])
    Q = np.linalg.qr(_stacked(Phi, covered))[0] if covered.shape[1] else None
    X = _unit(np.stack([item[3] for item in items]))
    Z = _project_out(Q, _stacked(Phi, np.stack([item[2] for item in items])) @ X)
    norms2 = np.linalg.norm(Z, axis=-2) ** 2
    sandwich.add(np.minimum(norms2 - (1.0 - delta), (1.0 + delta) - norms2))
    if items[0][4] is None:
        return
    S2, S3, U, V = (np.stack(part) for part in zip(*(item[4] for item in items)))
    PU = _project_out(Q, _stacked(Phi, S2) @ _unit(U))
    QV = _stacked(Phi, S3) @ _unit(V)
    inner.add(delta - np.abs(np.sum(PU.conj() * QV, axis=-2)))


def _missing(d: dict[tuple[int, int], float], orders, at_least_one: bool = False) -> bool:
    """Whether some order of `orders` has no constant in `d`, which happens
    only when one of its cells was over cell_cap. With `at_least_one`, such
    an order counts only if no computed order below it reaches 1, since an
    order's constant is at least that of every order below it."""
    def reaches_one(o):
        return any(q[0] <= o[0] and q[1] <= o[1] and v >= 1.0 for q, v in d.items())

    return any(o not in d and not (at_least_one and reaches_one(o)) for o in orders)


class _Tally:
    """One lemma family's verdict, and the only place a LemmaCheck is built.

    It adds up the checks and keeps the worst margin; the family fails iff
    some margin falls below -_LEMMA_TOL. A family that ran no check is
    reported as skipped when it has a `skip` reason, and as a vacuous pass
    otherwise.
    """

    def __init__(self, name: str, skip: str = ""):
        self.name = name
        self.skip = skip
        self.checks = 0
        self.worst = math.inf
        self.passed = True

    def add(self, margins) -> None:
        """Count each margin of `margins`, a number or an array, as one check."""
        margins = np.asarray(margins)
        self.checks += margins.size
        margin = float(margins.min())
        self.worst = min(self.worst, margin)
        if margin < -_LEMMA_TOL:
            self.passed = False

    def entry(self) -> LemmaCheck:
        if self.skip and not self.checks:
            return LemmaCheck(self.name, True, 0, math.inf, skipped=True, reason=self.skip)
        return LemmaCheck(self.name, self.passed, self.checks, self.worst)


def verify_lemmas(
    Phi: SensingMatrix,
    params: PibsParams,
    K: int,
    R: int,
    rng: np.random.Generator,
    cell_cap: int = 150_000,
    support_samples: int = 120,
    draws_sandwich: int = 50,
    draws_projected: int = 20,
    draws_innerproduct: int = 100,
) -> LemmaReport:
    """Check the isometry-constant inequalities on one matrix by brute force.

    Each lemma family reports its check count and worst margin (the slack of
    its inequality); it fails iff some margin is below -_LEMMA_TOL. Cells
    of the support lattice larger than `cell_cap` (at least 1) are skipped,
    and a family that could run no check because of them is reported as
    skipped (cells over cell_cap), never silently passed. Per-support
    instantiations sample `support_samples` supports when a cell family is
    larger than that. A sampled support stays a row of its cell's arrays, and only the
    sampled rows are expanded to columns (`_row_columns`). The
    sampled supports of one cell, or the subsets of one shape, are checked
    with one stacked product per chunk of _STACK_CHUNK, drawing from `rng`
    in the order of one check at a time.
    """
    if params.l != params.Lsep:
        raise ValueError("verify_lemmas expects params.l == params.Lsep for the main family")
    check_at_least(1, cell_cap=cell_cap)
    families: list[_Tally] = []

    def family(name: str, skip: str = "") -> _Tally:
        families.append(_Tally(name, skip))
        return families[-1]

    fam_B = replace(params, l=1)
    table_A = pibric_table(Phi, params, K, R, cell_cap=cell_cap)
    table_B = pibric_table(Phi, fam_B, K, R, cell_cap=cell_cap)
    d_A = _order_deltas(table_A)
    d_B = _order_deltas(table_B)

    complex_case = Phi.is_complex

    # norm sandwich on every support of the structured family
    top = [o for o in table_A if o[0] == K or o[1] == R]
    fam = family("norm-sandwich", skip=_OVER_CAP if _missing(d_A, top) else _NO_COLUMNS)
    for order in [o for o in top if o in d_A]:
        delta = d_A[order]
        pool = _table_cells(table_A, params, *order)
        for cell, rows in _sample_rows(pool, support_samples, rng):
            cols = _row_columns(cell.segments, rows)
            X = _unit(_draws(rng, cols.shape + (draws_sandwich,), complex_case))
            norms2 = np.linalg.norm(_stacked(Phi, cols) @ X, axis=-2) ** 2
            fam.add(np.minimum(norms2 - (1.0 - delta), (1.0 + delta) - norms2))

    # constants grow with the block and pseudo budgets
    fam = family("budget-monotonicity", skip=_OVER_CAP if _missing(d_A, table_A) else "no cells")
    for o1 in d_A:
        for o2 in d_A:
            if o1 != o2 and o1[0] <= o2[0] and o1[1] <= o2[1]:
                fam.add(d_A[o2] - d_A[o1])

    # shorter pseudo blocks never increase the constant; at length 0 they
    # cover nothing, so the order-(K', R') constant is the order-(K', 0) one
    fam = family("pseudo-length-monotonicity")
    for order, val in d_A.items():
        fam.add(val - d_A[(order[0], 0)])
        if order in d_B:
            fam.add(val - d_B[order])

    # one block is dominated by one more pseudo-block budget
    if params.window_length < params.B:
        family("block-for-pseudo-trade", skip="window below cluster capacity")
    else:
        needed = [o for Kp in range(1, K + 1) for o in ((Kp, 1), (Kp - 1, 2))] if R >= 2 else []
        reason = _OVER_CAP if _missing(d_A, needed) else "needed orders unavailable"
        fam = family("block-for-pseudo-trade", skip=reason)
        for Kp in range(1, K + 1):
            if (Kp, 1) in d_A and (Kp - 1, 2) in d_A:
                fam.add(d_A[(Kp - 1, 2)] - d_A[(Kp, 1)])

    # the projected-matrix checks need an order with delta < 1; run every
    # maximal such order so multi-block splits are exercised when available
    usable = [o for o, d in d_A.items() if d < 1.0 and (o[0] or o[1])]
    frontier = [
        o for o in usable
        if not any(q != o and q[0] >= o[0] and q[1] >= o[1] for q in usable)
    ]
    covering = [o for o in table_A if o[0] or o[1]]
    if frontier:
        reason = ""
    elif _missing(d_A, covering, at_least_one=True):
        reason = _OVER_CAP
    else:
        reason = "delta >= 1" if covering else _NO_COLUMNS
    sandwich = family("projected-sandwich", skip=reason)
    inner = family("projected-innerproduct", skip=reason)
    order_rows = []
    for order in frontier:
        pool = _table_cells(table_A, params, *order)
        per_order = max(1, support_samples // len(frontier))
        order_rows += [(cell, rows, d_A[order])
                       for cell, rows in _sample_rows(pool, per_order, rng)]
    # each subset draws in turn; subsets of one shape are checked together
    pending: dict[tuple[int, int, int], list[tuple]] = defaultdict(list)
    for cell, rows, delta in order_rows:
        starts = cell.blocks[rows][:, :, None]
        cols = _row_columns(cell.segments, rows)
        # bit i of a column's mask is set when the column lies in block i,
        # so subset j of the doubling order covers the columns of mask & j
        inside = (cols[:, None] >= starts) & (cols[:, None] < starts + params.b)
        masks = (inside << np.arange(starts.shape[1])[:, None]).sum(axis=1)
        count = 1 << starts.shape[1]
        for row_cols, mask in zip(cols, masks):
            subsets = range(count)
            if count > 8:
                subsets = sorted(rng.choice(count, size=8, replace=False))
            for j in subsets:
                in_S1 = (mask & j) != 0
                rest = row_cols[~in_S1]
                if rest.size == 0:
                    continue
                X = _draws(rng, (1, rest.size, draws_projected), complex_case)[0]
                cut, split = 0, None
                if rest.size >= 2:
                    cut = int(rng.integers(1, rest.size))
                    perm = rng.permutation(rest.size)
                    U = _draws(rng, (1, cut, draws_innerproduct), complex_case)[0]
                    V = _draws(rng, (1, rest.size - cut, draws_innerproduct), complex_case)[0]
                    split = (rest[perm[:cut]], rest[perm[cut:]], U, V)
                key = (row_cols.size - rest.size, rest.size, cut)
                pending[key].append((delta, row_cols[in_S1], rest, X, split))
                if len(pending[key]) == _STACK_CHUNK:
                    _projected_checks(Phi, pending.pop(key), sandwich, inner)
    for items in pending.values():
        _projected_checks(Phi, items, sandwich, inner)

    # projected-column lower bound from the singleton-pseudo family,
    # checked at the largest block budget whose constant stays below 1
    K7 = None
    for Kp in range(K, 0, -1):
        if d_B.get((Kp, 1), math.inf) < 1.0:
            K7 = Kp
            break
    if K7 is None:
        needed = [(Kp, 1) for Kp in range(1, K + 1) if (Kp, 1) in table_B]
        if _missing(d_B, needed, at_least_one=True):
            reason = _OVER_CAP
        else:
            reason = "no order with delta < 1" if needed else "needed orders unavailable"
        family("projected-column-bound", skip=reason)
    elif not Phi.normalized:
        family("projected-column-bound", skip="columns not unit norm")
    else:
        fam = family("projected-column-bound")
        bound = math.sqrt(1.0 - d_B[(K7, 1)] ** 2)
        pool = _table_cells(table_B, fam_B, K7, 0)
        for cell, rows in _sample_rows(pool, support_samples, rng):
            cols = _row_columns(cell.segments, rows)
            outside = np.ones((len(cols), Phi.n), dtype=bool)
            np.put_along_axis(outside, cols, False, axis=1)
            others = np.nonzero(outside)[1].reshape(len(cols), -1)
            Q = np.linalg.qr(_stacked(Phi, cols))[0]
            fam.add(np.linalg.norm(_project_out(Q, _stacked(Phi, others)), axis=-2) - bound)

    return LemmaReport(entries=tuple(f.entry() for f in families), K=K, R=R)


# ---------------------------------------------------------------------------
# complex real-part bound

def real_part_lower_bound_check(z: complex, w: complex) -> tuple[float, float, bool]:
    """For v = w/z with |v| < 1: the real part of sign(z+w) * conj(z) is at
    least |z| sqrt(1 - |v|^2), with equality to |z| when v is real."""
    z = complex(z)
    w = complex(w)
    if z == 0:
        raise ValueError("z must be nonzero")
    # compare magnitudes, not |w/z|: the quotient overflows for tiny z
    if abs(w) >= abs(z):
        raise ValueError(f"|w| = {abs(w)} must be below |z| = {abs(z)}")
    v = w / z
    s = (z + w) / abs(z + w)
    lhs = (s * z.conjugate()).real
    rhs = abs(z) * math.sqrt(max(0.0, 1.0 - abs(v) ** 2))
    ok = lhs >= rhs - 1e-12
    if v.imag == 0:
        ok = ok and abs(lhs - abs(z)) <= 1e-12
    return lhs, rhs, ok


# ---------------------------------------------------------------------------
# deterministic recovery certificate

def f_K(u: float, K: int, b: int, p: int) -> float:
    """Scaling function u*sqrt(B'b)/(1+u) * (K(1+u)/(4B') + sqrt(K+1) + 1)
    with B' = pb - b + 1. Continuous, strictly increasing, f_K(0) = 0.
    Defined for u >= 0 and b, p >= 1 only."""
    check_at_least(0, u=u)
    check_at_least(1, b=b, p=p)
    Bp = p * b - b + 1
    return (u * math.sqrt(Bp * b) / (1.0 + u)) * (
        K * (1.0 + u) / (4.0 * Bp) + math.sqrt(K + 1.0) + 1.0
    )


def f_K_inverse(target: float, K: int, b: int, p: int) -> float:
    """Invert f_K by bisection on [0, _F_K_BRACKET] to 1e-12, for a finite
    target >= 0."""
    check_at_least(0, target=target)
    if f_K(_F_K_BRACKET, K, b, p) < target:
        raise ValueError(f"target {target} unreachable on [0, {_F_K_BRACKET}]")
    if target == 0:
        return 0.0
    lo, hi = 0.0, _F_K_BRACKET
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f_K(mid, K, b, p) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RecoveryCertificate:
    """Evaluation of the two exact-recovery conditions at a known isometry
    constant: each holds when its margin is above 0. `passed` requires
    both."""

    margin_17: float
    margin_18: float

    @property
    def condition_17_ok(self) -> bool:
        return self.margin_17 > 0

    @property
    def condition_18_ok(self) -> bool:
        return self.margin_18 > 0

    @property
    def passed(self) -> bool:
        return self.condition_17_ok and self.condition_18_ok


def thm1_certificate(
    delta: float,
    K: int,
    b: int,
    p: int,
    epsilon: float = 0.0,
    x_min: float = 1.0,
    x_max: float = 1.0,
    field: str = "real",
) -> RecoveryCertificate:
    """Evaluate the recovery conditions: the isometry constant below
    1/sqrt(2K+1), and the smallest magnitude above the field-dependent
    threshold built from f_K plus a noise term. The noise level epsilon
    must be finite and >= 0, and the magnitudes finite with
    0 < x_min <= x_max."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    check_at_least(0, epsilon=epsilon)
    if not (0.0 < x_min <= x_max < math.inf):
        raise ValueError(f"need finite 0 < x_min <= x_max, got x_min={x_min!r}, x_max={x_max!r}")
    check_at_least(1, K=K)
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    f = f_K(delta, K, b, p)
    Bp = p * b - b + 1
    thresh = 1.0 / math.sqrt(2.0 * K + 1.0)

    if epsilon == 0.0:
        noise = 0.0
    else:
        denom = 1.0 - delta * math.sqrt(2.0 * K + 1.0)
        noise = (
            math.sqrt(2.0 * (1.0 + Bp) * (1.0 + delta)) * epsilon / denom
            if denom > 0
            else math.inf
        )

    if field == "real":
        rhs = f * x_max + noise
    else:
        numer = (
            delta * math.sqrt(K * b) + (1.0 - delta**2) * f
        ) * x_max
        rhs = numer / math.sqrt((1.0 - delta**2) ** 2 + delta**2) + noise
    return RecoveryCertificate(margin_17=thresh - delta, margin_18=x_min - rhs)


# ---------------------------------------------------------------------------
# Gaussian-matrix probability bound

@dataclass(frozen=True)
class Thm2Report:
    """The Theorem 2 bound with every intermediate: lambda (of the variant
    named), nu, rho, the count-bound terms A, C, D, E and exponent h, the
    tail constants c1 and c2 at eps0 and eps, the magnitude-ratio tail g,
    the bound in both forms, and the side-condition flags."""

    lam: float
    lambda_variant: str
    nu: float
    rho: float
    A: float
    C: float
    D: float
    E: float
    h: float
    c1: float
    c2: float
    eps0: float
    eps: float
    g_used: float
    bound: float
    bound_derivation: float
    flags: dict[str, bool]

    def render(self) -> str:
        lines = [
            f"lambda = {self.lam!r} ({self.lambda_variant})",
            f"nu     = {self.nu!r}",
            f"rho    = {self.rho!r}",
            f"A = {self.A!r}  C = {self.C!r}  D = {self.D!r}  E = {self.E!r}",
            f"h  = {self.h!r}",
            f"c1 = {self.c1!r}",
            f"c2 = {self.c2!r}",
            f"g  = {self.g_used!r}",
            f"bound            = {self.bound!r}",
            f"bound (derivation form) = {self.bound_derivation!r}",
        ]
        for name, ok in self.flags.items():
            lines.append(f"flag {name}: {'ok' if ok else 'VIOLATED'}")
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        rows = [
            ("lambda", self.lam), ("nu", self.nu), ("rho", self.rho),
            ("A", self.A), ("C", self.C), ("D", self.D), ("E", self.E),
            ("h", self.h), ("c1", self.c1), ("c2", self.c2),
            ("eps0", self.eps0), ("eps", self.eps),
            ("g", self.g_used), ("bound", self.bound),
            ("bound_derivation", self.bound_derivation),
        ]
        lines = ["quantity,value"]
        lines += [f"{name},{value!r}" for name, value in rows]
        lines += [f"flag_{name},{int(ok)}" for name, ok in self.flags.items()]
        return "\n".join(lines) + "\n"


def _count_bound_exponent(
    n: int, b: int, p: int, Lsep: int, K: int, R: int
) -> tuple[float, float, float, float, float]:
    """Terms (A, C, D, E, h) of the closed-form count bound exp(h) on the
    supports of the order-(K-1, R) constant that the recovery certificate
    checks: A and D count K - 1 true blocks, the other terms K, as the
    bound is stated. h is inf when p*D/K - E <= 0."""
    A = 3.0 * p * (K - 1) / (2.0 * (p + 1) ** 2) + R
    C = math.log(p) + 21.0 / 8.0 - 1.0 / p
    D = float(n - (K - 1) * b + Lsep)
    E = float(Lsep - 1)
    arg = p * D / K - E
    h = A + K * C + K * math.log(arg) if arg > 0 else math.inf
    return A, C, D, E, h


def thm2_bound(
    b: int,
    p: int,
    L: int,
    K: int,
    R: int,
    m: int,
    n: int,
    eps0: float,
    eps: float,
    lambda_variant: str = "separation",
    g_value: float | None = None,
) -> Thm2Report:
    """Probability lower bound for the recovery conditions under an i.i.d.
    Gaussian matrix with variance 1/m.

    `lambda_variant` "separation" uses sqrt(((K-1)b + 2L')/m), which is what
    the tail-bound derivation supports; "window" uses 2L in place of 2L' as a
    compatibility switch. Side-condition violations are reported as flags,
    never raised; n, m or K below 1, R below 0, a non-finite eps0 or eps and
    an eps below -nu (f_K's argument nu + eps below 0) raise ValueError.
    Unless `g_value` is supplied, the magnitude-ratio tail g is replaced by
    its conservative closed-form lower bound Kb*w(a)^(Kb-1).
    """
    check_at_least(1, n=n, m=m, K=K)
    check_at_least(0, R=R)
    if not (math.isfinite(eps0) and math.isfinite(eps)):
        raise ValueError(f"eps0 and eps must be finite, got eps0={eps0!r}, eps={eps!r}")
    Lp = min_separation(b, p, L)
    if lambda_variant == "separation":
        lam = math.sqrt(((K - 1) * b + 2 * Lp) / m)
    elif lambda_variant == "window":
        lam = math.sqrt(((K - 1) * b + 2 * L) / m)
    else:
        raise ValueError("lambda_variant must be 'separation' or 'window'")
    nu = lam**2 + 2 * lam
    if nu + eps < 0:
        raise ValueError(f"eps must be >= -nu = {-nu!r}, got eps={eps!r}")
    rho = f_K_inverse(1.0, K, b, p)

    A, C, D, E, h = _count_bound_exponent(n, b, p, Lp, K, R)
    try:
        c1 = 2.0 * math.exp(h)
    except OverflowError:
        c1 = math.inf
    c2 = m / (lam + 1.0 + math.sqrt(1.0 + rho)) ** 2

    a = f_K(nu + eps, K, b, p)
    if g_value is not None:
        g = g_value
    else:
        g = g_bounds(a, K, b)[0] if a <= 1.0 else 0.0

    tail0 = c1 * math.exp(-c2 * eps0**2) if c1 != math.inf else math.inf
    tail = c1 * math.exp(-c2 * eps**2) if c1 != math.inf else math.inf
    bound = g - (1.0 + g) * tail0
    bound_derivation = g * (1.0 - tail) - tail0

    thresh = 1.0 / math.sqrt(2.0 * K + 1.0)
    flags = {
        "signal-length": n >= K * b + R * Lp + (K + 1) * (Lp - 1),
        "cluster-capacity": 3 * p <= K,
        "measurement-count": m >= (K - 1) * b + 2 * Lp,
        "nu-rho-order": nu < rho < 3.0,
        "eps0-window": nu + eps0 < thresh < rho,
        "eps-range": 0.0 <= eps <= max(rho - nu, 0.0),
        "h-defined": h < math.inf,
    }
    return Thm2Report(
        lam=lam, lambda_variant=lambda_variant, nu=nu, rho=rho, A=A, C=C, D=D, E=E, h=h,
        c1=c1, c2=c2, eps0=eps0, eps=eps, g_used=g, bound=bound,
        bound_derivation=bound_derivation, flags=flags,
    )


# ---------------------------------------------------------------------------
# magnitude-ratio tail

def _w(a: float) -> float:
    """(2/pi) * arccot(a) - 1/2 on [0, 1]; w(0) = 1/2, w(1) = 0."""
    return (2.0 / math.pi) * math.atan2(1.0, a) - 0.5


def g_bounds(a: float, K: int, b: int) -> tuple[float, float]:
    """Closed-form bounds (Kb*w(a)^(Kb-1), Kb*w(a)) on the probability that a
    standard-Gaussian vector of length Kb has min/max magnitude ratio > a.
    The length-1 case is deterministic: the ratio is identically 1."""
    if not (0.0 <= a <= 1.0):
        raise ValueError("a must lie in [0, 1]")
    check_at_least(1, K=K, b=b)
    Kb = K * b
    if Kb == 1:
        return (1.0, 1.0) if a < 1.0 else (0.0, 0.0)
    w = max(_w(a), 0.0)
    return (Kb * w ** (Kb - 1), Kb * w)


def g_empirical(a: float, K: int, b: int, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the min/max magnitude ratio tail."""
    check_at_least(1, trials=trials)
    Kb = K * b
    X = np.abs(rng.standard_normal((trials, Kb)))
    ratio = X.min(axis=1) / X.max(axis=1)
    return float(np.mean(ratio > a))
