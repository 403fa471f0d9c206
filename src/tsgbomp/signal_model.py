"""Block-sparse signal model: cluster/pseudo-block supports, their generation,
enumeration, exact counting, and value filling.

A support consists of "true clusters" (runs of 1..p adjacent blocks of b
indices each) separated by at least ``Lsep`` indices free of clusters, plus
optional fixed-length "pseudo blocks" that may sit anywhere in the gaps as
long as they overlap nothing. Pseudo blocks belong to the analysis only:
they are enumerated and counted for the structured isometry constant, while
sampled and filled signals are pseudo-free. All user-facing indices are
1-based.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from operator import getitem, sub
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "EnumerationCapError",
    "PibsParams",
    "Support",
    "CellRows",
    "CountComparison",
    "check_at_least",
    "min_separation",
    "validate_support",
    "sample_support",
    "cell_rows",
    "enumerate_supports",
    "cell_count",
    "count_supports_formula",
    "formula_assumptions",
    "compare_counts",
    "parse_value_scheme",
    "fill_values",
    "support_to_text",
    "support_from_text",
    "signal_to_csv",
    "signal_values_from_csv",
]


class GeometryError(ValueError):
    """The requested arrangement does not fit in the signal length."""


class EnumerationCapError(RuntimeError):
    """Support enumeration exceeds the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration size {count} exceeds cap {cap}")


def check_at_least(low, **values) -> None:
    """Raise ValueError naming the first of `values` outside low <= value <
    inf: below `low`, or, for a value that is not an integer, nan or
    infinite. Every lower bound on an input of the package is this rule."""
    for name, value in values.items():
        if not low <= value < math.inf:
            finite = "" if isinstance(value, numbers.Integral) else "finite and "
            raise ValueError(f"{name} must be {finite}>= {low}, got {value!r}")


def min_separation(b: int, p: int, L: int) -> int:
    """Minimum cluster separation induced by a window of length L: L + 2pb - b."""
    check_at_least(1, b=b, p=p, L=L)
    return L + 2 * p * b - b


@dataclass(frozen=True)
class PibsParams:
    """Geometry of the sparsity model.

    n: signal length; b: block size; p: max blocks per cluster;
    l: pseudo-block length; Lsep: minimum inter-cluster separation;
    K: total true-block budget; R: pseudo-block budget.
    """

    n: int
    b: int
    p: int
    l: int
    Lsep: int
    K: int
    R: int

    def __post_init__(self):
        check_at_least(1, b=self.b, p=self.p, n=self.n, Lsep=self.Lsep)
        check_at_least(0, K=self.K, R=self.R)
        if not (0 <= self.l <= self.Lsep):
            raise ValueError("pseudo length l must satisfy 0 <= l <= Lsep")

    @classmethod
    def from_window(cls, n: int, b: int, p: int, l: int, L: int, K: int, R: int) -> "PibsParams":
        """The geometry whose separation a window of length L induces
        (`min_separation`)."""
        return cls(n=n, b=b, p=p, l=l, Lsep=min_separation(b, p, L), K=K, R=R)

    @property
    def B(self) -> int:
        """Cluster capacity p*b."""
        return self.p * self.b

    @property
    def window_length(self) -> int:
        """Window length L implied by Lsep = L + 2pb - b."""
        return self.Lsep - 2 * self.p * self.b + self.b


@dataclass(frozen=True)
class Support:
    """A validated index set: ordered clusters (start, block count) plus
    pseudo-block starts. Starts are 1-based."""

    clusters: tuple[tuple[int, int], ...]
    pseudo: tuple[int, ...]
    params: PibsParams

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(sorted(tuple(c) for c in self.clusters)))
        object.__setattr__(self, "pseudo", tuple(sorted(self.pseudo)))

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """All covered indices, sorted, 1-based."""
        b, l = self.params.b, self.params.l
        cols: set[int] = set()
        for start, j in self.clusters:
            cols.update(range(start, start + j * b))
        for start in self.pseudo:
            cols.update(range(start, start + l))
        return tuple(sorted(cols))

    @cached_property
    def column_array(self) -> np.ndarray:
        """0-based column indices for numpy slicing."""
        return np.asarray(self.columns, dtype=np.intp) - 1

    def is_empty(self) -> bool:
        return not self.clusters and not self.pseudo


def validate_support(support: Support) -> tuple[bool, list[str]]:
    """Check every support invariant; return (ok, list of violations)."""
    p = support.params
    bad: list[str] = []
    n, b, l = p.n, p.b, p.l

    for start, j in support.clusters:
        if not (1 <= j <= p.p):
            bad.append(f"cluster-size: block count {j} outside [1, {p.p}]")
        if start < 1 or start + j * b - 1 > n:
            bad.append(f"cluster-range: cluster at {start} with {j} blocks leaves [1, {n}]")
    for (s1, j1), (s2, _) in zip(support.clusters, support.clusters[1:]):
        gap = s2 - (s1 + j1 * b)
        if gap < p.Lsep:
            bad.append(f"separation: gap {gap} between clusters at {s1} and {s2} below {p.Lsep}")

    if l == 0 and support.pseudo:
        bad.append("pseudo-length: pseudo blocks present but pseudo length is 0")
    cluster_cols: set[int] = set()
    for start, j in support.clusters:
        cluster_cols.update(range(start, start + j * b))
    prev_end = 0
    for start in support.pseudo:
        if start < 1 or start + l - 1 > n:
            bad.append(f"pseudo-range: pseudo block at {start} leaves [1, {n}]")
        if start <= prev_end:
            bad.append(f"pseudo-overlap: pseudo blocks overlap at {start}")
        if cluster_cols.intersection(range(start, start + l)):
            bad.append(f"pseudo-overlap: pseudo block at {start} overlaps a cluster")
        prev_end = max(prev_end, start + l - 1)

    return (not bad, bad)


# ---------------------------------------------------------------------------
# compositions of the block budget into cluster sizes

@lru_cache(maxsize=None)
def _composition_counts(total: int, parts: int, p: int) -> int:
    """Number of compositions of `total` into exactly `parts` parts in [1, p],
    by inclusion-exclusion over the i parts forced above p."""
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(
        (-1) ** i * math.comb(parts, i) * math.comb(total - i * p - 1, parts - 1)
        for i in range(parts + 1)
        if total - i * p >= parts
    )


def _compositions(total: int, parts: int, p: int) -> Iterator[tuple[int, ...]]:
    """Lexicographic order, the sampler's unranking order, with no recursion."""
    for index in range(_composition_counts(total, parts, p)):
        yield _unrank_composition(index, total, parts, p)


def _unrank_composition(index: int, total: int, parts: int, p: int) -> tuple[int, ...]:
    out = []
    for pos in range(parts):
        remaining_parts = parts - pos - 1
        for j in range(1, p + 1):
            c = _composition_counts(total - j, remaining_parts, p)
            if index < c:
                out.append(j)
                total -= j
                break
            index -= c
        else:
            raise IndexError("composition index out of range")
    return tuple(out)


def _layout_table(params: PibsParams, total_blocks: int) -> tuple[tuple[int, int, int], ...]:
    """(k, layouts, slack) for every cluster count k that fits the block
    budget: slack is the free columns beyond the k - 1 minimum gaps, and
    layouts = compositions * C(slack + k, k). Sampling, enumeration and
    the closed form (R = 0) read this table; `cell_count` does not."""
    n, b, p, Lsep = params.n, params.b, params.p, params.Lsep
    rows = []
    for k in range(-(-total_blocks // p), total_blocks + 1):
        slack = n - total_blocks * b - (k - 1) * Lsep
        if slack >= 0:
            rows.append((k, _composition_counts(total_blocks, k, p) * math.comb(slack + k, k), slack))
    return tuple(rows)


# ---------------------------------------------------------------------------
# sampling

def sample_support(params: PibsParams, total_blocks: int, rng: np.random.Generator) -> Support:
    """Draw a pseudo-free support with `total_blocks` true blocks, uniform
    over all admissible cluster layouts: one exact ticket unranked through
    the layout table, so no geometry needs retries; GeometryError means
    there is no layout. Pseudo blocks only enter the isometry constant,
    never a signal."""
    if not 0 <= total_blocks <= params.K:
        raise ValueError(f"block count {total_blocks} outside [0, K={params.K}]")

    n, b, Lsep = params.n, params.b, params.Lsep
    table = _layout_table(params, total_blocks)
    total = sum(count for _, count, _ in table)
    if total == 0:
        raise GeometryError(
            f"no arrangement of {total_blocks} blocks (b={b}, Lsep={Lsep}) fits in n={n}"
        )
    # exact integer inversion keeps the law uniform even for huge counts
    ticket = _ticket(rng, total)
    for k, count, slack in table:
        if ticket < count:
            break
        ticket -= count
    comp_idx, arr_idx = divmod(ticket, math.comb(slack + k, k))
    comp = _unrank_composition(comp_idx, total_blocks, k, params.p)
    gaps = _unrank_weak_composition(arr_idx, slack, k + 1)
    clusters = []
    pos = 1 + gaps[0]
    for j, extra in zip(comp, gaps[1:]):
        clusters.append((pos, j))
        pos += j * b + Lsep + extra

    support = Support(clusters=tuple(clusters), pseudo=(), params=params)
    ok, bad = validate_support(support)
    if not ok:  # pragma: no cover - guards the sampler itself
        raise AssertionError(f"sampler produced invalid support: {bad}")
    return support


def _ticket(rng: np.random.Generator, total: int) -> int:
    """Uniform integer in [0, total); beyond numpy's int64 range, random
    bits with the values >= total rejected (each round succeeds w.p. > 1/2)."""
    if total <= 2**63:
        return int(rng.integers(0, total))
    nbits = (total - 1).bit_length()
    while True:
        value = int.from_bytes(rng.bytes((nbits + 7) // 8), "little") >> (-nbits % 8)
        if value < total:
            return value


def _unrank_weak_composition(index: int, total: int, parts: int) -> tuple[int, ...]:
    """Unrank weak compositions of `total` into `parts` nonnegative parts,
    ordered lexicographically."""
    out = []
    for pos in range(parts - 1):
        for v in range(total + 1):
            c = math.comb(total - v + parts - pos - 2, parts - pos - 2)
            if index < c:
                out.append(v)
                total -= v
                break
            index -= c
        else:  # pragma: no cover
            raise IndexError("composition index out of range")
    out.append(total)
    return tuple(out)


def _allowed_pseudo_starts(
    n: int, b: int, l: int, clusters: Sequence[tuple[int, int]]
) -> np.ndarray:
    """1-based starts s where [s, s+l) stays in range and misses every cluster."""
    if l == 0 or l > n:
        return np.empty(0, dtype=np.intp)
    blocked = np.zeros(n + 2, dtype=bool)
    for start, j in clusters:
        lo = max(1, start - l + 1)
        hi = min(n - l + 1, start + j * b - 1)
        if lo <= hi:
            blocked[lo : hi + 1] = True
    starts = np.arange(1, n - l + 2, dtype=np.intp)
    return starts[~blocked[1 : n - l + 2]]


# ---------------------------------------------------------------------------
# enumeration

def _cluster_arrangements(
    params: PibsParams, total_blocks: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every layout of the layout table, ordered by cluster count, block
    counts, then starts: cluster i starts at its packed position plus a
    non-decreasing extra offset. The (start, blocks) pairs are built once per
    composition and shared by its layouts."""
    b, Lsep = params.b, params.Lsep
    for k, _, slack in _layout_table(params, total_blocks):
        for comp in _compositions(total_blocks, k, params.p):
            pairs, packed = [], 1
            for j in comp:
                pairs.append([(packed + e, j) for e in range(slack + 1)])
                packed += j * b + Lsep
            for offsets in combinations_with_replacement(range(slack + 1), k):
                yield tuple(map(getitem, pairs, offsets))


def _pseudo_arrangements(
    params: PibsParams, clusters: tuple[tuple[int, int], ...], r: int
) -> Iterator[tuple[int, ...]]:
    """Ascending r-tuples of allowed pseudo starts spaced at least l apart,
    in lexicographic order."""
    if r == 0:
        yield ()
        return
    l = params.l
    allowed = _allowed_pseudo_starts(params.n, params.b, l, clusters).tolist()
    for starts in combinations(allowed, r):
        if min(map(sub, starts[1:], starts), default=l) >= l:
            yield starts


def iter_cell(params: PibsParams, k: int, r: int) -> Iterator[Support]:
    """Yield every support with exactly k true blocks and r pseudo blocks,
    in lexicographic order."""
    for clusters in _cluster_arrangements(params, k):
        for pseudo in _pseudo_arrangements(params, clusters, r):
            yield Support(clusters=clusters, pseudo=pseudo, params=params)


_ROW_CHUNK_ELEMENTS = 1 << 16  # bound on rows * n entries of one enumeration step


def _row_dtype(params: PibsParams) -> np.dtype:
    """The narrowest signed integer type holding -(n + max(b, l)), so every
    start, and every start plus b or l, of the geometry: int8 up to
    n + max(b, l) = 128, int16 up to 32,768, int32 beyond."""
    return np.min_scalar_type(-(params.n + max(params.b, params.l)))


@dataclass(frozen=True, eq=False)
class CellRows:
    """Every support of one (k, r) cell as index arrays, row i being the
    i-th support `iter_cell` yields, all 0-based and of the geometry's
    narrowest index type (`_row_dtype`: int8 at n = 60, int16 at n = 200):
    `blocks` (N, k) holds each support's ascending block starts and
    `pseudo` (N, r) its ascending pseudo-block starts. Readers form a flat
    index from them, a start times a row length, in intp."""

    params: PibsParams
    blocks: np.ndarray
    pseudo: np.ndarray

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def segments(self) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
        """The rows' segments as (starts, width) pairs: the blocks of b
        columns, then the pseudo blocks of l."""
        return (self.blocks, self.params.b), (self.pseudo, self.params.l)

    def support(self, i: int) -> Support:
        """Row i as a Support. Adjacent blocks belong to one cluster, since
        clusters are at least Lsep >= 1 columns apart."""
        b = self.params.b
        clusters: list[list[int]] = []
        for start in (self.blocks[i] + 1).tolist():
            if clusters and clusters[-1][0] + clusters[-1][1] * b == start:
                clusters[-1][1] += 1
            else:
                clusters.append([start, 1])
        return Support(
            clusters=tuple(map(tuple, clusters)),
            pseudo=tuple((self.pseudo[i] + 1).tolist()),
            params=self.params,
        )


def cell_rows(params: PibsParams, k: int, r: int) -> CellRows:
    """Every support with exactly k true blocks and r pseudo blocks as index
    arrays of the narrowest type the geometry allows (`_row_dtype`), in
    `iter_cell` order, with no Support built.

    The arrays are allocated once, with `cell_count` rows, and written in
    place. Each composition's layouts are its packed block starts plus
    non-decreasing cluster offsets: cluster i's offsets are row i of
    `_combinations(slack + kc, kc)`, held whole for one cluster count kc,
    less i, which `base` takes off each block's packed start. With no
    pseudo blocks each block column is written whole, one `np.add` of its
    cluster's row and its base; otherwise layouts are taken in chunks and
    pseudo blocks are added one ascending start at a time (`_place_pseudo`),
    in chunks whose (rows, n) masks hold at most _ROW_CHUNK_ELEMENTS
    entries, so apart from the rows it returns and one cluster count's
    offsets, memory does not grow with the cell: one step's masks and
    `np.nonzero` pairs stay near 1 MB. The (1, 2) cell of n=200, b=4,
    l=Lsep=12, 2,633,925 int16 rows, holds 15.1 MiB, and enumerating it
    peaks at 1.15 times that under tracemalloc. A row count other than
    `cell_count` raises AssertionError."""
    n, b, l = params.n, params.b, params.l
    chunk = max(1, _ROW_CHUNK_ELEMENTS // n)
    total = cell_count(params, k, r)
    dtype = _row_dtype(params)
    blocks = np.empty((total, k), dtype)
    pseudo = np.empty((total, r), dtype)
    at = 0
    for kc, _, slack in _layout_table(params, k):
        offsets = _combinations(slack + kc, kc, dtype)
        for comp in _compositions(k, kc, params.p):
            base, owner, packed = [], [], 0
            for i, j in enumerate(comp):
                base += [packed + w * b - i for w in range(j)]
                owner += [i] * j
                packed += j * b + params.Lsep
            base = np.asarray(base, dtype=dtype)
            if r == 0:
                end = at + offsets.shape[1]
                if end > total:
                    raise AssertionError(f"cell ({k}, {r}) holds more than {total} rows")
                for c, i in enumerate(owner):
                    np.add(offsets[i], base[c], out=blocks[at:end, c])
                at = end
                continue
            for lo in range(0, offsets.shape[1], chunk):
                starts = offsets[owner, lo : lo + chunk].T + base
                for rows, placed in _place_pseudo(starts, n, b, l, r, chunk):
                    end = at + len(rows)
                    if end > total:
                        raise AssertionError(f"cell ({k}, {r}) holds more than {total} rows")
                    blocks[at:end] = starts[rows]
                    pseudo[at:end] = placed
                    at = end
    if at != total:
        raise AssertionError(f"cell ({k}, {r}) holds {at} rows, cell_count gives {total}")
    return CellRows(params=params, blocks=blocks, pseudo=pseudo)


def _combinations(m: int, k: int, dtype=np.int32) -> np.ndarray:
    """Every k-subset of range(m), ascending, as the columns of a
    (k, C(m, k)) array of `dtype`, in the lexicographic order of
    `itertools.combinations`. Built from the last position back, with no
    recursion: the j-subsets of range(k - j, m) that start with a are a
    followed by the (j - 1)-subsets of range(a + 1, m), which are the last
    C(m - a - 1, j - 1) of the (j - 1)-subsets of range(k - j + 1, m), so
    each row of each step is a run of contiguous copies."""
    if k == 0:
        return np.empty((0, 1), dtype=dtype)
    tail = np.arange(k - 1, m, dtype=dtype)[None]  # the 1-subsets of range(k - 1, m)
    for j in range(2, k + 1):
        firsts = np.arange(k - j, m - j + 1, dtype=dtype)
        counts = [math.comb(m - a - 1, j - 1) for a in firsts.tolist()]
        step = np.empty((j, sum(counts)), dtype=dtype)
        step[0] = np.repeat(firsts, counts)
        at, width = 0, tail.shape[1]
        for c in counts:
            step[1:, at : at + c] = tail[:, width - c :]
            at += c
        tail = step
    return tail


def _place_pseudo(
    starts: np.ndarray, n: int, b: int, l: int, r: int, chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(layout row, pseudo starts) array pairs for every placement of r >= 1
    pseudo blocks beside the 0-based blocks of b columns starting at each
    layout row of `starts`, in lexicographic order, the pseudo starts of
    the type of `starts`. A start is allowed when its l columns stay in
    range and miss every cluster; each step extends a row by every allowed
    start at or past the previous start + l, and `np.nonzero` of that
    (rows, starts) mask is row-major, so the order stays lexicographic."""
    m = len(starts)
    if not 0 < l <= n:
        return
    covered = np.zeros((m, n + 1), dtype=np.int32)  # [:, j]: cluster columns below j
    covered[np.arange(m)[:, None, None], starts[:, :, None] + np.arange(1, b + 1)] = 1
    covered.cumsum(axis=1, out=covered)
    free = covered[:, l:] == covered[:, :-l]
    yield from _extend_pseudo(free, l, r, np.arange(m), np.empty((m, 0), starts.dtype), chunk)


def _extend_pseudo(
    free: np.ndarray, l: int, r: int, rows: np.ndarray, placed: np.ndarray, chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    if placed.shape[1] == r:
        yield rows, placed
        return
    at = np.arange(free.shape[1])
    for lo in range(0, len(rows), chunk):
        part_rows, part = rows[lo : lo + chunk], placed[lo : lo + chunk]
        low = part[:, -1:] + l if part.shape[1] else 0
        i, s = np.nonzero(free[part_rows] & (at >= low))
        placed_next = np.column_stack((part[i], s.astype(part.dtype)))
        yield from _extend_pseudo(free, l, r, part_rows[i], placed_next, chunk)


def enumerate_supports(
    params: PibsParams, K_max: int, R_max: int, cap: int = 1_000_000
) -> list[Support]:
    """All supports with at most K_max true blocks and at most R_max pseudo
    blocks (the union of every (k, r) cell)."""
    cells = [(k, r) for k in range(K_max + 1) for r in range(R_max + 1)]
    count = sum(cell_count(params, k, r) for k, r in cells)
    if count > cap:
        raise EnumerationCapError(count, cap)
    return [s for k, r in cells for s in iter_cell(params, k, r)]


# ---------------------------------------------------------------------------
# counting

def _advance(layer: np.ndarray, columns: int) -> np.ndarray:
    """Shift the last axis (columns since the last cluster) by `columns`,
    piling everything at or past Lsep into the last entry."""
    out = np.zeros_like(layer)
    stop = layer.shape[-1] - columns
    out[..., columns:] = layer[..., :stop]
    out[..., -1] += layer[..., stop:].sum(axis=-1)
    return out


@lru_cache
def _cell_lattice(params: PibsParams) -> tuple[tuple[int, ...], ...]:
    """Exact size of every cell within the budgets, entry [k][r] for
    k <= K and r <= R, without materializing one: a single pass over the n
    columns that reads a support as a word of free columns, pseudo blocks
    (l columns) and clusters (j*b columns, 1 <= j <= p) entered only after
    at least Lsep columns free of clusters. The layer for a length holds the
    word counts indexed [blocks, pseudo blocks, columns since the last
    cluster capped at Lsep]; only the last max(l, p*b) layers are kept, and
    object entries keep the counts exact."""
    K, R, l, b, Lsep = params.K, params.R, params.l, params.b, params.Lsep
    zero = np.zeros((K + 1, R + 1, Lsep + 1), dtype=object)
    first = zero.copy()
    first[0, 0, Lsep] = 1  # the leading run is unconstrained
    # layers[i] counts the words i + 1 columns shorter than the next layer
    window = max(l, params.B)
    layers = deque([first] + [zero] * (window - 1), maxlen=window)
    for _ in range(params.n):
        layer = _advance(layers[0], 1)
        if l:
            layer[:, 1:] += _advance(layers[l - 1][:, :-1], l)
        for j in range(1, min(params.p, K) + 1):
            layer[j:, :, 0] += layers[j * b - 1][:-j, :, Lsep]
        layers.appendleft(layer)
    return tuple(tuple(map(int, row)) for row in layers[0].sum(axis=-1))


def cell_count(params: PibsParams, k: int, r: int) -> int:
    """Exact size of the (k, r) cell, read from the geometry's one counting
    pass; a cell outside the budgets [0, K] x [0, R] is a ValueError."""
    if not (0 <= k <= params.K and 0 <= r <= params.R):
        raise ValueError(f"cell ({k}, {r}) outside [0, K={params.K}] x [0, R={params.R}]")
    return _cell_lattice(params)[k][r]


def count_supports_formula(params: PibsParams, K: int, R: int) -> int:
    """Closed-form count of the (K, R) cell via the composition/stars-and-bars
    expression; exact integers throughout.

    R = 0 is the layout table's total, the paper's sum over k of
    compositions * C(k + P - Lsep(k - 1), k) with P = n - Kb; it is exact.
    For R >= 1 the inner sum runs over interior gaps holding at least one
    pseudo block (q >= 1) and counts per-gap occupancy patterns rather than
    individual placements, so it can disagree with `cell_count`;
    compare_counts() reports such gaps instead of papering over them.
    """
    check_at_least(0, K=K, R=R)
    if R == 0:
        return sum(count for _, count, _ in _layout_table(params, K))
    if K == 0:
        return 0  # the q-sum needs an interior gap, so no clusters means no terms

    n, b, p, Lsep = params.n, params.b, params.p, params.Lsep
    P = n - K * b - Lsep * R
    if P < 0:
        return 0
    total = 0
    for k in range(-(-K // p), K + 1):
        comp = _composition_counts(K, k, p)
        if comp == 0:
            continue
        inner = 0
        for q in range(1, min(R, k - 1) + 1):
            top = k + P - Lsep * (k - 1 - q)
            if top < k:
                continue
            inner += math.comb(k - 1, q) * math.comb(R + 1, R - q) * math.comb(top, k)
        total += comp * inner
    return total


def formula_assumptions(params: PibsParams, K: int, R: int) -> list[str]:
    """The derivation assumptions behind the R >= 1 count that `params`
    violates, one reason each; none at R = 0."""
    if R == 0:
        return []
    reasons = []
    L = params.window_length
    if L < params.p * params.b:
        reasons.append(f"window length {L} below cluster capacity {params.p * params.b}")
    if (R + 1) * params.p > K:
        reasons.append(f"(R+1)*p = {(R + 1) * params.p} exceeds K = {K}")
    if params.l != params.Lsep:
        reasons.append(f"pseudo length {params.l} differs from separation {params.Lsep}")
    return reasons


@dataclass(frozen=True)
class CountComparison:
    params: PibsParams
    K: int
    R: int
    formula: int
    exact: int
    notes: tuple[str, ...]

    @property
    def match(self) -> bool:
        return self.formula == self.exact

    def describe(self) -> str:
        status = "match" if self.match else "MISMATCH"
        extra = " [assumptions violated]" if self.notes else ""
        return (
            f"(n={self.params.n}, b={self.params.b}, p={self.params.p}, "
            f"l={self.params.l}, Lsep={self.params.Lsep}, K={self.K}, R={self.R}): "
            f"formula={self.formula} exact={self.exact} {status}{extra}"
        )


def compare_counts(params: PibsParams, K: int, R: int) -> CountComparison:
    """Closed form vs the exact `cell_count` for one cell; mismatches are
    reported, never patched."""
    formula = count_supports_formula(params, K, R)
    exact = cell_count(params, K, R)
    return CountComparison(
        params=params, K=K, R=R, formula=formula, exact=exact,
        notes=tuple(formula_assumptions(params, K, R)),
    )


# ---------------------------------------------------------------------------
# values

def parse_value_scheme(scheme: str) -> float | None:
    """The amplitude of a value scheme: `const:<amplitude>`, with an
    amplitude finite and > 0, or None for `gaussian`. Any other scheme is
    a ValueError."""
    if scheme == "gaussian":
        return None
    kind, _, text = scheme.partition(":")
    try:
        amplitude = float(text)
    except ValueError:
        kind = "unknown"
    if kind != "const":
        raise ValueError(f"unknown value scheme {scheme!r}")
    if not 0.0 < amplitude < math.inf:
        raise ValueError(f"amplitude must be finite and > 0, got {amplitude!r}")
    return amplitude


def fill_values(
    support: Support,
    scheme: str,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The dense length-n vector x that is nonzero exactly on the columns
    of `support`: `const:<amplitude>` draws equiprobable +-amplitude,
    `gaussian` draws standard normals (resampling exact zeros). The scheme
    is parsed first, by `parse_value_scheme`, so a bad one is a ValueError
    even on an empty support; the support must be pseudo-free, and a
    support with columns needs an rng."""
    amplitude = parse_value_scheme(scheme)
    if support.pseudo:
        raise ValueError("signals are filled on pseudo-free supports only")
    x = np.zeros(support.params.n)
    cols = support.column_array
    if cols.size:
        if rng is None:
            raise ValueError(f"value scheme {scheme!r} needs an rng")
        if amplitude is not None:
            signs = rng.integers(0, 2, size=cols.size) * 2 - 1
            x[cols] = amplitude * signs
        else:
            vals = rng.standard_normal(cols.size)
            while np.any(vals == 0.0):
                zero = vals == 0.0
                vals[zero] = rng.standard_normal(int(zero.sum()))
            x[cols] = vals
    return x


# ---------------------------------------------------------------------------
# serialization (1-based, line oriented / CSV)

def support_to_text(support: Support) -> str:
    lines = [f"cluster {start} {j}" for start, j in support.clusters]
    lines += [f"pseudo {start}" for start in support.pseudo]
    return "\n".join(lines) + ("\n" if lines else "")


def support_from_text(text: str, params: PibsParams) -> Support:
    """The support of `support_to_text` lines under `params`: an
    unrecognized record, or a support that `validate_support` refuses, is a
    ValueError naming what is wrong."""
    clusters = []
    pseudo = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            values = tuple(map(int, parts[1:]))
        except ValueError:
            values = ()
        if parts[0] == "cluster" and len(values) == 2:
            clusters.append(values)
        elif parts[0] == "pseudo" and len(values) == 1:
            pseudo.append(values[0])
        else:
            raise ValueError(f"unrecognized support record: {line!r}")
    support = Support(clusters=tuple(clusters), pseudo=tuple(pseudo), params=params)
    ok, bad = validate_support(support)
    if not ok:
        raise ValueError("invalid support: " + "; ".join(bad))
    return support


def signal_to_csv(x: np.ndarray) -> str:
    """Nonzero entries as `index,value` rows (complex: `index,re,im`), 1-based."""
    rows = []
    if np.iscomplexobj(x):
        rows.append("index,re,im")
        for i in np.flatnonzero(x):
            rows.append(f"{i + 1},{float(x[i].real)!r},{float(x[i].imag)!r}")
    else:
        rows.append("index,value")
        for i in np.flatnonzero(x):
            rows.append(f"{i + 1},{float(x[i])!r}")
    return "\n".join(rows) + "\n"


def signal_values_from_csv(text: str, n: int) -> np.ndarray:
    """Dense length-n vector from `signal_to_csv` rows; a malformed row, a
    nan or inf value, an index outside [1, n] or a repeated index is a
    ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty signal file")
    header = lines[0].strip().lower()
    complex_form = header == "index,re,im"
    if not complex_form and header != "index,value":
        raise ValueError(f"unrecognized signal header: {lines[0]!r}")
    x = np.zeros(n, dtype=complex if complex_form else float)
    width = 2 if complex_form else 1
    seen: set[int] = set()
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            idx = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError:
            vals = []
        if len(vals) != width:
            raise ValueError(f"malformed signal row {ln!r} under header {lines[0]!r}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"signal row {ln!r} holds a non-finite value (nan or inf)")
        if not 1 <= idx <= n:
            raise ValueError(f"signal index {idx} outside [1, {n}]")
        if idx in seen:
            raise ValueError(f"signal index {idx} appears twice")
        seen.add(idx)
        x[idx - 1] = vals[0] + 1j * vals[1] if complex_form else vals[0]
    return x
