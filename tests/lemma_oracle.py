"""Reference implementation of `analysis.verify_lemmas`: one support, one
subset and one draw at a time, with every sampled support built as a
`Support`. `verify_lemmas` stacks these checks; both draw from the
generator in the same order and must render the same report byte for
byte."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from tsgbomp import analysis
from tsgbomp.analysis import LemmaCheck, LemmaReport, pibric_table

OVER_CAP = "cells over cell_cap"
NO_COLUMNS = "no support covers a column"


class Tally:
    def __init__(self, name, tol, skip=""):
        self.name, self.tol, self.skip = name, tol, skip
        self.checks, self.worst, self.passed = 0, math.inf, True

    def add(self, margin, checks=1):
        self.checks += checks
        self.worst = min(self.worst, margin)
        if margin < -self.tol:
            self.passed = False

    def entry(self):
        if self.skip and not self.checks:
            return LemmaCheck(self.name, True, 0, math.inf, skipped=True, reason=self.skip)
        return LemmaCheck(self.name, self.passed, self.checks, self.worst)


def unknown(d, order, at_least_one=False):
    """An order the cap left without a constant; with at_least_one, only if
    no computed order below it has a constant of at least 1."""
    if order in d:
        return False
    return not at_least_one or all(
        v < 1.0 for q, v in d.items() if q[0] <= order[0] and q[1] <= order[1]
    )


def projector_complement(Phi, cols0):
    if cols0.size == 0:
        return lambda v: v
    Q, _ = np.linalg.qr(Phi.entries[:, cols0])
    return lambda v: v - Q @ (Q.conj().T @ v)


def sample_supports(table, params, K, R, limit, rng):
    cells = []
    for k in range(K + 1):
        for r in range(R + 1):
            stat = table[(k, r)]
            if stat.count and not stat.skipped:
                cell = analysis._cell_data(params, k, r)
                if any(starts.shape[1] and h for starts, h in cell.segments):
                    cells.append(cell)
    sizes = [len(cell) for cell in cells]
    total = sum(sizes)
    picks = range(total) if total <= limit else sorted(rng.choice(total, size=limit, replace=False))
    ends = np.cumsum(sizes)
    out = []
    for i in picks:
        c = int(np.searchsorted(ends, i, side="right"))
        out.append(cells[c].support(int(i - ends[c] + sizes[c])))
    return out


def random_coeffs(size, draws, rng, complex_values):
    X = rng.standard_normal((size, draws))
    if complex_values:
        X = X + 1j * rng.standard_normal((size, draws))
    X /= np.linalg.norm(X, axis=0)
    return X


def sandwich_margin(norms2, delta):
    return min(float((norms2 - (1.0 - delta)).min()), float(((1.0 + delta) - norms2).min()))


def reference_lemmas(
    Phi, params, K, R, rng, cell_cap=150_000, support_samples=120,
    draws_sandwich=50, draws_projected=20, draws_innerproduct=100, tol=1e-10,
) -> LemmaReport:
    families = []

    def family(name, skip=""):
        families.append(Tally(name, tol, skip))
        return families[-1]

    fam_B = replace(params, l=1)
    table_A = pibric_table(Phi, params, K, R, cell_cap=cell_cap)
    table_B = pibric_table(Phi, fam_B, K, R, cell_cap=cell_cap)
    d_A = analysis._order_deltas(table_A)
    d_B = analysis._order_deltas(table_B)
    complex_case = Phi.is_complex

    top = [o for o in table_A if o[0] == K or o[1] == R]
    fam = family("norm-sandwich", OVER_CAP if any(unknown(d_A, o) for o in top) else NO_COLUMNS)
    for order in [o for o in top if o in d_A]:
        for sup in sample_supports(table_A, params, *order, support_samples, rng):
            cols = sup.column_array
            X = random_coeffs(cols.size, draws_sandwich, rng, complex_case)
            norms2 = np.linalg.norm(Phi.entries[:, cols] @ X, axis=0) ** 2
            fam.add(sandwich_margin(norms2, d_A[order]), draws_sandwich)

    capped = any(unknown(d_A, o) for o in table_A)
    fam = family("budget-monotonicity", OVER_CAP if capped else "no cells")
    for o1 in d_A:
        for o2 in d_A:
            if o1 != o2 and o1[0] <= o2[0] and o1[1] <= o2[1]:
                fam.add(d_A[o2] - d_A[o1])

    fam = family("pseudo-length-monotonicity")
    for order, val in d_A.items():
        fam.add(val - d_A[(order[0], 0)])
        if order in d_B:
            fam.add(val - d_B[order])

    if params.window_length < params.B:
        family("block-for-pseudo-trade", "window below cluster capacity")
    else:
        needed = [(Kp, 1) for Kp in range(1, K + 1)] + [(Kp, 2) for Kp in range(K)]
        capped = R >= 2 and any(unknown(d_A, o) for o in needed)
        fam = family("block-for-pseudo-trade", OVER_CAP if capped else "needed orders unavailable")
        for Kp in range(1, K + 1):
            if (Kp, 1) in d_A and (Kp - 1, 2) in d_A:
                fam.add(d_A[(Kp - 1, 2)] - d_A[(Kp, 1)])

    usable = [o for o, d in d_A.items() if d < 1.0 and (o[0] or o[1])]
    frontier = [
        o for o in usable
        if not any(q != o and q[0] >= o[0] and q[1] >= o[1] for q in usable)
    ]
    if frontier:
        reason = ""
    elif any(unknown(d_A, o, at_least_one=True) for o in table_A if o[0] or o[1]):
        reason = OVER_CAP
    elif K or R:
        reason = "delta >= 1"
    else:
        reason = NO_COLUMNS
    sandwich = family("projected-sandwich", reason)
    inner = family("projected-innerproduct", reason)
    order_samples = []
    for order in frontier:
        per_order = max(1, support_samples // len(frontier))
        order_samples += [
            (s, d_A[order]) for s in sample_supports(table_A, params, *order, per_order, rng)
        ]
    for sup, delta in order_samples:
        subsets = [()]
        for t in (s + i * sup.params.b for s, j in sup.clusters for i in range(j)):
            subsets += [s + (t,) for s in subsets]
        if len(subsets) > 8:
            keep = rng.choice(len(subsets), size=8, replace=False)
            subsets = [subsets[i] for i in sorted(keep)]
        for S1 in subsets:
            covered = set()
            for t in S1:
                covered.update(range(t, t + params.b))
            rest = np.asarray([c for c in sup.columns if c not in covered], dtype=np.intp)
            if rest.size == 0:
                continue
            proj = projector_complement(Phi, np.asarray(sorted(covered), dtype=np.intp) - 1)
            X = random_coeffs(rest.size, draws_projected, rng, complex_case)
            norms2 = np.linalg.norm(proj(Phi.entries[:, rest - 1] @ X), axis=0) ** 2
            sandwich.add(sandwich_margin(norms2, delta), draws_projected)
            if rest.size >= 2:
                split = rng.integers(1, rest.size)
                perm = rng.permutation(rest.size)
                S2, S3 = rest[perm[:split]], rest[perm[split:]]
                U = random_coeffs(S2.size, draws_innerproduct, rng, complex_case)
                V = random_coeffs(S3.size, draws_innerproduct, rng, complex_case)
                PU = proj(Phi.entries[:, S2 - 1] @ U)
                QV = Phi.entries[:, S3 - 1] @ V
                vals = np.abs(np.sum(PU.conj() * QV, axis=0))
                inner.add(float((delta - vals).min()), draws_innerproduct)

    K7 = next((Kp for Kp in range(K, 0, -1) if d_B.get((Kp, 1), math.inf) < 1.0), None)
    if K7 is None:
        needed = [(Kp, 1) for Kp in range(1, K + 1) if (Kp, 1) in table_B]
        if any(unknown(d_B, o, at_least_one=True) for o in needed):
            reason = OVER_CAP
        elif K and R:
            reason = "no order with delta < 1"
        else:
            reason = "needed orders unavailable"
        family("projected-column-bound", reason)
    elif not Phi.normalized:
        family("projected-column-bound", "columns not unit norm")
    else:
        fam = family("projected-column-bound")
        bound = math.sqrt(1.0 - d_B[(K7, 1)] ** 2)
        for sup in sample_supports(table_B, fam_B, K7, 0, support_samples, rng):
            cols0 = sup.column_array
            others = np.setdiff1d(np.arange(Phi.n), cols0)
            W = projector_complement(Phi, cols0)(Phi.entries[:, others])
            fam.add(float((np.linalg.norm(W, axis=0) - bound).min()), others.size)

    return LemmaReport(entries=tuple(f.entry() for f in families), K=K, R=R)
