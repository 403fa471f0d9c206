"""Greedy block-sparse recovery: the two-stage window/cluster solver and the
fixed-partition block OMP baseline, two selection rules on one greedy loop.

The loop correlates columns with the residual, lets the selection rule pick
one run of consecutive columns, and projects y off everything selected so
far through an orthonormal basis that grows by each pick's new columns; one
least-squares refit after the loop gives the coefficients (see `_greedy`
for the fallback to a refit on every iteration). The two-stage rule first
picks the window (a fixed length-L group of columns) whose correlation norm
is largest, then scans every cluster of B consecutive columns overlapping
that window and keeps the best one; the block OMP rule picks the best of
the fixed windows of length L = B. Ties always break toward the smallest
index, so runs are reproducible.

Each solver makes at most `iterations` picks of B columns. It reads the
signal geometry only through B and, for the two-stage rule, the window
length L: a signal of blocks of b columns, up to p to a cluster, is solved
with B = p*b, and any (b, p) of the same product gives the same estimate.
Both solvers check it with one rule, `check_window_geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sensing import SensingMatrix
from .signal_model import Support, check_at_least

__all__ = [
    "IterationRecord",
    "RecoveryResult",
    "tsgbomp",
    "bomp",
    "check_window_geometry",
    "success_check",
    "relative_error",
    "result_report",
    "trace_to_csv",
]


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration, 1-based: the chosen window (block OMP: the
    chosen block), the start of the run of columns it covers, and the norm
    of the least-squares residual on every column covered so far."""

    k: int
    window: int
    cluster_start: int
    residual_norm: float


@dataclass(frozen=True)
class RecoveryResult:
    estimated_columns: tuple[int, ...]
    x_hat: np.ndarray
    trace: tuple[IterationRecord, ...]
    stop_reason: str  # "budget" | "residual-threshold"

    @property
    def iterations(self) -> int:
        return len(self.trace)


# A new column whose component outside the basis is at most this share of its
# norm counts as dependent on the columns before it, and the loop falls back
# to least squares.
_DEPENDENT = np.sqrt(np.finfo(float).eps)

# The loop also stops once the residual is below this share of |y|, whatever
# epsilon is: past that point the picks would follow rounding noise.
_RESIDUAL_FLOOR = 1e-12


def _refit(Phi: SensingMatrix, cols0: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns cols0 of Phi."""
    u, *_ = np.linalg.lstsq(Phi.entries[:, cols0], y, rcond=None)
    return u


def _extend_basis(Q: np.ndarray, ncov: int, A: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns spanning A's component outside Q[:, :ncov],
    written into Q[:, ncov:ncov + s]; None if A does not fit or a column of
    A is dependent on Q and the columns of A before it."""
    s = A.shape[1]
    if ncov + s > Q.shape[1]:
        return None
    # for a real A, the formula np.linalg.norm(A, axis=0) evaluates, without
    # its per-call checks
    if A.dtype.kind == "c":
        norms = np.linalg.norm(A, axis=0)
    else:
        norms = np.sqrt(np.add.reduce(A * A, axis=0))
    Qk = Q[:, :ncov]
    QkH = Qk.conj().T
    for _ in range(2):
        A -= Qk @ (QkH @ A)
    Q2, R2 = np.linalg.qr(A)
    if (np.abs(R2.diagonal()) <= _DEPENDENT * norms).any():
        return None
    Q[:, ncov : ncov + s] = Q2
    return Q[:, ncov : ncov + s]


def _greedy(
    Phi: SensingMatrix,
    y: np.ndarray,
    iterations: int,
    epsilon: float,
    width: int,
    select: Callable[[np.ndarray], tuple[int, int]],
) -> RecoveryResult:
    """The shared correlate/select/project loop, for at most `iterations` picks.

    `select` maps the correlation powers |Phi^H r|^2 to (window, start);
    the pick covers the `width` columns start..start+width-1. The columns of
    that run not covered before extend the orthonormal basis Q of the
    covered columns, and the residual loses its component along them:
    r -= Q2 (Q2^H r). A pick that covers nothing new leaves r as it is.
    Stops when the residual drops below max(epsilon, _RESIDUAL_FLOOR * |y|)
    or after `iterations` picks; an epsilon that is negative or not finite
    raises ValueError. The coefficients are then refit once by least
    squares on all covered columns in index order.

    Q is one preallocated (m, min(m, iterations*width)) buffer. When the
    covered columns would outnumber m, or a new column's component outside
    the basis is at most `_DEPENDENT` of its norm, Q is dropped and this and
    every later iteration take the residual of a least-squares refit; the
    final refit then gives that fit's minimum-norm solution.
    """
    m, n = Phi.m, Phi.n
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match m={m}")
    check_at_least(0, iterations=iterations, epsilon=epsilon)

    real = not (Phi.is_complex or np.iscomplexobj(y))
    dtype = float if real else complex
    # np.linalg.norm of a real vector is sqrt(v . v); call that directly
    norm = (lambda v: np.sqrt(v.dot(v))) if real else np.linalg.norm
    r = y.astype(dtype)
    PhiH = Phi.entries.conj().T
    covered = np.zeros(n, dtype=bool)
    ncov = 0
    trace: list[IterationRecord] = []
    Q = np.empty((m, min(m, iterations * width)), dtype=dtype, order="F")

    k = 0
    rnorm = norm(r)
    tol = max(epsilon, _RESIDUAL_FLOOR * rnorm)
    while rnorm >= tol and k < iterations:
        k += 1
        c = PhiH @ r
        window, start = select(c * c if real else np.abs(c) ** 2)
        run = covered[start - 1 : start - 1 + width]
        new = start - 1 + np.flatnonzero(~run)
        run[:] = True
        if Q is not None and new.size:
            A = Phi.entries[:, new].astype(dtype, copy=False)
            Q2 = _extend_basis(Q, ncov, A)
            if Q2 is None:
                Q = None
            else:
                r -= Q2 @ (Q2.conj().T @ r)
        ncov += new.size
        if Q is None:
            cols0 = np.flatnonzero(covered)
            r = y - Phi.entries[:, cols0] @ _refit(Phi, cols0, y)
        rnorm = norm(r)
        trace.append(IterationRecord(k, window, start, float(rnorm)))

    stop = "residual-threshold" if rnorm < tol else "budget"
    x_hat = np.zeros(n, dtype=dtype)
    cols0 = np.flatnonzero(covered)
    if k:
        x_hat[cols0] = _refit(Phi, cols0, y)
    return RecoveryResult(
        estimated_columns=tuple((cols0 + 1).tolist()),
        x_hat=x_hat,
        trace=tuple(trace),
        stop_reason=stop,
    )


def check_window_geometry(n: int, L: int, B: int) -> None:
    """Raise ValueError unless windows of length L tile the n columns and
    hold a pick of B: B >= 1, L >= 1, L divides n and L >= B. `bomp`'s
    blocks are its windows with L = B; no message it can reach names L."""
    check_at_least(1, B=B, L=L)
    if n % L != 0:
        raise ValueError(f"n={n} must be divisible by the window length {L}")
    if L < B:
        raise ValueError(f"window length L={L} must be at least B=p*b={B}")


def tsgbomp(
    Phi: SensingMatrix,
    y: np.ndarray,
    iterations: int,
    L: int,
    B: int,
    epsilon: float,
) -> RecoveryResult:
    """Two-stage greedy recovery: at most `iterations` picks of B columns.

    Stage 1 scans the n/L fixed windows for the largest correlation norm.
    Stage 2 scans cluster starts i in {L*(w-1)+1-(B-1), ..., L*w}, clamped to
    [1, n-B+1] so every candidate cluster of B columns is fully in range,
    and selects the start whose B correlation entries have the largest norm.
    The iteration's pick is the run of columns i..i+B-1. The geometry is
    checked first, by `check_window_geometry`.
    """
    n = Phi.n
    check_window_geometry(n, L, B)

    # csum[j] is the sum of the first j powers, so a run of B columns from
    # start i has norm csum[i - 1 + B] - csum[i - 1]
    csum = np.zeros(n + 1)

    def select(power: np.ndarray):
        w = int(np.add.reduce(power.reshape(-1, L), axis=1).argmax()) + 1

        lo = max(1, L * (w - 1) + 1 - (B - 1))
        hi = min(L * w, n - B + 1)
        np.add.accumulate(power, out=csum[1:])
        run_norms = csum[lo - 1 + B : hi + B] - csum[lo - 1 : hi]
        return w, lo + int(run_norms.argmax())

    return _greedy(Phi, y, iterations, epsilon, B, select)


def bomp(
    Phi: SensingMatrix,
    y: np.ndarray,
    iterations: int,
    B: int,
    epsilon: float,
) -> RecoveryResult:
    """Block OMP over the fixed partition into n/B consecutive blocks of B
    columns: each of at most `iterations` picks takes the block with the
    largest correlation norm. The blocks are windows of length L = B, so
    the geometry is checked first by `check_window_geometry(n, B, B)`."""
    check_window_geometry(Phi.n, B, B)

    def select(power: np.ndarray):
        j = int(np.argmax(power.reshape(-1, B).sum(axis=1)))
        return j + 1, j * B + 1

    return _greedy(Phi, y, iterations, epsilon, B, select)


def success_check(result: RecoveryResult, support: Support, x: np.ndarray) -> bool:
    """Exact-recovery criterion: the estimated columns cover the columns of
    `support`, and the relative coefficient error against the true vector
    x is at most 1e-6."""
    if not set(support.columns).issubset(result.estimated_columns):
        return False
    return relative_error(result, x) <= 1e-6


def relative_error(result: RecoveryResult, x: np.ndarray) -> float:
    """||x_hat - x|| / ||x||: 0 when both are zero, inf when only x is."""
    denom = np.linalg.norm(x)
    err = np.linalg.norm(result.x_hat - x)
    if denom == 0:
        return 0.0 if err == 0 else float("inf")
    return float(err / denom)


def result_report(result: RecoveryResult) -> str:
    lines = [
        f"iterations: {result.iterations}",
        f"stop: {result.stop_reason}",
        "k window cluster_start residual",
    ]
    for rec in result.trace:
        lines.append(
            f"{rec.k} {rec.window} {rec.cluster_start} {rec.residual_norm:.6e}"
        )
    cols = " ".join(str(c) for c in result.estimated_columns)
    lines.append(f"estimated columns: {cols}")
    return "\n".join(lines) + "\n"


def trace_to_csv(result: RecoveryResult) -> str:
    lines = ["k,window,cluster_start,residual_norm"]
    for rec in result.trace:
        lines.append(f"{rec.k},{rec.window},{rec.cluster_start},{rec.residual_norm!r}")
    return "\n".join(lines) + "\n"
