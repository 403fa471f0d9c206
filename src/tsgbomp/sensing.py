"""Sensing matrices and noisy measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .signal_model import check_at_least

__all__ = [
    "SensingMatrix",
    "gaussian_matrix",
    "measure",
    "matrix_to_csv",
    "matrix_from_csv",
    "matrix_to_binary",
    "matrix_from_binary",
]

_FLAG_NORMALIZED = 1
_FLAG_COMPLEX = 2


@dataclass(frozen=True)
class SensingMatrix:
    """An m x n matrix of sensing vectors. When `normalized` is set every
    column has unit Euclidean norm (to within 1e-12)."""

    entries: np.ndarray
    normalized: bool = False

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.entries)

    @cached_property
    def gram(self) -> np.ndarray:
        """Hermitian Gram matrix of the columns, computed once."""
        return self.entries.conj().T @ self.entries


def gaussian_matrix(
    m: int,
    n: int,
    variance_mode: str,
    normalize: bool,
    rng: np.random.Generator,
    complex_entries: bool = False,
) -> SensingMatrix:
    """i.i.d. Gaussian sensing matrix.

    variance_mode "unit" draws N(0, 1) entries, "one_over_m" draws N(0, 1/m).
    Complex matrices draw independent real and imaginary parts with half the
    variance each, so columns keep the same expected norm. `normalize`
    divides each column by its norm, refusing a zero column (ValueError).
    """
    check_at_least(1, m=m, n=n)
    if variance_mode == "unit":
        sigma2 = 1.0
    elif variance_mode == "one_over_m":
        sigma2 = 1.0 / m
    else:
        raise ValueError(f"unknown variance mode {variance_mode!r}")
    if complex_entries:
        scale = np.sqrt(sigma2 / 2.0)
        entries = scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    else:
        entries = rng.standard_normal((m, n))
        if variance_mode == "one_over_m":
            entries *= np.sqrt(sigma2)
    if normalize:  # the draw is ours, so divide it in place
        norms = np.linalg.norm(entries, axis=0)
        if np.any(norms == 0):
            raise ValueError("cannot normalize a matrix with a zero column")
        entries /= norms
    return SensingMatrix(entries=entries, normalized=normalize)


def measure(
    Phi: SensingMatrix,
    x: np.ndarray,
    noise: None | tuple[str, float] | np.ndarray = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """y = Phi x + e, with e zero, a given length-m vector, or for
    ("gaussian", sigma) i.i.d. entries of standard deviation sigma drawn
    from `rng`, complex when Phi or x is."""
    x = np.asarray(x)
    if x.shape != (Phi.n,):
        raise ValueError(f"signal length {x.shape} does not match n={Phi.n}")
    y = Phi.entries @ x
    if noise is None:
        return y
    if isinstance(noise, tuple):
        kind, sigma = noise
        if kind != "gaussian":
            raise ValueError(f"unknown noise kind {kind!r}")
        if rng is None:
            raise ValueError("gaussian noise needs an rng")
        if Phi.is_complex or np.iscomplexobj(x):
            e = sigma / np.sqrt(2.0) * (
                rng.standard_normal(Phi.m) + 1j * rng.standard_normal(Phi.m)
            )
        else:
            e = sigma * rng.standard_normal(Phi.m)
    else:
        e = np.asarray(noise)
        if e.shape != (Phi.m,):
            raise ValueError(f"noise length {e.shape} does not match m={Phi.m}")
    return y + e


# ---------------------------------------------------------------------------
# serialization

def _flags(mat: SensingMatrix) -> int:
    flags = 0
    if mat.normalized:
        flags |= _FLAG_NORMALIZED
    if mat.is_complex:
        flags |= _FLAG_COMPLEX
    return flags


def _parse_header(header: str, sep: str | None) -> tuple[int, int, int]:
    """(m, n, flags) of a matrix header; ValueError naming the header unless
    it holds exactly three integers with m, n >= 1 and known flag bits."""
    try:
        m, n, flags = (int(v) for v in header.split(sep))
    except ValueError:
        raise ValueError(f"matrix header {header!r} is not three integers m, n, flags") from None
    if m < 1 or n < 1 or not 0 <= flags <= _FLAG_NORMALIZED | _FLAG_COMPLEX:
        raise ValueError(f"matrix header {header!r} needs m, n >= 1 and flags in 0..3")
    return m, n, flags


def _loaded(entries: np.ndarray, flags: int) -> SensingMatrix:
    """The matrix a file holds. A normalized flag is checked, not trusted:
    ValueError names the first column whose norm is not 1 to within 1e-12."""
    normalized = bool(flags & _FLAG_NORMALIZED)
    if normalized:
        norms = np.linalg.norm(entries, axis=0)
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if bad.size:
            j = int(bad[0])
            norm = float(norms[j])
            raise ValueError(f"matrix flagged normalized, but column {j + 1} has norm {norm!r}")
    return SensingMatrix(entries=entries, normalized=normalized)


def matrix_to_csv(mat: SensingMatrix) -> str:
    """Row-major CSV; first line holds `m,n,flags`. Complex entries expand to
    interleaved re,im columns."""
    lines = [f"{mat.m},{mat.n},{_flags(mat)}"]
    if mat.is_complex:
        for row in mat.entries:
            lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    else:
        for row in mat.entries:
            lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> SensingMatrix:
    """Inverse of `matrix_to_csv`. Raises ValueError unless the header is
    valid, the body has exactly m rows of n finite values (2n interleaved
    re,im values when complex) and, if flagged normalized, every column has
    unit norm to within 1e-12."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("matrix CSV is empty: no header line")
    m, n, flags = _parse_header(lines[0], ",")
    is_complex = bool(flags & _FLAG_COMPLEX)
    if len(lines) - 1 != m:
        raise ValueError(f"matrix CSV has {len(lines) - 1} rows but its header says m={m}")
    width = 2 * n if is_complex else n
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        try:
            vals = [float(v) for v in ln.split(",")]
        except ValueError:
            raise ValueError(f"matrix CSV row {i} holds a field that is not a number: {ln!r}") from None
        if len(vals) != width:
            raise ValueError(f"matrix CSV row {i} has {len(vals)} fields, expected {width}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"matrix CSV row {i} holds a non-finite value (nan or inf)")
        if is_complex:
            re = vals[0::2]
            im = vals[1::2]
            rows.append(np.asarray(re) + 1j * np.asarray(im))
        else:
            rows.append(np.asarray(vals))
    return _loaded(np.vstack(rows), flags)


def matrix_to_binary(mat: SensingMatrix) -> bytes:
    """ASCII header line `m n flags`, then row-major little-endian float64
    payload (complex entries interleave re,im)."""
    header = f"{mat.m} {mat.n} {_flags(mat)}\n".encode("ascii")
    if mat.is_complex:
        payload = np.ascontiguousarray(
            np.stack([mat.entries.real, mat.entries.imag], axis=-1), dtype="<f8"
        ).tobytes()
    else:
        payload = np.ascontiguousarray(mat.entries, dtype="<f8").tobytes()
    return header + payload


def matrix_from_binary(blob: bytes) -> SensingMatrix:
    """Inverse of `matrix_to_binary`. Raises ValueError when the header is
    missing or invalid, the payload size does not match its m, n and
    complex flag, a value is nan or inf, or a column of a matrix flagged
    normalized does not have unit norm to within 1e-12."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise ValueError("matrix binary has no header line: no newline found")
    m, n, flags = _parse_header(blob[:newline].decode("ascii", "replace"), None)
    payload = blob[newline + 1 :]
    expected = m * n * (16 if flags & _FLAG_COMPLEX else 8)
    if len(payload) != expected:
        raise ValueError(
            f"matrix payload has {len(payload)} bytes, expected {expected} "
            f"for m={m}, n={n}, flags={flags}"
        )
    body = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(body).all():
        raise ValueError("matrix payload holds a non-finite value (nan or inf)")
    if flags & _FLAG_COMPLEX:
        body = body.reshape(m, n, 2)
        entries = body[..., 0] + 1j * body[..., 1]
    else:
        entries = body.reshape(m, n)
    return _loaded(entries.copy(), flags)
