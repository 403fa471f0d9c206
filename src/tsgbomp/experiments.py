"""Monte Carlo recovery experiments: phase-transition curves over block
sparsity, the certified-instance validation suite, and the brute-force lemma
audit over seeded Gaussian matrices.

Every trial is reproducible from (config, trial seed) alone: the trial seed
is a stable SHA-256 hash of (master seed, K, algorithm, trial index), and one
Generator seeded with it drives matrix, support, and value draws in a fixed
order. Parallel execution over trials therefore cannot change any result.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .analysis import LemmaReport, f_K, pibric, thm1_certificate, verify_lemmas
from .recovery import RecoveryResult, bomp, relative_error, success_check, tsgbomp
from .recovery import check_window_geometry
from .sensing import SensingMatrix, gaussian_matrix, measure
from .signal_model import (
    PibsParams,
    check_at_least,
    count_supports_formula,
    fill_values,
    min_separation,
    parse_value_scheme,
    sample_support,
)
from .workers import worker_map

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "TrialRecord",
    "CurvePoint",
    "RegimeInstance",
    "RegimeReport",
    "trial_seed",
    "solve",
    "run_trial",
    "run_curve",
    "check_curve",
    "curve_to_csv",
    "theorem_regime_suite",
    "lemma_audit",
]

ALGORITHMS = ("tsgbomp", "bomp")


@dataclass(frozen=True)
class ExperimentConfig:
    """One phase-transition experiment: every trial draws an m x n
    unit-column Gaussian matrix and a pseudo-free support of K blocks of b
    columns, up to p to a cluster, separated as a window of length L
    requires. `epsilon` is the residual-threshold multiplier on ||y||,
    finite and >= 0 (trials are noiseless), and `value_scheme` is the
    scheme string `fill_values` takes: `const:<amplitude>` or `gaussian`.
    Before any trial, so that a refused config writes nothing, it refuses,
    in this order: trials below 1, epsilon below 0, a value_scheme that
    `parse_value_scheme` refuses, an unknown algorithm, a K or algorithm
    listed twice, b, p or L below 1, a geometry that tsgbomp's window rule
    refuses (with B = p*b), a K the sampler cannot draw, a geometry that
    bomp's window rule refuses (the same rule with L = B), and n or m below
    1."""

    n: int
    m: int
    b: int
    p: int
    L: int
    K_grid: tuple[int, ...]
    value_scheme: str = "const:10"
    trials: int = 200
    epsilon: float = 1e-6
    algorithms: tuple[str, ...] = ALGORITHMS
    master_seed: int = 0

    def __post_init__(self):
        check_at_least(1, trials=self.trials)
        check_at_least(0, epsilon=self.epsilon)
        parse_value_scheme(self.value_scheme)
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        for name, values in (("K", self.K_grid), ("algorithm", self.algorithms)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} listed more than once: {repeated}")
        Lsep = min_separation(self.b, self.p, self.L)  # raises unless b, p and L are >= 1
        B = self.p * self.b
        if "tsgbomp" in self.algorithms:
            check_window_geometry(self.n, self.L, B)
        for K in self.K_grid:
            if count_supports_formula(self.params_for(K), K, 0) == 0:
                # the tightest layout packs the K blocks into ceil(K/p) clusters
                need = K * self.b + (-(-K // self.p) - 1) * Lsep
                raise ValueError(f"K={K} infeasible: needs {need} indices but n={self.n}")
        if "bomp" in self.algorithms:
            check_window_geometry(self.n, B, B)
        check_at_least(1, n=self.n, m=self.m)

    def params_for(self, K: int) -> PibsParams:
        return PibsParams.from_window(n=self.n, b=self.b, p=self.p, l=self.L, L=self.L, K=K, R=0)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse `key=value` lines; blank lines and `#` comments are skipped.
        Unknown and repeated keys are errors, so a typo cannot fall back to
        a default, and a value that does not parse is a ValueError naming
        its key."""
        fields: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            if key in fields:
                raise ValueError(f"config key {key!r} given twice")
            fields[key] = value.strip()
        required = {"n", "m", "b", "p", "L", "K_grid", "master_seed"}
        missing = required - fields.keys()
        if missing:
            raise ValueError(f"config missing keys: {sorted(missing)}")
        parsed = {}
        for key, value in fields.items():
            try:
                parsed[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        return cls(**parsed)


def _csv_tuple(item):
    """Parser of a comma-separated list: one or more items, none empty,
    each stripped of surrounding blanks."""

    def parse(value: str) -> tuple:
        if not value.strip():
            raise ValueError("empty list")
        items = [v.strip() for v in value.split(",")]
        if not all(items):
            raise ValueError(f"empty item in {value!r}")
        return tuple(item(v) for v in items)

    return parse


_CONFIG_PARSERS = {
    "n": int,
    "m": int,
    "b": int,
    "p": int,
    "L": int,
    "K_grid": _csv_tuple(int),
    "value_scheme": str,
    "trials": int,
    "epsilon": float,
    "algorithms": _csv_tuple(str),
    "master_seed": int,
}


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    K: int
    algorithm: str
    success: bool
    iterations: int
    rel_error: float


@dataclass(frozen=True)
class CurvePoint:
    K: int
    algorithm: str
    success_rate: float
    trials: int


def trial_seed(master_seed: int, K: int, algorithm: str, index: int) -> int:
    """Stable 64-bit per-trial seed: first 8 little-endian bytes of
    SHA-256 over 'master|K|algorithm|index'."""
    import hashlib  # loads OpenSSL's libcrypto, which only trial-drawing commands need

    digest = hashlib.sha256(f"{master_seed}|{K}|{algorithm}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def solve(
    algorithm: str,
    Phi: SensingMatrix,
    y: np.ndarray,
    iterations: int,
    L: int | None,
    B: int,
    epsilon: float,
) -> RecoveryResult:
    """Run `algorithm` for at most `iterations` picks of B columns. B is
    p*b for a signal of blocks of b columns, up to p to a cluster, and the
    only part of that geometry a solver reads; block OMP never reads the
    window length L. Each solver first runs `check_window_geometry`, the
    check `ExperimentConfig` also calls, so a B below 1 is a ValueError."""
    if algorithm == "tsgbomp":
        return tsgbomp(Phi, y, iterations=iterations, L=L, B=B, epsilon=epsilon)
    if algorithm == "bomp":
        return bomp(Phi, y, iterations=iterations, B=B, epsilon=epsilon)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_trial(config: ExperimentConfig, K: int, algorithm: str, seed: int) -> TrialRecord:
    """One seeded trial: one Generator draws, in this order, the unit-column
    Gaussian matrix, the support and the vector x on it; then the noiseless
    measurement, the solve and the exact-recovery check against that support
    and x."""
    rng = np.random.default_rng(seed)
    Phi = gaussian_matrix(config.m, config.n, "unit", True, rng)
    support = sample_support(config.params_for(K), K, rng)
    x = fill_values(support, config.value_scheme, rng)
    y = measure(Phi, x)
    eps = config.epsilon * float(np.linalg.norm(y))
    result = solve(algorithm, Phi, y, iterations=K, L=config.L, B=config.b * config.p, epsilon=eps)
    return TrialRecord(
        seed=seed,
        K=K,
        algorithm=algorithm,
        success=success_check(result, support, x),
        iterations=result.iterations,
        rel_error=relative_error(result, x),
    )


def _trial_task(args) -> TrialRecord:
    config, K, algorithm, seed = args
    return run_trial(config, K, algorithm, seed)


def run_curve(
    config: ExperimentConfig, jobs: int = 1, out_path: str | None = None
) -> list[CurvePoint]:
    """Aggregate success rates over the (K, algorithm) grid. Results are
    independent of `jobs`; on any exception, a KeyboardInterrupt included,
    the points finished so far are flushed to `out_path` before it
    propagates. A jobs below 1 raises ValueError and writes nothing."""
    tasks = [
        (config, K, alg, trial_seed(config.master_seed, K, alg, t))
        for K in config.K_grid
        for alg in config.algorithms
        for t in range(config.trials)
    ]
    records: list[TrialRecord] = []
    with worker_map(jobs, chunksize=32) as mapper:
        try:
            for rec in mapper(_trial_task, tasks):
                records.append(rec)
        except BaseException:
            if out_path is not None:
                partial = _aggregate(config, records, complete_only=True)
                _write(out_path, curve_to_csv(partial))
            raise
    points = _aggregate(config, records)
    if out_path is not None:
        _write(out_path, curve_to_csv(points))
    return points


def _aggregate(
    config: ExperimentConfig, records: list[TrialRecord], complete_only: bool = False
) -> list[CurvePoint]:
    by_key: dict[tuple[int, str], list[TrialRecord]] = {}
    for rec in records:
        by_key.setdefault((rec.K, rec.algorithm), []).append(rec)
    points = []
    for K in config.K_grid:
        for alg in config.algorithms:
            recs = by_key.get((K, alg), [])
            if complete_only and len(recs) < config.trials:
                continue
            if not recs:
                continue
            rate = sum(r.success for r in recs) / len(recs)
            points.append(CurvePoint(K=K, algorithm=alg, success_rate=rate, trials=len(recs)))
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    lines = ["K,algorithm,success_rate,trials"]
    for pt in points:
        lines.append(f"{pt.K},{pt.algorithm},{pt.success_rate!r},{pt.trials}")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def check_curve(points: list[CurvePoint]) -> list[str]:
    """Statistical sanity checks on a finished curve: success rate should be
    nonincreasing in K up to a Monte Carlo slack of 0.05. Returns violation
    messages."""
    violations = []
    by_alg: dict[str, list[CurvePoint]] = {}
    for pt in points:
        by_alg.setdefault(pt.algorithm, []).append(pt)
    for alg, pts in by_alg.items():
        pts = sorted(pts, key=lambda p: p.K)
        for a, b in zip(pts, pts[1:]):
            if b.success_rate > a.success_rate + 0.05:
                violations.append(
                    f"{alg}: success rate rises from {a.success_rate:.3f} (K={a.K}) "
                    f"to {b.success_rate:.3f} (K={b.K})"
                )
    return violations


# ---------------------------------------------------------------------------
# certified-instance validation

@dataclass(frozen=True)
class RegimeConfig:
    """Small geometry for exact-constant certification runs."""

    n: int
    m: int
    b: int
    p: int
    L: int
    K: int


REGIME_CONFIGS = (
    RegimeConfig(n=32, m=320, b=1, p=1, L=2, K=1),
    RegimeConfig(n=32, m=400, b=1, p=1, L=2, K=2),
    RegimeConfig(n=40, m=320, b=1, p=1, L=4, K=1),
)


@dataclass(frozen=True)
class RegimeInstance:
    config: RegimeConfig
    delta: float
    certified: bool
    success: bool | None


@dataclass(frozen=True)
class RegimeReport:
    instances: tuple[RegimeInstance, ...]

    @property
    def attempted(self) -> int:
        return len(self.instances)

    @property
    def certified(self) -> int:
        return sum(1 for i in self.instances if i.certified)

    @property
    def recovered(self) -> int:
        return sum(1 for i in self.instances if i.certified and i.success)

    @property
    def all_recovered(self) -> bool:
        return self.recovered == self.certified

    def render(self) -> str:
        lines = [
            f"instances: {self.attempted}",
            f"certified: {self.certified}",
            f"recovered: {self.recovered}",
        ]
        if self.certified == 0:
            lines.append("no certified instances found")
        return "\n".join(lines) + "\n"


def theorem_regime_suite(count: int, rng: np.random.Generator) -> RegimeReport:
    """Generate instances over `REGIME_CONFIGS` in turn, keep those where
    the exactly-computed constant certifies recovery, and solve them.
    Certified instances must all recover; the report says whether they did.

    The signal is built to clear the magnitude condition with margin: the
    largest magnitude is 1 and the smallest is kept two percent above the
    certificate threshold f_K(delta). A count below 1 raises ValueError.
    """
    check_at_least(1, count=count)
    instances: list[RegimeInstance] = []
    for i in range(count):
        cfg = REGIME_CONFIGS[i % len(REGIME_CONFIGS)]
        Phi = gaussian_matrix(cfg.m, cfg.n, "one_over_m", True, rng)
        Lsep = min_separation(cfg.b, cfg.p, cfg.L)
        params = PibsParams(
            n=cfg.n, b=cfg.b, p=cfg.p, l=Lsep, Lsep=Lsep,
            K=max(cfg.K - 1, 0), R=2,
        )
        est = pibric(Phi, params, max(cfg.K - 1, 0), 2)
        delta = est.delta

        thresh17 = 1.0 / np.sqrt(2.0 * cfg.K + 1.0)
        floor = f_K(delta, cfg.K, cfg.b, cfg.p) if delta < 1 else np.inf
        if delta >= thresh17 or floor >= 0.97:
            instances.append(RegimeInstance(cfg, delta, certified=False, success=None))
            continue

        sig_params = PibsParams.from_window(
            n=cfg.n, b=cfg.b, p=cfg.p, l=cfg.L, L=cfg.L, K=cfg.K, R=0
        )
        support = sample_support(sig_params, cfg.K, rng)
        cols = support.column_array
        lo = float(floor) * 1.02
        mags = rng.uniform(lo, 1.0, size=cols.size)
        mags[int(rng.integers(0, cols.size))] = 1.0
        signs = rng.integers(0, 2, size=cols.size) * 2 - 1
        x = np.zeros(cfg.n)
        x[cols] = mags * signs

        cert = thm1_certificate(
            delta, cfg.K, cfg.b, cfg.p, epsilon=0.0,
            x_min=float(np.min(mags)), x_max=1.0, field="real",
        )
        if not cert.passed:
            instances.append(RegimeInstance(cfg, delta, certified=False, success=None))
            continue

        y = measure(Phi, x)
        eps = 1e-9 * float(np.linalg.norm(y))
        result = tsgbomp(Phi, y, iterations=cfg.K, L=cfg.L, B=cfg.b * cfg.p, epsilon=eps)
        instances.append(
            RegimeInstance(
                cfg, delta, certified=True, success=success_check(result, support, x)
            )
        )
    return RegimeReport(instances=tuple(instances))


# ---------------------------------------------------------------------------
# lemma audit

_AUDIT_PARAMS = PibsParams.from_window(n=60, b=2, p=2, l=10, L=4, K=2, R=2)


def _audit_matrix(i: int) -> LemmaReport:
    rng = np.random.default_rng(1000 + i)
    Phi = gaussian_matrix(40, 60, "unit", True, rng)
    return verify_lemmas(
        Phi, _AUDIT_PARAMS, 2, 2, rng,
        support_samples=60, draws_sandwich=25,
        draws_projected=10, draws_innerproduct=40,
    )


def lemma_audit(matrices: int, jobs: int = 1) -> Iterator[LemmaReport]:
    """The brute-force lemma checks on `matrices` seeded Gaussian matrices,
    one report each, yielded in matrix order as each finishes. Matrix i is
    a unit-column 40x60 draw seeded with 1000 + i, audited at K = R = 2 on
    the b=2, p=2, L=4 window geometry with pseudo length 10, from 60 support
    samples and 25/10/40 sandwich, projected and inner-product draws. At 100
    matrices this is acceptance criterion 5.

    Each matrix seeds its own generator, so the reports never depend on
    jobs. Matrix 0 runs in this process and fills the cell cache, which the
    workers that map the other matrices inherit. A jobs below 1 raises
    ValueError before any matrix is audited."""
    check_at_least(1, jobs=jobs)
    if matrices < 1:
        return
    yield _audit_matrix(0)
    with worker_map(jobs) as mapper:
        yield from mapper(_audit_matrix, range(1, matrices))
