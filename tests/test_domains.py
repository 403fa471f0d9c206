"""Every lower bound on an input of the package is `check_at_least`: each
entry point refuses each bounded argument one below its bound, and each
real-valued one at -1, nan and inf, with a ValueError that names the
argument."""

import math
import re

import numpy as np
import pytest

from tsgbomp import analysis, experiments, recovery, sensing, signal_model, workers
from tsgbomp.signal_model import PibsParams, check_at_least

PHI = sensing.SensingMatrix(np.eye(24), normalized=True)
Y = np.ones(24)
PARAMS = PibsParams(n=24, b=1, p=1, l=2, Lsep=2, K=1, R=1)


def _rng():
    return np.random.default_rng(0)


def _worker_map(**kw):
    with workers.worker_map(**kw):
        pass


# entry point: (its valid keyword arguments, the lower bound of each
# argument it bounds)
ENTRY_POINTS = {
    signal_model.min_separation: (dict(b=2, p=2, L=4), dict(b=1, p=1, L=1)),
    PibsParams: (dict(n=24, b=2, p=2, l=0, Lsep=10, K=1, R=1),
                 dict(b=1, p=1, n=1, Lsep=1, K=0, R=0)),
    signal_model.count_supports_formula: (dict(params=PARAMS, K=1, R=1), dict(K=0, R=0)),
    recovery.tsgbomp: (dict(Phi=PHI, y=Y, iterations=1, L=4, B=4, epsilon=0.0),
                       dict(iterations=0, L=1, B=1, epsilon=0)),
    recovery.bomp: (dict(Phi=PHI, y=Y, iterations=1, B=4, epsilon=0.0),
                    dict(iterations=0, B=1, epsilon=0)),
    experiments.ExperimentConfig: (dict(n=48, m=48, b=2, p=2, L=4, K_grid=(1,), trials=1),
                                   dict(trials=1, epsilon=0, n=1, m=1, b=1, p=1, L=1)),
    experiments.solve: (dict(algorithm="tsgbomp", Phi=PHI, y=Y, iterations=1, L=4,
                             B=4, epsilon=0.0), dict(B=1)),
    experiments.theorem_regime_suite: (dict(count=1, rng=_rng()), dict(count=1)),
    experiments.lemma_audit: (dict(matrices=0, jobs=1), dict(jobs=1)),
    analysis.pibric: (dict(Phi=PHI, params=PARAMS, K=1, R=1), dict(cap=1)),
    analysis.verify_lemmas: (dict(Phi=PHI, params=PARAMS, K=1, R=1, rng=_rng()),
                             dict(cell_cap=1)),
    analysis.f_K: (dict(u=0.1, K=2, b=2, p=2), dict(u=0, b=1, p=1)),
    analysis.f_K_inverse: (dict(target=1.0, K=2, b=2, p=2), dict(target=0)),
    analysis.thm1_certificate: (dict(delta=0.1, K=2, b=2, p=2), dict(K=1, epsilon=0)),
    analysis.thm2_bound: (dict(b=1, p=1, L=2, K=4, R=2, m=2000, n=200, eps0=0.05, eps=0.05),
                          dict(n=1, m=1, K=1, R=0)),
    analysis.g_bounds: (dict(a=0.5, K=2, b=2), dict(K=1, b=1)),
    analysis.g_empirical: (dict(a=0.5, K=2, b=2, trials=10, rng=_rng()), dict(trials=1)),
    sensing.gaussian_matrix: (dict(m=4, n=6, rng=_rng()), dict(m=1, n=1)),
    _worker_map: (dict(jobs=1), dict(jobs=1)),
}


def _call(fn, **changed):
    kwargs = {**ENTRY_POINTS[fn][0], **changed}
    result = fn(**kwargs)
    if fn is experiments.lemma_audit:
        list(result)  # the generator checks on its first step


REAL = {"epsilon", "u", "target"}  # real-valued arguments: also refused at nan and inf
CASES = [
    (fn, name, low, value)
    for fn, (_, bounds) in ENTRY_POINTS.items()
    for name, low in bounds.items()
    for value in ([-1.0, math.nan, math.inf] if name in REAL else [low - 1])
]


@pytest.mark.parametrize("fn", list(ENTRY_POINTS), ids=lambda fn: fn.__name__)
def test_valid_arguments_pass(fn):
    _call(fn)


@pytest.mark.parametrize(
    "fn, name, low, value", CASES,
    ids=[f"{fn.__name__}-{name}={value}" for fn, name, _, value in CASES],
)
def test_argument_below_its_bound_is_named(fn, name, low, value):
    finite = "finite and " if isinstance(value, float) else ""
    message = f"^{name} must be {finite}>= {low}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        _call(fn, **{name: value})


class TestCheckAtLeast:
    def test_values_at_or_above_the_bound_pass(self):
        check_at_least(1, b=1, p=np.int64(7), L=10**400)
        check_at_least(0, epsilon=0.0, tiny=5e-324, big=1e308)

    def test_the_first_failing_argument_is_named(self):
        with pytest.raises(ValueError, match="^p must be >= 1, got 0$"):
            check_at_least(1, b=2, p=0, L=-1)

    @pytest.mark.parametrize("value", [-1e-300, -math.inf, math.inf, math.nan])
    def test_floats_must_also_be_finite(self, value):
        with pytest.raises(ValueError, match=f"^eps must be finite and >= 0, got {value!r}$"):
            check_at_least(0, eps=value)
