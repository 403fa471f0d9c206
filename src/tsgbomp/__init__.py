"""Two-stage generalized block OMP: recovery algorithms, restricted-isometry
diagnostics over structured supports, and Monte Carlo experiments."""

import os

# One BLAS thread per process unless the caller chose a count (effective
# only before numpy loads): every `--jobs N` forks N workers, and a thread
# per core in each oversubscribes the cores, for identical results.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .analysis import (
    RecoveryCertificate,
    RicEstimate,
    f_K,
    f_K_inverse,
    g_bounds,
    g_empirical,
    operator_norm_dev,
    pibric,
    real_part_lower_bound_check,
    thm1_certificate,
    thm2_bound,
    verify_lemmas,
)
from .experiments import (
    CurvePoint,
    ExperimentConfig,
    TrialRecord,
    run_curve,
    run_trial,
    theorem_regime_suite,
)
from .recovery import RecoveryResult, bomp, success_check, tsgbomp
from .sensing import Measurement, SensingMatrix, gaussian_matrix, measure
from .signal_model import (
    PibsParams,
    SignalInstance,
    Support,
    count_supports_bound,
    count_supports_formula,
    enumerate_supports,
    fill_values,
    min_separation,
    sample_support,
    validate_support,
)

__version__ = "0.1.0"
