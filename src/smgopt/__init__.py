"""Shuffling gradient methods with momentum, schedules, and bound audits."""

import os

# Every BLAS call here is small and sequential, so an OpenBLAS worker pool only
# adds start-up time; set before numpy loads, and a caller's own value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .problems import (
    DimensionMismatch,
    Problem,
    ProblemConstants,
    SparseDataset,
    SparseSample,
    logistic_constants,
    logistic_problem,
    quadratic_mean_problem,
)
from .shuffling import (
    INCREMENTAL,
    RANDOM_RESHUFFLING,
    SHUFFLE_ONCE,
    ShufflingStrategy,
    init_point,
    permutation_for_epoch,
    permutations,
)
from .schedules import (
    Schedule,
    ScheduleSums,
    StepCap,
    cap_general,
    cap_rr,
    schedule_sums,
)
from .optimizers import (
    RunAborted,
    RunRecord,
    adam_run,
    ensemble_run,
    sgdm_run,
    shuffling_sgd_run,
    smg_run,
    ssmg_run,
)
from .audit import (
    AuditRefusal,
    BoundReport,
    IdentityCheck,
    RateFit,
    audit_runs,
    bound_rhs,
    check_horizons,
    fit_power_law,
    identity_suite,
)
from .dataio import (
    ParseError,
    parse_libsvm,
    read_trace,
    scale_features,
    synth_binary_dataset,
    write_trace,
)

__version__ = "0.1.0"
