"""Shuffling gradient methods with momentum, schedules, and bound audits."""

from .problems import (
    DimensionMismatch,
    Problem,
    ProblemConstants,
    SparseSample,
    logistic_component_grad,
    logistic_component_value,
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
)
from .schedules import (
    Schedule,
    ScheduleSums,
    StepCap,
    cap_general,
    cap_rr,
    exceeds_cap,
    schedule_sums,
)
from .optimizers import (
    RunAborted,
    RunRecord,
    adam_run,
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
    audit_theorem1,
    audit_theorem2,
    audit_theorem3,
    fit_power_law,
    fit_rate,
    identity_suite,
    theorem1_rhs,
    theorem2_rhs,
    theorem3_rhs,
)
from .dataio import (
    ParseError,
    parse_libsvm,
    read_trace,
    render_libsvm,
    scale_features,
    synth_binary_dataset,
    write_trace,
)

__version__ = "0.1.0"
