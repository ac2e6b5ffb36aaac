"""Temporal clustering evaluation for timestamped prediction streams.

Instance metrics (accuracy-family, AP, AU-ROC) see only how many errors
a model makes; the volatility-cluster statistic (VCS) also sees when
they happen. This package computes both, provides a differentiable
variant usable as a training penalty, and ships generators plus a CLI
for synthetic experiments.
"""

from .errors import (
    AllZeroWeights,
    DegenerateDistances,
    EmptyInput,
    InsufficientSet,
    InvalidValue,
    LengthMismatch,
    MalformedRecord,
    NonFiniteGradient,
    NonFiniteLoss,
    NoPositives,
    OneClassOnly,
    SpecViolation,
    TooFewDisagreements,
    UnsortedInput,
    VcsEvalError,
)
from .event_stream import (
    EvalStream,
    disagreement_set,
    parse_records,
    serialize_records,
    threshold_labels,
)
from .instance_metrics import (
    AGGREGATORS,
    InstanceMetricSpec,
    auroc,
    average_precision,
    hamming_disagreement,
    instance_metric,
)
from .pattern_gen import (
    DriftDataset,
    DriftSpec,
    PatternSpec,
    generate_drift_dataset,
    generate_pattern,
)
from .soft_vca import (
    SoftTrial,
    effective_beta,
    finite_difference_check,
    soft_nn_distance,
    soft_nn_gradient,
    soft_t,
    vca_penalty,
    weighted_soft_t,
)
from .toy_trainer import (
    LossBreakdown,
    TrainConfig,
    combined_loss,
    evaluate_model,
    history_csv,
    train,
)
from .vcs import (
    EvalSummary,
    VcsConfig,
    VcsResult,
    VcsTrial,
    evaluate_stream,
    t_statistic,
    vcs,
)

__version__ = "0.1.0"
