"""Desk-scale real-time-bidding lab.

Replays recorded bid streams through a second-price auction with budget
termination, adjusts bids each period with a feedback controller (a small
two-layer perceptron trained by sign-approximated gradients, a PID
baseline, or a fixed multiplier), and drives the whole thing from an
experiment harness with deterministic, manifest-reproducible outputs.
"""
from .auction import (
    CampaignResult,
    PeriodMode,
    PeriodTrace,
    SimConfig,
    apply_dropout,
    run_campaign,
    run_period,
)
from .baselines import FixedBidController, PidConfig, PidController
from .controller import (
    BudgetErrorMode,
    FeatureSet,
    MlpBidController,
    MlpControllerConfig,
)
from .core import (
    ConfigurationError,
    ConstraintSet,
    KpiConstraint,
    KpiKind,
    PeriodFeedback,
)
from .data import (
    BidLog,
    ColumnMap,
    LabelViolation,
    LogFormatError,
    MalformedRow,
    NonMonotonicTimestamp,
    SynthConfig,
    convert_ipinyou,
    generate_synthetic,
    parse_canonical,
    serialize_canonical,
)
from .harness import (
    ControllerSpec,
    ExperimentSpec,
    run_ablation,
    run_experiment,
    sweep_sparsity,
)

__version__ = "0.1.0"

__all__ = [
    "BidLog", "BudgetErrorMode", "CampaignResult",
    "ColumnMap", "ConfigurationError", "ConstraintSet", "ControllerSpec",
    "ExperimentSpec", "FeatureSet", "FixedBidController",
    "KpiConstraint", "KpiKind", "LabelViolation",
    "LogFormatError", "MalformedRow", "MlpBidController", "MlpControllerConfig",
    "NonMonotonicTimestamp", "PeriodFeedback", "PeriodMode", "PeriodTrace", "PidConfig",
    "PidController", "SimConfig", "SynthConfig", "apply_dropout",
    "convert_ipinyou", "generate_synthetic", "parse_canonical",
    "run_ablation", "run_campaign", "run_experiment", "run_period",
    "serialize_canonical", "sweep_sparsity",
]
