"""Two-layer perceptron bid-adjustment controller.

Each period the controller maps accumulated campaign feedback to a
multiplicative bid adjustment ``u`` in (0, u_max): a linear encoding layer
feeds a logistic decision layer.  The input concatenates, per constraint,
a unit target marker and the target-normalized achieved value, followed by
optional extra rate features.  Normalizing by target keeps budget-sized
and price-sized KPIs on one scale, so a single learning rate works.

Training minimizes a quadratic cost (weighted KPI error plus a penalty on
period-to-period adjustment change) without any model of the auction
environment.  The unobservable slope of feedback with respect to ``u`` is
replaced by the sign of the correlation between their last-two-period
deltas, and the encoding-layer factor by a Hebbian-style sign sum over
hidden-unit deltas.  Updates average the gradients logged over a short
window and rescale them to a fixed Frobenius step of ``learning_rate``, so
step size is controlled by direction agreement rather than raw magnitude.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import ConfigurationError, ConstraintSet, KpiKind, PeriodFeedback


class FeatureSet(Enum):
    """Which extra rate features the input vector carries."""

    NONE = "none"            # constraints only
    POSTERIOR = "posterior"  # realized CTR, CVR
    PRIOR = "prior"          # mean predicted CTR, CVR over participated bids
    FULL = "full"            # posterior then prior


class BudgetErrorMode(Enum):
    """Reference the budget error is measured against.

    FULL_BUDGET compares cumulative spend to the whole budget from period
    one, which pushes spend toward the budget for the entire run.  PACED
    compares it to the elapsed fraction of the replay instead.
    """

    FULL_BUDGET = "full"
    PACED = "paced"


@dataclass(frozen=True)
class MlpControllerConfig:
    hidden_dim: int = 8
    learning_rate: float = 0.01
    grad_window: int = 4          # periods of gradient history averaged per update
    control_weight: float = 1.0   # quadratic penalty on adjustment change
    u_max: float = 1.0
    feature_set: FeatureSet = FeatureSet.FULL
    budget_error_mode: BudgetErrorMode = BudgetErrorMode.FULL_BUDGET
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise ConfigurationError("hidden_dim must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigurationError("learning_rate must be positive and finite")
        if self.grad_window < 1:
            raise ConfigurationError("grad_window must be >= 1")
        if not 0 < self.control_weight < math.inf:
            raise ConfigurationError("control_weight must be positive and finite")
        if not 0 < self.u_max < math.inf:
            raise ConfigurationError("u_max must be positive and finite")
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def check_constraints(self, constraints: ConstraintSet) -> None:
        """Reject constraints a controller of this config cannot be driven by."""
        if (self.budget_error_mode is BudgetErrorMode.PACED
                and constraints.find(KpiKind.BUDGET) is None):
            raise ConfigurationError("budget_error_mode 'paced' needs a budget constraint to pace")


@dataclass(frozen=True)
class UpdateResult:
    """Which weight matrices actually moved in an update step."""

    enc_applied: bool
    dec_applied: bool


_ZERO_NORM_GUARD = 1e-12
# keeps u strictly inside (0, u_max) when the logistic saturates to 0/1 in floats
_U_MARGIN = 1e-12


def input_dim(n_constraints: int, feature_set: FeatureSet) -> int:
    return 2 * n_constraints + len(extra_features(PeriodFeedback(), feature_set))


def extra_features(feedback: PeriodFeedback, feature_set: FeatureSet) -> list[float]:
    features = []
    if feature_set in (FeatureSet.POSTERIOR, FeatureSet.FULL):
        features += (feedback.ctr, feedback.cvr)
    if feature_set in (FeatureSet.PRIOR, FeatureSet.FULL):
        features += (feedback.mean_pctr, feedback.mean_pcvr)
    return features


def normalized_feedback(constraints: ConstraintSet, feedback: PeriodFeedback) -> list[float]:
    """Per-constraint achieved value divided by its target."""
    return [c.normalized(feedback) for c in constraints.constraints]


def build_input(xhat: Sequence[float], feedback: PeriodFeedback,
                feature_set: FeatureSet) -> np.ndarray:
    """The input vector [1, xhat_1, 1, xhat_2, ...] + extra features of ``feedback``."""
    parts: list[float] = []
    for value in xhat:
        parts += (1.0, value)
    parts.extend(extra_features(feedback, feature_set))
    return np.array(parts)


def _sigmoid(a: float) -> float:
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def _sigmoid_slope(a: float) -> float:
    # equals exp(-a) / (1 + exp(-a))^2, computed without overflow
    s = _sigmoid(a)
    return s * (1.0 - s)


def reference_vector(constraints: ConstraintSet, elapsed_fraction: float,
                     mode: BudgetErrorMode) -> list[float]:
    """Per-constraint reference the normalized feedback is steered to."""
    paced = mode is BudgetErrorMode.PACED
    return [float(elapsed_fraction) if paced and c.kind is KpiKind.BUDGET else 1.0
            for c in constraints.constraints]


def partial_j1(q: float, x: float, z: float) -> float:
    """Slope of the weighted squared KPI error with respect to the feedback."""
    return 2.0 * q * (x - z)


def partial_j2(r: float, u_curr: float, u_prev: float) -> float:
    """Slope of the control penalty with respect to the current adjustment
    (the previous adjustment is held constant)."""
    return 2.0 * r * (u_curr - u_prev)


def approx_dxdu(x_curr: float, x_prev: float, u_curr: float, u_prev: float) -> float:
    """Sign estimate of the feedback-vs-adjustment slope from the last two
    periods; 0 when either delta is zero (no evidence, no direction)."""
    product = (x_curr - x_prev) * (u_curr - u_prev)
    if product > 0.0:
        return 1.0
    if product < 0.0:
        return -1.0
    return 0.0


def sigmoid_layer_grads(w_dec: np.ndarray, h: np.ndarray,
                        u_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact decision-layer gradients: du/dh and du/dw_dec."""
    slope = u_max * _sigmoid_slope(float(w_dec @ h))
    return slope * w_dec, slope * h


def approx_dhdwe(x: np.ndarray, h_curr: np.ndarray, h_prev: np.ndarray,
                 u_curr: float, u_prev: float) -> np.ndarray:
    """Hebbian-style encoding-layer factor: the input vector scaled by the
    summed sign correlations between hidden-unit deltas and the adjustment
    delta.  The sum of signs is a small integer, so it is exact."""
    return x * np.sign((h_curr - h_prev) * (u_curr - u_prev)).sum()


def _normalized_step(w: np.ndarray, grad_log: deque, learning_rate: float) -> bool:
    if not grad_log:
        return False
    # np.mean's and np.linalg.norm's own arithmetic, without their wrappers
    mean_grad = np.add.reduce(np.array(grad_log), axis=0) / len(grad_log)
    norm = math.sqrt(np.vdot(mean_grad, mean_grad))
    if norm <= _ZERO_NORM_GUARD:
        return False
    w -= learning_rate * (mean_grad / norm)
    return True


class MlpBidController:
    """The MLP controller of one campaign: its weights, the snapshots of the
    last two periods it ran, its next input, and its gradient windows."""

    def __init__(self, constraints: ConstraintSet,
                 config: MlpControllerConfig | None = None):
        """Small random weights in both layers (seeded), so the first
        adjustments sit near u_max/2 but differ period to period, which is
        what lets the sign-based slope estimates pick up a direction at all."""
        self.config = config = config if config is not None else MlpControllerConfig()
        config.check_constraints(constraints)
        self.constraints = constraints
        dim = input_dim(len(constraints.constraints), config.feature_set)
        rng = np.random.default_rng(config.rng_seed)
        self.w_enc = rng.uniform(-0.1, 0.1, size=(config.hidden_dim, dim))
        self.w_dec = rng.uniform(-0.1, 0.1, size=config.hidden_dim)
        self.u_curr = self.u_prev = config.u_max / 2.0
        self.h_curr = np.zeros(config.hidden_dim)
        zero = PeriodFeedback()  # the cumulative feedback before the first period
        self.x_next = build_input(normalized_feedback(constraints, zero), zero, config.feature_set)
        # the previous period's own counters over targets, which the slope
        # estimate differences against; None until a period has ended
        self.resp_prev: Optional[Sequence[float]] = None
        self.grad_log_enc: deque = deque(maxlen=config.grad_window)
        self.grad_log_dec: deque = deque(maxlen=config.grad_window)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """One forward pass; rolls the current/previous snapshots."""
        if x.shape[0] != self.w_enc.shape[1]:
            raise ConfigurationError(
                f"input has {x.shape[0]} entries, encoding layer expects {self.w_enc.shape[1]}")
        u_max = self.config.u_max
        h = self.w_enc @ x
        u = u_max * _sigmoid(float(self.w_dec @ h))
        u = min(max(u, u_max * _U_MARGIN), u_max * (1.0 - _U_MARGIN))
        self.x_curr = x
        self.h_prev, self.h_curr = self.h_curr, h
        self.u_prev, self.u_curr = self.u_curr, u
        return h, u

    def backward(self, xhat: Sequence[float], period: PeriodFeedback,
                 elapsed_fraction: float = 1.0) -> tuple[np.ndarray, np.ndarray] | None:
        """Assemble the approximated gradients for both layers and log them.

        ``xhat`` is the cumulative feedback after the period just run over its
        targets, and ``period`` that period's own counters.  The KPI error
        slope uses the cumulative values; the environment slope sign correlates each
        period's own response with the adjustment delta, since it is the
        per-period response that actually reacts to the current adjustment.
        Swaps this period's response into ``resp_prev``; with none before it
        (the first period) it returns None and logs no gradient.
        """
        constraints, config = self.constraints, self.config
        resp = normalized_feedback(constraints, period)
        resp_prev, self.resp_prev = self.resp_prev, resp
        if resp_prev is None:
            return None
        zhat = reference_vector(constraints, elapsed_fraction, config.budget_error_mode)
        chain = partial_j2(config.control_weight, self.u_curr, self.u_prev)
        for c, x, z, r, r_prev in zip(constraints.constraints, xhat, zhat, resp, resp_prev):
            slope = approx_dxdu(r, r_prev, self.u_curr, self.u_prev)
            chain += partial_j1(c.error_weight, x, z) * slope
        du_dh, du_dwd = sigmoid_layer_grads(self.w_dec, self.h_curr, config.u_max)
        g_dec = chain * du_dwd
        dh_dwe = approx_dhdwe(self.x_curr, self.h_curr, self.h_prev, self.u_curr, self.u_prev)
        g_enc = chain * np.multiply.outer(du_dh, dh_dwe)
        self.grad_log_enc.append(g_enc)
        self.grad_log_dec.append(g_dec)
        return g_enc, g_dec

    def apply_update(self) -> UpdateResult:
        """Take one fixed-norm step per weight matrix from the windowed mean
        gradient; a matrix whose mean gradient is (numerically) zero is left
        untouched."""
        learning_rate = self.config.learning_rate
        return UpdateResult(
            enc_applied=_normalized_step(self.w_enc, self.grad_log_enc, learning_rate),
            dec_applied=_normalized_step(self.w_dec, self.grad_log_dec, learning_rate),
        )

    def begin_period(self) -> float:
        """Produce this period's adjustment from cumulative feedback so far."""
        return self.forward(self.x_next)[1]

    def end_period(self, feedback: PeriodFeedback, period: PeriodFeedback,
                   elapsed_fraction: float = 1.0) -> None:
        """Learn from the period just run, and read the next input off ``feedback``.
        The first period logs no gradient, so its update leaves both matrices as they are."""
        xhat = normalized_feedback(self.constraints, feedback)
        self.backward(xhat, period, elapsed_fraction)
        self.apply_update()
        self.x_next = build_input(xhat, feedback, self.config.feature_set)
