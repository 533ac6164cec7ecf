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
_POSTERIOR = (FeatureSet.POSTERIOR, FeatureSet.FULL)
_PRIOR = (FeatureSet.PRIOR, FeatureSet.FULL)


def input_dim(n_constraints: int, feature_set: FeatureSet) -> int:
    return len(build_input([0.0] * n_constraints, PeriodFeedback(), feature_set))


def normalized_feedback(constraints: ConstraintSet, feedback: PeriodFeedback) -> list[float]:
    """Per-constraint achieved value divided by its target."""
    return [c.normalized(feedback) for c in constraints.constraints]


def build_input(xhat: Sequence[float], feedback: PeriodFeedback,
                feature_set: FeatureSet) -> np.ndarray:
    """The input vector [1, xhat_1, 1, xhat_2, ...], then the extra rate
    features of ``feedback``: realized CTR and CVR (posterior), then the
    mean predicted CTR and CVR (prior)."""
    parts: list[float] = []
    for value in xhat:
        parts += (1.0, value)
    if feature_set in _POSTERIOR:
        parts += (feedback.ctr, feedback.cvr)
    if feature_set in _PRIOR:
        parts += (feedback.mean_pctr, feedback.mean_pcvr)
    return np.array(parts)


def _sigmoid(a: float) -> float:
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


class MlpBidController:
    """The MLP controller of one campaign: its weights, the snapshots of the
    last two periods it ran, its next input, and its gradient window."""

    def __init__(self, constraints: ConstraintSet,
                 config: MlpControllerConfig | None = None):
        """Small random weights in both layers (seeded), so the first
        adjustments sit near u_max/2 but differ period to period, which is
        what lets the sign-based slope estimates pick up a direction at all."""
        self.config = config = config if config is not None else MlpControllerConfig()
        config.check_constraints(constraints)
        self.constraints = constraints
        hidden = config.hidden_dim
        dim = input_dim(len(constraints.constraints), config.feature_set)
        rng = np.random.default_rng(config.rng_seed)
        self.w_enc = rng.uniform(-0.1, 0.1, size=(hidden, dim))
        self.w_dec = rng.uniform(-0.1, 0.1, size=hidden)
        self.u_curr = self.u_prev = config.u_max / 2.0
        self.h_curr = np.zeros(hidden)
        # the logistic value behind u_curr, which forward keeps for backward
        self.s_curr = 0.5
        zero = PeriodFeedback()  # the cumulative feedback before the first period
        self.x_next = build_input(normalized_feedback(constraints, zero), zero, config.feature_set)
        # the previous period's own counters over targets, which the slope
        # estimate differences against; None until a period has ended
        self.resp_prev: Optional[Sequence[float]] = None
        # The gradient window: the last grad_rows rows of grad, oldest first,
        # are the periods logged so far (at most grad_window), and grad_enc and
        # grad_dec view each row's two parts.  It starts at one row and doubles
        # when full, up to grad_window rows, so its size follows the rows logged.
        self.grad_rows = 0
        self._set_window(np.zeros((1, hidden * dim + hidden)), (hidden, dim))
        # the update's scratch row: the mean gradient of each matrix, then its step
        n_enc = hidden * dim
        self._step = np.zeros(n_enc + hidden)
        self._step_enc = self._step[:n_enc].reshape(hidden, dim)
        self._step_dec = self._step[n_enc:]

    def _set_window(self, grad: np.ndarray, enc_shape: tuple[int, int]) -> None:
        """Make ``grad`` the gradient window, with ``grad_enc`` and ``grad_dec`` its views."""
        hidden, dim = enc_shape
        self.grad = grad
        self.grad_enc = grad[:, :hidden * dim].reshape(len(grad), hidden, dim)
        self.grad_dec = grad[:, hidden * dim:]

    def _push_row(self) -> np.ndarray:
        """Shift the logged rows of the window up by one, the oldest dropping
        out once grad_window rows are logged; returns the freed last row."""
        grad, rows, window = self.grad, self.grad_rows, self.config.grad_window
        if rows < window:
            if rows == len(grad):
                grown = np.zeros((min(2 * rows, window), grad.shape[1]))
                grown[-rows:] = grad
                self._set_window(grown, self.grad_enc.shape[1:])
                grad = grown
            rows = self.grad_rows = rows + 1
        n = len(grad)
        grad[n - rows:n - 1] = grad[n - rows + 1:]
        return grad[-1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """One forward pass; rolls the current/previous snapshots."""
        if x.shape[0] != self.w_enc.shape[1]:
            raise ConfigurationError(
                f"input has {x.shape[0]} entries, encoding layer expects {self.w_enc.shape[1]}")
        u_max = self.config.u_max
        h = self.w_enc @ x
        s = _sigmoid(float(self.w_dec @ h))
        u = min(max(u_max * s, u_max * _U_MARGIN), u_max * (1.0 - _U_MARGIN))
        self.x_curr, self.s_curr = x, s
        self.h_prev, self.h_curr = self.h_curr, h
        self.u_prev, self.u_curr = self.u_curr, u
        return h, u

    def backward(self, xhat: Sequence[float], period: PeriodFeedback,
                 elapsed_fraction: float) -> None:
        """Assemble the approximated gradients for both layers and log them
        as the newest row of the gradient window.

        ``xhat`` is the cumulative feedback after the period just run over its
        targets, and ``period`` that period's own counters.  The KPI error
        slope uses the cumulative values; the environment slope sign correlates each
        period's own response with the adjustment delta, since it is the
        per-period response that actually reacts to the current adjustment.
        Swaps this period's response into ``resp_prev``; with none before it
        (the first period) it logs no gradient.

        The decision layer's slope comes from ``s_curr``, the logistic value
        that ``forward`` kept: the activation that produced the period's bid.
        """
        constraints, config = self.constraints, self.config
        resp = normalized_feedback(constraints, period)
        resp_prev, self.resp_prev = self.resp_prev, resp
        if resp_prev is None:
            return
        du = self.u_curr - self.u_prev
        paced = config.budget_error_mode is BudgetErrorMode.PACED
        # dJ/du: the control penalty's slope 2 r du, plus each KPI error's
        # slope 2 q (xhat - zhat) times the sign of the last two periods'
        # response delta times du (0 when either delta is zero).  The
        # reference zhat is 1, or the elapsed fraction for a paced budget.
        chain = 2.0 * config.control_weight * du
        for c, x, r, r_prev in zip(constraints.constraints, xhat, resp, resp_prev):
            z = float(elapsed_fraction) if paced and c.kind is KpiKind.BUDGET else 1.0
            product = (r - r_prev) * du
            sign = 1.0 if product > 0.0 else -1.0 if product < 0.0 else 0.0
            chain += 2.0 * c.error_weight * (x - z) * sign
        # the logistic's slope at this period's activation:
        # du/dh = slope * w_dec and du/dw_dec = slope * h_curr
        s = self.s_curr
        slope = config.u_max * (s * (1.0 - s))
        # Hebbian encoding-layer factor: the input scaled by the summed sign
        # correlations between hidden-unit deltas and du; np.sign gives only
        # -1, 0, 1 (or NaN), so the sum is exact in any order
        hebb = self.x_curr * sum(np.sign((self.h_curr - self.h_prev) * du).tolist())
        newest = self._push_row()
        np.multiply((slope * self.w_dec)[:, None], hebb, self.grad_enc[-1])
        np.multiply(self.h_curr, slope, self.grad_dec[-1])
        newest *= chain

    def _update(self) -> tuple[bool, bool]:
        """The update of apply_update and end_period: whether each matrix stepped."""
        rows = self.grad_rows
        if not rows:
            return False, False
        first = len(self.grad) - rows
        step, step_enc, step_dec = self._step, self._step_enc, self._step_dec
        # np.mean's and np.linalg.norm's own arithmetic, without their wrappers
        np.add.reduce(self.grad_enc[first:], 0, None, step_enc)
        np.add.reduce(self.grad_dec[first:], 0, None, step_dec)
        step /= rows
        norm_enc = math.sqrt(np.vdot(step_enc, step_enc))
        norm_dec = math.sqrt(np.vdot(step_dec, step_dec))
        # "not <=", so that a NaN norm still steps
        enc_applied = not norm_enc <= _ZERO_NORM_GUARD
        dec_applied = not norm_dec <= _ZERO_NORM_GUARD
        if enc_applied:
            step_enc /= norm_enc
        if dec_applied:
            step_dec /= norm_dec
        step *= self.config.learning_rate
        if enc_applied:
            self.w_enc -= step_enc
        if dec_applied:
            self.w_dec -= step_dec
        return enc_applied, dec_applied

    def apply_update(self) -> UpdateResult:
        """Take one fixed-norm step per weight matrix from the windowed mean
        gradient; a matrix whose mean gradient is (numerically) zero is left
        untouched."""
        return UpdateResult(*self._update())

    def begin_period(self) -> float:
        """Produce this period's adjustment from cumulative feedback so far."""
        return self.forward(self.x_next)[1]

    def end_period(self, feedback: PeriodFeedback, period: PeriodFeedback,
                   elapsed_fraction: float) -> None:
        """Learn from the period just run, and read the next input off ``feedback``.
        The first period logs no gradient, so its update leaves both matrices as they are."""
        xhat = normalized_feedback(self.constraints, feedback)
        self.backward(xhat, period, elapsed_fraction)
        self._update()
        self.x_next = build_input(xhat, feedback, self.config.feature_set)
