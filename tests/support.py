"""Shared test helpers: independent oracles and small fixture builders.

The replay oracle here is deliberately naive (record at a time, plain
Python, no periods, no batching) so it shares no code path with the
vectorized simulator it checks.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from rtblab import (BidLog, BudgetErrorMode, ConstraintSet, FeatureSet, KpiConstraint, KpiKind,
                    PeriodFeedback)
from rtblab.data import CANONICAL_HEADER


@dataclass(frozen=True)
class BidRecord:
    """One replayable auction opportunity.

    ``market_price`` (fen, CPM scale) is the price the adjusted bid has to
    beat; on a win it is also the amount charged (second price).
    ``conversion`` implies ``click``; ingestion rejects rows violating it.
    """

    ts: int
    pctr: float
    pcvr: float
    market_price: int
    click: bool
    conversion: bool


def records(log: BidLog) -> Iterator[BidRecord]:
    """The rows of a log, one ``BidRecord`` at a time, as Python scalars."""
    for i in range(len(log)):
        yield BidRecord(
            ts=int(log.ts[i]), pctr=float(log.pctr[i]), pcvr=float(log.pcvr[i]),
            market_price=int(log.market_price[i]),
            click=bool(log.click[i]), conversion=bool(log.conversion[i]),
        )


def canonical_text(log: BidLog) -> str:
    """A log in the canonical format, written one ``%`` format per row."""
    rows = zip(log.ts.tolist(), log.pctr.tolist(), log.pcvr.tolist(),
               log.market_price.tolist(), log.click.tolist(), log.conversion.tolist())
    return CANONICAL_HEADER + "\n" + "".join(["%d,%.6f,%.6f,%d,%d,%d\n" % row for row in rows])


def max_price(log: BidLog) -> int:
    """The highest market price in a log; 0 for an empty log."""
    return int(log.market_price.max()) if len(log) else 0


def adjusted_ecpm(record: BidRecord, ppc_expected: float, u: float) -> float:
    """Bid value for one request: predicted conversion value per mille,
    scaled by the controller's adjustment ``u``."""
    return 1000.0 * record.pctr * record.pcvr * ppc_expected * u


class AuctionOutcome(Enum):
    WIN = "win"
    LOSE = "lose"
    TERMINATED = "terminated"


def resolve_auction(record: BidRecord, ecpm: float,
                    remaining_budget: int) -> tuple[AuctionOutcome, int]:
    """Resolve one opportunity; returns the outcome and the cost charged.

    No participation once the budget is spent; otherwise a strict
    second-price comparison (ties lose) paying the market price.
    """
    if remaining_budget <= 0:
        return AuctionOutcome.TERMINATED, 0
    if ecpm > record.market_price:
        return AuctionOutcome.WIN, record.market_price
    return AuctionOutcome.LOSE, 0


def naive_replay(records, u, ppc_expected, budget):
    """Second-price replay with budget termination, one record at a time.

    Returns (imp, clk, conv, spent).
    """
    imp = clk = conv = 0
    spent = 0
    for r in records:
        if spent >= budget:
            break
        ecpm = 1000.0 * r.pctr * r.pcvr * ppc_expected * u
        if ecpm > r.market_price:
            spent += r.market_price
            imp += 1
            if r.click:
                clk += 1
            if r.conversion:
                conv += 1
    return imp, clk, conv, spent


def mask_dropout(log: BidLog, p: float, seed: int) -> BidLog:
    """Dropout by its definition: draw one uniform per record, keep the
    records whose draw is >= p, boolean-mask every column."""
    return log.filter(np.random.default_rng(seed).random(len(log)) >= p)


class Stopped(Exception):
    pass


class StopAt:
    """A fixed-bid controller that raises Stopped when period ``limit``
    begins, so that a replay which walks too many windows fails instead of
    hanging."""

    def __init__(self, limit: int):
        self.limit, self.periods = limit, 0

    def begin_period(self) -> float:
        self.periods += 1
        if self.periods == self.limit:
            raise Stopped
        return 1.0

    def end_period(self, feedback, period, elapsed_fraction=1.0) -> None:
        pass


def make_log(rows) -> BidLog:
    """rows: iterable of (ts, pctr, pcvr, price, click, conversion)."""
    return BidLog.from_records(rows)


def random_log(rng: np.random.Generator, n: int, price_hi: int = 200) -> BidLog:
    ts = np.cumsum(rng.integers(1, 10, n))
    pctr = rng.uniform(0.001, 0.2, n).round(6)
    pcvr = rng.uniform(0.001, 0.5, n).round(6)
    price = rng.integers(1, price_hi, n)
    click = rng.random(n) < 0.3
    conversion = click & (rng.random(n) < 0.3)
    return BidLog(ts, pctr, pcvr, price, click, conversion)


def feedback(bids=0, imp=0, clk=0, conv=0, cost=0, sum_pctr=0.0, sum_pcvr=0.0) -> PeriodFeedback:
    return PeriodFeedback(
        bids_participated=bids, impressions=imp, clicks=clk, conversions=conv,
        cost=cost, sum_pctr=sum_pctr, sum_pcvr=sum_pcvr,
    )


def ppc_constraints(ppc_target: int, *, ppc_expected: int, budget: int | None = None,
                    ppc_weight: float = 1.0, budget_weight: float = 1.0) -> ConstraintSet:
    """A PPC target, then a budget if one is given, with bids priced at
    ``ppc_expected``."""
    constraints = (KpiConstraint(KpiKind.PPC_TARGET, ppc_target, ppc_weight),)
    if budget is not None:
        constraints += (KpiConstraint(KpiKind.BUDGET, budget, budget_weight),)
    return ConstraintSet(constraints, ppc_expected)


# ---------------------------------------------------------------------------
# Array forms of the per-period arithmetic, as the package computed it
# before the per-period path was reworked.  The package's forms must match
# them bit for bit.

def kpi_ratio(constraint, feedback: PeriodFeedback) -> float:
    """A KPI's achieved value over its target: spend for a budget, spend per
    conversion (spend alone before the first conversion) for a PPC target."""
    if constraint.kind is KpiKind.BUDGET:
        return feedback.cost / constraint.target
    conv = feedback.conversions
    per_conversion = feedback.cost / conv if conv else float(feedback.cost)
    return per_conversion / constraint.target


def kpi_error(constraints, feedback: PeriodFeedback, elapsed_fraction: float = 1.0,
              mode: BudgetErrorMode = BudgetErrorMode.FULL_BUDGET) -> np.ndarray:
    """Target-normalized error vector, one entry per constraint."""
    xhat = np.array([kpi_ratio(c, feedback) for c in constraints.constraints])
    zhat = np.ones(len(constraints.constraints))
    if mode is BudgetErrorMode.PACED:
        for i, c in enumerate(constraints.constraints):
            if c.kind is KpiKind.BUDGET:
                zhat[i] = elapsed_fraction
    return xhat - zhat


def cost_value(errors: np.ndarray, error_weights: np.ndarray,
               du: np.ndarray, control_weights: np.ndarray) -> float:
    """Quadratic period cost: weighted KPI error plus weighted control change."""
    errors = np.asarray(errors, dtype=float)
    du = np.asarray(du, dtype=float)
    return float(np.sum(error_weights * errors * errors) + np.sum(control_weights * du * du))


def approx_dhdwe_loop(x: np.ndarray, h_curr: np.ndarray, h_prev: np.ndarray,
                      u_curr: float, u_prev: float) -> np.ndarray:
    """Hebbian encoding-layer factor, one hidden unit at a time."""
    du = u_curr - u_prev
    total = 0.0
    for dh in np.asarray(h_curr) - np.asarray(h_prev):
        product = dh * du
        if product > 0.0:
            total += 1.0
        elif product < 0.0:
            total -= 1.0
    return np.asarray(x) * total


def normalized_step_stacked(w: np.ndarray, grad_log: deque, learning_rate: float,
                            zero_norm_guard: float = 1e-12) -> bool:
    """Fixed-norm step along the windowed mean gradient, the mean taken
    with ``np.mean`` over the stacked window."""
    if not grad_log:
        return False
    mean_grad = np.mean(np.stack(list(grad_log)), axis=0)
    norm = float(np.linalg.norm(mean_grad))
    if norm <= zero_norm_guard:
        return False
    w -= learning_rate * (mean_grad / norm)
    return True


# ---------------------------------------------------------------------------
# The reference MLP: the controller's per-period arithmetic one helper at a
# time, with each gradient window a deque of per-period matrices stacked by
# np.array at every update.  MlpBidController must match it bit for bit.

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


def sigmoid(a: float) -> float:
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def sigmoid_layer_grads(w_dec: np.ndarray, h: np.ndarray,
                        u_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact decision-layer gradients: du/dh and du/dw_dec."""
    s = sigmoid(float(w_dec @ h))
    slope = u_max * (s * (1.0 - s))
    return slope * w_dec, slope * h


def approx_dhdwe(x: np.ndarray, h_curr: np.ndarray, h_prev: np.ndarray,
                 u_curr: float, u_prev: float) -> np.ndarray:
    """Hebbian-style encoding-layer factor: the input vector scaled by the
    summed sign correlations between hidden-unit deltas and the adjustment
    delta."""
    return x * np.sign((h_curr - h_prev) * (u_curr - u_prev)).sum()


def reference_vector(constraints, elapsed_fraction: float,
                     mode: BudgetErrorMode) -> list[float]:
    """Per-constraint reference the normalized feedback is steered to."""
    paced = mode is BudgetErrorMode.PACED
    return [float(elapsed_fraction) if paced and c.kind is KpiKind.BUDGET else 1.0
            for c in constraints.constraints]


def normalized_step(w: np.ndarray, grad_log: deque, learning_rate: float,
                    zero_norm_guard: float = 1e-12) -> bool:
    """Fixed-norm step along the windowed mean gradient, the window stacked
    by np.array and reduced by np.add.reduce."""
    if not grad_log:
        return False
    mean_grad = np.add.reduce(np.array(grad_log), axis=0) / len(grad_log)
    norm = math.sqrt(np.vdot(mean_grad, mean_grad))
    if norm <= zero_norm_guard:
        return False
    w -= learning_rate * (mean_grad / norm)
    return True


def input_list(xhat, feedback: PeriodFeedback, feature_set: FeatureSet) -> np.ndarray:
    """The input vector [1, xhat_1, 1, xhat_2, ...] + the extra rate features."""
    parts: list[float] = []
    for value in xhat:
        parts += (1.0, value)
    if feature_set in (FeatureSet.POSTERIOR, FeatureSet.FULL):
        parts += (feedback.ctr, feedback.cvr)
    if feature_set in (FeatureSet.PRIOR, FeatureSet.FULL):
        parts += (feedback.mean_pctr, feedback.mean_pcvr)
    return np.array(parts)


class ReferenceMlp:
    """The MLP controller's period protocol over the helpers above."""

    def __init__(self, constraints, config):
        self.constraints, self.config = constraints, config
        zero = PeriodFeedback()
        self.x_next = input_list(self._ratios(zero), zero, config.feature_set)
        rng = np.random.default_rng(config.rng_seed)
        self.w_enc = rng.uniform(-0.1, 0.1, size=(config.hidden_dim, len(self.x_next)))
        self.w_dec = rng.uniform(-0.1, 0.1, size=config.hidden_dim)
        self.u_curr = self.u_prev = config.u_max / 2.0
        self.h_curr = np.zeros(config.hidden_dim)
        self.resp_prev = None
        self.grad_log_enc: deque = deque(maxlen=config.grad_window)
        self.grad_log_dec: deque = deque(maxlen=config.grad_window)

    def _ratios(self, feedback: PeriodFeedback) -> list[float]:
        return [c.normalized(feedback) for c in self.constraints.constraints]

    def begin_period(self) -> float:
        u_max, x = self.config.u_max, self.x_next
        h = self.w_enc @ x
        u = u_max * sigmoid(float(self.w_dec @ h))
        u = min(max(u, u_max * 1e-12), u_max * (1.0 - 1e-12))
        self.x_curr = x
        self.h_prev, self.h_curr = self.h_curr, h
        self.u_prev, self.u_curr = self.u_curr, u
        return u

    def end_period(self, feedback: PeriodFeedback, period: PeriodFeedback,
                   elapsed_fraction: float = 1.0) -> tuple[bool, bool]:
        """Learn from the period; returns whether each matrix stepped."""
        config = self.config
        xhat = self._ratios(feedback)
        resp = self._ratios(period)
        resp_prev, self.resp_prev = self.resp_prev, resp
        if resp_prev is not None:
            zhat = reference_vector(self.constraints, elapsed_fraction,
                                    config.budget_error_mode)
            chain = partial_j2(config.control_weight, self.u_curr, self.u_prev)
            for c, x, z, r, r_prev in zip(self.constraints.constraints, xhat, zhat,
                                          resp, resp_prev):
                slope = approx_dxdu(r, r_prev, self.u_curr, self.u_prev)
                chain += partial_j1(c.error_weight, x, z) * slope
            du_dh, du_dwd = sigmoid_layer_grads(self.w_dec, self.h_curr, config.u_max)
            dh_dwe = approx_dhdwe(self.x_curr, self.h_curr, self.h_prev,
                                  self.u_curr, self.u_prev)
            self.grad_log_enc.append(chain * np.multiply.outer(du_dh, dh_dwe))
            self.grad_log_dec.append(chain * du_dwd)
        stepped = (normalized_step(self.w_enc, self.grad_log_enc, config.learning_rate),
                   normalized_step(self.w_dec, self.grad_log_dec, config.learning_rate))
        self.x_next = input_list(xhat, feedback, config.feature_set)
        return stepped
