"""Shared test helpers: independent oracles and small fixture builders.

The replay oracle here is deliberately naive (record at a time, plain
Python, no periods, no batching) so it shares no code path with the
vectorized simulator it checks.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from rtblab import BidLog, BudgetErrorMode, KpiKind, PeriodFeedback, feedback_value


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


# ---------------------------------------------------------------------------
# Array forms of the per-period arithmetic, as the package computed it
# before the per-period path was reworked.  The package's forms must match
# them bit for bit.

def kpi_error(constraints, feedback: PeriodFeedback, elapsed_fraction: float = 1.0,
              mode: BudgetErrorMode = BudgetErrorMode.FULL_BUDGET) -> np.ndarray:
    """Target-normalized error vector, one entry per constraint."""
    xhat = np.array([feedback_value(c, feedback) / c.target for c in constraints.constraints])
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
