"""Shared test helpers: independent oracles and small fixture builders.

The replay oracle here is deliberately naive (record at a time, plain
Python, no periods, no batching) so it shares no code path with the
vectorized simulator it checks.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from rtblab import BidLog, BidRecord, PeriodFeedback


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
    return BidLog.from_records(
        BidRecord(ts=t, pctr=p, pcvr=q, market_price=m, click=bool(c), conversion=bool(v))
        for (t, p, q, m, c, v) in rows
    )


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
