"""Second-price auction replay over a recorded bid stream.

The replay is the unmodeled environment the controller probes: within a
period every opportunity is priced with the same adjustment, wins pay the
logged market price, and click/conversion labels realize only on wins.
Bidding terminates permanently once cumulative cost reaches the budget;
the single win that crosses the line is kept (its cost is unknown until
the auction resolves), everything after it sees no participation.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Protocol

import numpy as np

from .core import ConfigurationError, ConstraintSet, PeriodFeedback
from .data import BidLog


# wall-clock windows one campaign may walk; each costs a period, empty or not
MAX_WINDOWS = 10**6


class PeriodMode(Enum):
    COUNT = "count"            # fixed number of opportunities per period
    WALL_CLOCK = "wall_clock"  # fixed timestamp window per period


@dataclass(frozen=True)
class SimConfig:
    budget: int
    period_mode: PeriodMode = PeriodMode.COUNT
    period_bids: int = 1000
    period_ms: int = 900_000
    dropout_p: float = 0.0
    dropout_seed: int = 0
    # tie rule is fixed: a bid equal to the market price loses

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ConfigurationError("budget must be >= 0")
        if not (0.0 <= self.dropout_p <= 1.0):
            raise ConfigurationError(f"dropout_p must lie in [0, 1], got {self.dropout_p}")
        used, unused = (("period_bids", "period_ms") if self.period_mode is PeriodMode.COUNT
                        else ("period_ms", "period_bids"))
        if getattr(self, used) < 1:
            raise ConfigurationError(f"{used} must be >= 1")
        default = getattr(SimConfig, unused)
        if getattr(self, unused) != default:
            raise ConfigurationError(f"{unused} is unused in {self.period_mode.value} mode; "
                                     f"leave it at its default {default}")
        if self.dropout_seed < 0:
            raise ConfigurationError(f"dropout_seed must be >= 0, got {self.dropout_seed}")


def run_period(batch: BidLog, u: float, ppc_expected: float,
               spent: int, budget: int) -> PeriodFeedback:
    """Replay one period's batch under a single adjustment value.

    Returns the period's feedback deltas.  Participation stops inside the
    batch at the first win that lifts cumulative cost to the budget; later
    records are terminated and counted nowhere.
    """
    price = batch.market_price
    if spent >= budget or len(price) == 0:
        return PeriodFeedback()
    pctr, pcvr, click, conversion = batch.pctr, batch.pcvr, batch.click, batch.conversion
    # same left-to-right multiply order as the test oracle adjusted_ecpm (tests/support.py)
    ecpm = 1000.0 * pctr
    ecpm *= pcvr
    ecpm *= ppc_expected
    ecpm *= u
    win = ecpm > price
    cum = (price * win).cumsum(dtype=np.int64)  # BidLog prices are >= 0
    n_part = len(price)
    if cum[-1] >= budget - spent:  # the first win to reach the budget is the last row played
        n_part = int(np.searchsorted(cum, budget - spent)) + 1
        win, click, conversion = win[:n_part], click[:n_part], conversion[:n_part]
        pctr, pcvr = pctr[:n_part], pcvr[:n_part]
    clicked = win & click
    return PeriodFeedback(n_part, int(np.count_nonzero(win)), int(np.count_nonzero(clicked)),
                          int(np.count_nonzero(clicked & conversion)), int(cum[n_part - 1]),
                          float(np.add.reduce(pctr)), float(np.add.reduce(pcvr)))


# apply_dropout's one slot: while shared_dropout(log) is open, the "log"
# it shares, the last draw ("uniforms", of "seed") and the last copy kept
# ("kept", thinned at "p" from that draw).
_slot: dict = {}


@contextmanager
def shared_dropout(log: BidLog) -> Iterator[None]:
    """Within the block, :func:`apply_dropout` on ``log`` keeps its last
    draw and its last thinned copy, so the campaigns that thin ``log`` at
    the same (p, seed) back to back replay one copy, and calls with the
    same seed at other p threshold the one draw again.  The caller must
    leave ``log`` unchanged inside the block.  The slot is emptied on entry
    and on exit, also when the block raises.
    """
    _slot.clear()
    _slot["log"] = log
    try:
        yield
    finally:
        _slot.clear()


def apply_dropout(log: BidLog, p: float, seed: int) -> BidLog:
    """Independently keep each record with probability 1-p (seeded).

    Returns ``log`` itself at p = 0, otherwise a read-only thinned copy
    gathered by the kept row indices.  Record i is kept when the i-th draw
    of ``default_rng(seed).random(len(log))`` is >= p.  Each call draws and
    gathers afresh, except on the log of an open :func:`shared_dropout`.
    """
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError("dropout probability must lie in [0, 1]")
    if p == 0.0:
        return log
    if _slot.get("log") is not log:
        return _thinned(log, np.random.default_rng(seed).random(len(log)), p)
    if (_slot.get("p"), _slot.get("seed")) == (p, seed):
        return _slot["kept"]
    for key in ("p", "kept"):  # the old copy goes before the new one is gathered
        _slot.pop(key, None)
    # The old draw goes only once the new one is made: freed together with
    # the old copy, their pages go back to the system at every new trial and
    # are faulted in again.
    if _slot.get("seed") != seed:
        _slot.update(seed=seed, uniforms=np.random.default_rng(seed).random(len(log)))
    _slot.update(p=p, kept=_thinned(log, _slot["uniforms"], p))
    return _slot["kept"]


def _thinned(log: BidLog, uniforms: np.ndarray, p: float) -> BidLog:
    kept = log.filter(np.flatnonzero(uniforms >= p))
    for name in BidLog.__slots__:
        getattr(kept, name).flags.writeable = False
    return kept


class PeriodController(Protocol):
    """``begin_period`` gives the period's adjustment; ``end_period`` is handed
    the cumulative counters after the period, plus the period's own counters."""

    def begin_period(self) -> float: ...
    def end_period(self, feedback: PeriodFeedback, period: PeriodFeedback,
                   elapsed_fraction: float) -> None: ...


@dataclass(frozen=True, slots=True)
class PeriodTrace:
    u: float
    feedback: PeriodFeedback      # cumulative through this period


@dataclass(frozen=True)
class CampaignResult:
    feedback: PeriodFeedback      # cumulative counters of the whole campaign
    trace: tuple[PeriodTrace, ...]
    terminated: bool
    records: int                  # opportunities in the (post-dropout) stream


def _period_bounds(log: BidLog, sim: SimConfig) -> Iterator[tuple[int, int]]:
    n = len(log)
    if n == 0:
        return
    if sim.period_mode is PeriodMode.COUNT:
        for lo in range(0, n, sim.period_bids):
            yield lo, min(lo + sim.period_bids, n)
    else:
        start = int(log.ts[0])
        lo = 0
        while lo < n:
            edge = start + sim.period_ms
            hi = int(np.searchsorted(log.ts, edge, side="left"))
            yield lo, hi
            lo, start = hi, edge


def run_campaign(log: BidLog, controller: PeriodController,
                 constraints: ConstraintSet, sim: SimConfig) -> CampaignResult:
    """Replay a full campaign: one controller decision per period, learning
    after each period, stopping at stream end or budget termination."""
    if sim.period_mode is PeriodMode.WALL_CLOCK and len(log):
        span = int(log.ts[-1]) - int(log.ts[0])
        windows = span // sim.period_ms + 1
        if windows > MAX_WINDOWS:
            raise ConfigurationError(f"the log's {span} ms span cuts into {windows} windows of "
                                     f"period_ms {sim.period_ms}; a campaign replays at most "
                                     f"{MAX_WINDOWS}")
    log = apply_dropout(log, sim.dropout_p, sim.dropout_seed)
    n = len(log)
    cumulative = PeriodFeedback()
    trace: list[PeriodTrace] = []
    terminated = False
    segment, ppc_expected, budget = log.segment, constraints.ppc_expected, sim.budget
    for lo, hi in _period_bounds(log, sim):
        u = controller.begin_period()
        delta = run_period(segment(lo, hi), u, ppc_expected, cumulative.cost, budget)
        cumulative = cumulative + delta
        controller.end_period(cumulative, delta, hi / n)
        trace.append(PeriodTrace(u, cumulative))
        if cumulative.cost >= budget:
            terminated = True
            break
    return CampaignResult(
        feedback=cumulative,
        trace=tuple(trace),
        terminated=terminated,
        records=n,
    )
