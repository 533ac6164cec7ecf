"""Domain types and accounting arithmetic shared by the controller,
auction replay, and experiment harness.

Money is integer fen wherever cost is accumulated, so budget arithmetic is
exact; values handed to controllers (ratios, rates) are floats derived
from those counters.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class ConfigurationError(ValueError):
    """Raised when components are wired with inconsistent shapes/settings."""


class KpiKind(Enum):
    """Which campaign quantity a constraint tracks."""

    PPC_TARGET = "ppc_target"
    BUDGET = "budget"


@dataclass(frozen=True)
class KpiConstraint:
    """A tracked KPI with its target and quadratic error weight."""

    kind: KpiKind
    target: int
    error_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ConfigurationError(f"constraint target must be positive, got {self.target}")
        if self.error_weight <= 0:
            raise ConfigurationError(f"error weight must be positive, got {self.error_weight}")


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered KPI constraints plus the expected pay-per-conversion used in
    bid pricing.

    At most one constraint of each kind is allowed.  The two stock shapes
    are the single-constraint configuration (PPC target only) and the
    multi-constraint configuration (PPC target followed by budget).
    """

    constraints: tuple[KpiConstraint, ...]
    ppc_expected: int

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ConfigurationError("need at least one constraint")
        if self.ppc_expected <= 0:
            raise ConfigurationError(f"ppc_expected must be positive, got {self.ppc_expected}")
        for kind in KpiKind:
            if sum(1 for c in self.constraints if c.kind is kind) > 1:
                raise ConfigurationError(f"at most one {kind.value} constraint allowed")

    @classmethod
    def single_ppc(cls, ppc_target: int, ppc_expected: int | None = None,
                   ppc_weight: float = 1.0) -> "ConstraintSet":
        return cls(
            constraints=(KpiConstraint(KpiKind.PPC_TARGET, ppc_target, ppc_weight),),
            ppc_expected=ppc_expected if ppc_expected is not None else ppc_target,
        )

    @classmethod
    def ppc_and_budget(cls, ppc_target: int, budget: int, ppc_expected: int | None = None,
                       ppc_weight: float = 1.0, budget_weight: float = 1.0) -> "ConstraintSet":
        return cls(
            constraints=(
                KpiConstraint(KpiKind.PPC_TARGET, ppc_target, ppc_weight),
                KpiConstraint(KpiKind.BUDGET, budget, budget_weight),
            ),
            ppc_expected=ppc_expected if ppc_expected is not None else ppc_target,
        )

    def find(self, kind: KpiKind) -> Optional[KpiConstraint]:
        for c in self.constraints:
            if c.kind is kind:
                return c
        return None


@dataclass(frozen=True)
class PeriodFeedback:
    """Counter snapshot: one period's deltas, or the running campaign total.

    ``sum_pctr``/``sum_pcvr`` accumulate predictions over every bid the
    campaign participated in (won or lost), so their means estimate the
    prior rates the controller sees.
    """

    bids_participated: int = 0
    impressions: int = 0
    clicks: int = 0
    conversions: int = 0
    cost: int = 0
    sum_pctr: float = 0.0
    sum_pcvr: float = 0.0

    def __add__(self, other: "PeriodFeedback") -> "PeriodFeedback":
        return PeriodFeedback(
            bids_participated=self.bids_participated + other.bids_participated,
            impressions=self.impressions + other.impressions,
            clicks=self.clicks + other.clicks,
            conversions=self.conversions + other.conversions,
            cost=self.cost + other.cost,
            sum_pctr=self.sum_pctr + other.sum_pctr,
            sum_pcvr=self.sum_pcvr + other.sum_pcvr,
        )

    def __sub__(self, other: "PeriodFeedback") -> "PeriodFeedback":
        """Delta between two cumulative snapshots (self taken after other)."""
        return PeriodFeedback(
            bids_participated=self.bids_participated - other.bids_participated,
            impressions=self.impressions - other.impressions,
            clicks=self.clicks - other.clicks,
            conversions=self.conversions - other.conversions,
            cost=self.cost - other.cost,
            sum_pctr=self.sum_pctr - other.sum_pctr,
            sum_pcvr=self.sum_pcvr - other.sum_pcvr,
        )

    @property
    def ctr(self) -> float:
        """Realized click-through rate; 0 before the first impression."""
        return self.clicks / self.impressions if self.impressions else 0.0

    @property
    def cvr(self) -> float:
        """Realized conversion-per-click rate; 0 before the first click."""
        return self.conversions / self.clicks if self.clicks else 0.0

    @property
    def mean_pctr(self) -> float:
        return self.sum_pctr / self.bids_participated if self.bids_participated else 0.0

    @property
    def mean_pcvr(self) -> float:
        return self.sum_pcvr / self.bids_participated if self.bids_participated else 0.0


@dataclass(frozen=True)
class CampaignMetrics:
    """Campaign rollup. ``ppc`` is cost per conversion and is absent (None)
    until the first conversion lands."""

    imp: int
    clk: int
    conv: int
    cost: int
    ppc: Optional[float]


def compute_metrics(feedback: PeriodFeedback) -> CampaignMetrics:
    """Roll cumulative feedback up into reported campaign metrics."""
    conv = feedback.conversions
    return CampaignMetrics(
        imp=feedback.impressions,
        clk=feedback.clicks,
        conv=conv,
        cost=feedback.cost,
        ppc=feedback.cost / conv if conv > 0 else None,
    )


def feedback_value(constraint: KpiConstraint, feedback: PeriodFeedback) -> float:
    """The raw achieved value a constraint is compared against.

    BUDGET tracks cumulative spend.  PPC_TARGET tracks cost per conversion,
    with ``max(conversions, 1)`` in the denominator so the signal exists
    (pessimistically equal to total spend) before the first conversion.
    """
    if constraint.kind is KpiKind.BUDGET:
        return float(feedback.cost)
    return feedback.cost / max(feedback.conversions, 1)
