"""Reference controllers sharing the period interface of the MLP controller:
a PID tracker on the normalized PPC error, and a fixed multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigurationError, ConstraintSet, KpiKind, PeriodFeedback


@dataclass(frozen=True)
class PidConfig:
    kp: float = 0.2
    ki: float = 0.05
    kd: float = 0.05
    u_min: float = 0.01
    u_max: float = 1.0
    u_init: float = 0.5
    integral_clamp: float = 5.0

    def __post_init__(self) -> None:
        if not (0 < self.u_min < self.u_max < math.inf):
            raise ConfigurationError("need 0 < u_min < u_max < inf")
        if not all(0 <= gain < math.inf for gain in (self.kp, self.ki, self.kd)):
            raise ConfigurationError("gains must be nonnegative and finite")
        if not 0 < self.u_init < math.inf:
            raise ConfigurationError(f"u_init must be positive and finite, got {self.u_init}")
        if not 0 < self.integral_clamp < math.inf:
            raise ConfigurationError("integral_clamp must be positive and finite")

    def check_constraints(self, constraints: ConstraintSet) -> None:
        """Reject constraints without the PPC target the PID tracks."""
        if constraints.find(KpiKind.PPC_TARGET) is None:
            raise ConfigurationError("PID controller needs a PPC_TARGET constraint to track")


class PidController:
    """PID on the normalized PPC error with an exponential actuator.

    u = clamp(u_init * exp(-phi)): negative error (achieved PPC under
    target) raises the multiplier, positive error lowers it, and u stays
    positive without asymmetric clipping.  An ``exp(-phi)`` beyond the float
    range saturates at u_max, the bound the clamp applies, and so does a
    NaN ``phi`` (gains so large that their terms are inf - inf).  Under
    multi-constraint runs the budget acts only through the replay's hard
    termination.
    """

    def __init__(self, constraints: ConstraintSet, config: PidConfig | None = None):
        self.config = config if config is not None else PidConfig()
        self.config.check_constraints(constraints)
        self._ppc = constraints.find(KpiKind.PPC_TARGET)
        self.integral = 0.0
        self.prev_error = 0.0
        self.cumulative = PeriodFeedback()  # as end_period last handed it over

    def step(self, error: float) -> float:
        """One PID update on a normalized error value."""
        cfg = self.config
        self.integral = min(max(self.integral + error, -cfg.integral_clamp), cfg.integral_clamp)
        phi = cfg.kp * error + cfg.ki * self.integral + cfg.kd * (error - self.prev_error)
        self.prev_error = error
        try:
            u = cfg.u_init * math.exp(-phi)
        except OverflowError:
            return cfg.u_max
        return max(cfg.u_min, min(cfg.u_max, u))  # NaN goes to u_max

    def begin_period(self) -> float:
        return self.step(self._ppc.normalized(self.cumulative) - 1.0)

    def end_period(self, feedback: PeriodFeedback, period: PeriodFeedback,
                   elapsed_fraction: float) -> None:
        self.cumulative = feedback


@dataclass(frozen=True)
class FixedBidController:
    """Control-free reference: the same multiplier every period.  It holds
    no state, so it is its own config."""

    u_const: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.u_const < math.inf:
            raise ConfigurationError(f"u_const must be positive and finite, got {self.u_const}")

    def check_constraints(self, constraints: ConstraintSet) -> None:
        """Any constraints do: the multiplier ignores them."""

    def begin_period(self) -> float:
        return self.u_const

    def end_period(self, feedback: PeriodFeedback, period: PeriodFeedback,
                   elapsed_fraction: float) -> None:
        pass
