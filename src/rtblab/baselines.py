"""Reference controllers sharing the period interface of the MLP controller:
a PID tracker on the normalized PPC error, and a fixed multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigurationError, ConstraintSet, KpiKind, PeriodFeedback, feedback_value


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
        if not (0 < self.u_min < self.u_max):
            raise ConfigurationError("need 0 < u_min < u_max")
        if min(self.kp, self.ki, self.kd) < 0:
            raise ConfigurationError("gains must be nonnegative")
        if self.integral_clamp <= 0:
            raise ConfigurationError("integral_clamp must be positive")


class PidController:
    """PID on the normalized PPC error with an exponential actuator.

    u = clamp(u_init * exp(-phi)): negative error (achieved PPC under
    target) raises the multiplier, positive error lowers it, and u stays
    positive without asymmetric clipping.  Under multi-constraint runs the
    budget acts only through the replay's hard termination.
    """

    def __init__(self, constraints: ConstraintSet, config: PidConfig | None = None):
        self.config = config if config is not None else PidConfig()
        ppc = constraints.find(KpiKind.PPC_TARGET)
        if ppc is None:
            raise ConfigurationError("PID controller needs a PPC_TARGET constraint to track")
        self._ppc = ppc
        self.integral = 0.0
        self.prev_error = 0.0
        self.u = self.config.u_init

    def step(self, error: float) -> float:
        """One PID update on a normalized error value."""
        cfg = self.config
        self.integral = min(max(self.integral + error, -cfg.integral_clamp), cfg.integral_clamp)
        phi = cfg.kp * error + cfg.ki * self.integral + cfg.kd * (error - self.prev_error)
        self.prev_error = error
        self.u = min(max(cfg.u_init * math.exp(-phi), cfg.u_min), cfg.u_max)
        return self.u

    def begin_period(self, feedback: PeriodFeedback) -> float:
        error = feedback_value(self._ppc, feedback) / self._ppc.target - 1.0
        return self.step(error)

    def end_period(self, feedback: PeriodFeedback, elapsed_fraction: float = 1.0) -> None:
        pass


@dataclass(frozen=True)
class FixedBidController:
    """Control-free reference: the same multiplier every period.  It holds
    no state, so it is its own config."""

    u_const: float = 1.0

    def __post_init__(self) -> None:
        if self.u_const <= 0:
            raise ConfigurationError("u_const must be positive")

    def begin_period(self, feedback: PeriodFeedback) -> float:
        return self.u_const

    def end_period(self, feedback: PeriodFeedback, elapsed_fraction: float = 1.0) -> None:
        pass
