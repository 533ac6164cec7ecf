import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rtblab import (
    ConfigurationError,
    ConstraintSet,
    FixedBidController,
    KpiConstraint,
    KpiKind,
    PidConfig,
    PidController,
    SimConfig,
    run_campaign,
)
from support import feedback, ppc_constraints, random_log

SINGLE = ppc_constraints(1800, ppc_expected=1800)


def pid(config=None):
    return PidController(SINGLE, config)


class TestPid:
    def test_zero_error_fixed_point(self):
        c = pid()
        for _ in range(20):
            assert c.step(0.0) == 0.5

    def test_kp_only_closed_form(self):
        cfg = PidConfig(kp=0.2, ki=0.0, kd=0.0)
        c = pid(cfg)
        u = c.step(-1.0)
        assert u == pytest.approx(min(max(0.5 * math.exp(0.2), cfg.u_min), cfg.u_max))

    def test_matches_hand_unrolled_recurrence(self):
        cfg = PidConfig(kp=0.3, ki=0.1, kd=0.05, u_min=0.01, u_max=2.0,
                        u_init=0.6, integral_clamp=5.0)
        errors = [0.4, -0.2, 0.7, 0.0, -1.1]
        c = pid(cfg)
        got = [c.step(e) for e in errors]
        # independent unroll
        integral, prev, expected = 0.0, 0.0, []
        for e in errors:
            integral = min(max(integral + e, -5.0), 5.0)
            phi = 0.3 * e + 0.1 * integral + 0.05 * (e - prev)
            prev = e
            expected.append(min(max(0.6 * math.exp(-phi), 0.01), 2.0))
        assert got == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50), st.just(PidConfig()))
    # gains so large that phi is inf - inf in the second step, which used to bid NaN
    @example([200.0, 100.0], PidConfig(kp=1e308, kd=1e308))
    def test_output_and_integral_stay_clamped(self, errors, cfg):
        c = pid(cfg)
        for e in errors:
            u = c.step(e)
            assert cfg.u_min <= u <= cfg.u_max
            assert -cfg.integral_clamp <= c.integral <= cfg.integral_clamp

    def test_antisymmetric_in_log_space(self):
        # unclamped regime: mirrored errors give mirrored log-adjustments
        cfg = PidConfig(kp=0.1, ki=0.02, kd=0.03, u_min=1e-6, u_max=1e6)
        errors = [0.2, -0.1, 0.15, 0.05, -0.3]
        a, b = pid(cfg), pid(cfg)
        for e in errors:
            ua = a.step(e)
            ub = b.step(-e)
            assert math.log(ua) - math.log(0.5) == pytest.approx(
                -(math.log(ub) - math.log(0.5)), abs=1e-12)

    def test_tracks_ppc_error_from_feedback(self):
        c = pid()
        # achieved PPC 3600 vs target 1800: error +1 lowers the multiplier
        fb = feedback(conv=1, cost=3600)
        c.end_period(fb, fb, 1.0)
        u = c.begin_period()
        assert u < 0.5
        c2 = pid()
        # under target raises it
        fb2 = feedback(conv=4, cost=3600)
        c2.end_period(fb2, fb2, 1.0)
        u2 = c2.begin_period()
        assert u2 > 0.5

    def test_requires_ppc_constraint(self):
        budget_only = ConstraintSet(
            constraints=(KpiConstraint(KpiKind.BUDGET, 1000),), ppc_expected=100)
        with pytest.raises(ConfigurationError):
            PidController(budget_only)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PidConfig(u_min=0.5, u_max=0.2)
        with pytest.raises(ConfigurationError):
            PidConfig(kp=-0.1)

    @pytest.mark.parametrize("u_init", [0.0, -0.5])
    def test_u_init_must_be_positive(self, u_init):
        # at u_init <= 0 every period's u used to be u_min whatever the gains
        with pytest.raises(ConfigurationError, match="u_init must be positive and finite"):
            PidConfig(u_init=u_init)

    def test_overflowing_actuator_saturates_at_u_max(self):
        # error -1 before the first conversion: exp(-phi) = exp(kp + ki + kd)
        # is beyond the float range, which used to raise OverflowError
        cfg = PidConfig(kp=800)
        result = run_campaign(random_log(np.random.default_rng(0), 300), pid(cfg), SINGLE,
                              SimConfig(budget=10**9, period_bids=50))
        assert len(result.trace) == 6
        assert result.trace[0].u == cfg.u_max
        assert all(cfg.u_min <= t.u <= cfg.u_max for t in result.trace)


class TestFixed:
    def test_constant_output(self):
        c = FixedBidController(0.5)
        for _ in range(5):
            assert c.begin_period() == 0.5
            c.end_period(feedback(), feedback(), 0.5)

    def test_default_is_original_price_replay(self):
        assert FixedBidController().begin_period() == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FixedBidController(0.0)
