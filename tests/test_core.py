import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtblab import (
    ConfigurationError,
    ConstraintSet,
    KpiConstraint,
    KpiKind,
    PeriodFeedback,
    compute_metrics,
    feedback_value,
)
from support import BidRecord, adjusted_ecpm, feedback


class TestComputeMetrics:
    def test_empty_campaign_has_no_ppc(self):
        m = compute_metrics(PeriodFeedback())
        assert (m.imp, m.clk, m.conv, m.cost) == (0, 0, 0, 0)
        assert m.ppc is None

    def test_ppc_is_cost_per_conversion(self):
        m = compute_metrics(feedback(imp=295, clk=142, conv=33, cost=25963))
        assert m.ppc == pytest.approx(786.76, abs=0.01)

    def test_single_conversion(self):
        m = compute_metrics(feedback(conv=1, cost=1800))
        assert m.ppc == 1800

    @given(conv=st.integers(1, 10_000), cost=st.integers(0, 10**9))
    def test_ppc_reconstruction(self, conv, cost):
        m = compute_metrics(feedback(conv=conv, cost=cost))
        assert abs(m.ppc * conv - cost) <= 1


class TestFeedbackValue:
    budget = KpiConstraint(KpiKind.BUDGET, target=100_000)
    ppc = KpiConstraint(KpiKind.PPC_TARGET, target=1800)

    def test_budget_is_cost(self):
        assert feedback_value(self.budget, feedback(cost=500)) == 500

    def test_ppc_ratio(self):
        assert feedback_value(self.ppc, feedback(cost=3600, conv=2)) == 1800

    def test_ppc_before_first_conversion(self):
        # cost / max(conv, 1) with conv = 0 falls back to total spend
        assert feedback_value(self.ppc, feedback(cost=900, conv=0)) == 900


class TestAdjustedEcpm:
    def test_direct_evaluation(self):
        r = BidRecord(0, 0.1, 0.1, 70, False, False)
        assert adjusted_ecpm(r, 1800, 0.5) == 9000

    def test_zero_prediction_bids_zero(self):
        r = BidRecord(0, 0.0, 0.9, 70, False, False)
        assert adjusted_ecpm(r, 1800, 1.0) == 0

    def test_small_prediction_scale(self):
        r = BidRecord(0, 0.001, 0.01, 70, False, False)
        assert adjusted_ecpm(r, 1800, 1.0) == pytest.approx(18.0)

    @given(pctr=st.floats(0, 1), pcvr=st.floats(0, 1), u=st.floats(0.01, 2.0))
    def test_linear_in_adjustment(self, pctr, pcvr, u):
        r = BidRecord(0, pctr, pcvr, 70, False, False)
        assert adjusted_ecpm(r, 1800, 0.5 * u) == pytest.approx(
            0.5 * adjusted_ecpm(r, 1800, u))


valid_deltas = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 1000)),
    min_size=1, max_size=30,
).map(lambda rows: [
    # construct a funnel-respecting period delta from three free counts
    (imp, min(clk, imp), min(conv, min(clk, imp)), cost)
    for (imp, clk, conv, cost) in rows
])


@given(valid_deltas)
def test_cumulative_counters_monotone_and_funnel(deltas):
    total = PeriodFeedback()
    prev = total
    for imp, clk, conv, cost in deltas:
        total = total + PeriodFeedback(bids_participated=imp, impressions=imp,
                                       clicks=clk, conversions=conv, cost=cost)
        assert total.impressions >= prev.impressions
        assert total.clicks >= prev.clicks
        assert total.conversions >= prev.conversions
        assert total.cost >= prev.cost
        assert total.impressions >= total.clicks >= total.conversions
        prev = total


class TestValidation:
    def test_constraint_target_positive(self):
        with pytest.raises(ConfigurationError):
            KpiConstraint(KpiKind.BUDGET, target=0)

    def test_error_weight_positive(self):
        with pytest.raises(ConfigurationError):
            KpiConstraint(KpiKind.PPC_TARGET, target=100, error_weight=0.0)

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstraintSet(
                constraints=(KpiConstraint(KpiKind.BUDGET, 10), KpiConstraint(KpiKind.BUDGET, 20)),
                ppc_expected=100,
            )

    def test_stock_shapes(self):
        single = ConstraintSet.single_ppc(1800)
        assert [c.kind for c in single.constraints] == [KpiKind.PPC_TARGET]
        assert single.ppc_expected == 1800
        multi = ConstraintSet.ppc_and_budget(1800, 182_344)
        assert [c.kind for c in multi.constraints] == [KpiKind.PPC_TARGET, KpiKind.BUDGET]
        assert multi.find(KpiKind.BUDGET).target == 182_344


def test_rate_properties_guard_zero_denominators():
    fb = PeriodFeedback()
    assert fb.ctr == 0.0 and fb.cvr == 0.0
    assert fb.mean_pctr == 0.0 and fb.mean_pcvr == 0.0
    fb = feedback(bids=1000, imp=100, clk=10, conv=1, sum_pctr=5.0, sum_pcvr=20.0)
    assert fb.ctr == pytest.approx(0.1)
    assert fb.cvr == pytest.approx(0.1)
    assert fb.mean_pctr == pytest.approx(0.005)
    assert fb.mean_pcvr == pytest.approx(0.02)
