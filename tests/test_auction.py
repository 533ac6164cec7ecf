import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtblab import (
    BidLog,
    ConfigurationError,
    FixedBidController,
    MlpBidController,
    MlpControllerConfig,
    PeriodFeedback,
    PeriodMode,
    SimConfig,
    SynthConfig,
    apply_dropout,
    generate_synthetic,
    run_campaign,
    run_period,
)
from rtblab import auction
from rtblab.auction import MAX_WINDOWS, shared_dropout
from rtblab.harness import _trace_rows
from support import (
    AuctionOutcome,
    BidRecord,
    StopAt,
    Stopped,
    cost_value,
    kpi_error,
    make_log,
    mask_dropout,
    max_price,
    naive_replay,
    ppc_constraints,
    random_log,
    records,
    resolve_auction,
)

CONSTRAINTS = ppc_constraints(1800, ppc_expected=1800)


def record(price, pctr=0.1, pcvr=0.1, click=False, conversion=False, ts=0):
    return BidRecord(ts=ts, pctr=pctr, pcvr=pcvr, market_price=price,
                     click=click, conversion=conversion)


class TestResolveAuction:
    def test_win_pays_second_price(self):
        outcome, cost = resolve_auction(record(70), ecpm=100.0, remaining_budget=1000)
        assert outcome is AuctionOutcome.WIN and cost == 70

    def test_tie_loses(self):
        outcome, cost = resolve_auction(record(70), ecpm=70.0, remaining_budget=1000)
        assert outcome is AuctionOutcome.LOSE and cost == 0

    def test_terminated_when_budget_gone(self):
        outcome, cost = resolve_auction(record(70), ecpm=10_000.0, remaining_budget=0)
        assert outcome is AuctionOutcome.TERMINATED and cost == 0


class TestRunPeriod:
    def test_empty_batch(self):
        batch = make_log([])
        assert run_period(batch, 1.0, 1800, 0, 1000) == PeriodFeedback()

    def test_zero_predictions_win_nothing(self):
        batch = make_log([(i, 0.0, 0.0, 10, 0, 0) for i in range(5)])
        fb = run_period(batch, 1.0, 1800, 0, 10_000)
        assert fb.impressions == 0 and fb.cost == 0
        assert fb.bids_participated == 5

    def test_three_record_hand_replay(self):
        # ecpm at u=1: 1000 * 0.1 * 0.1 * 1800 = 18000 for each record
        batch = make_log([
            (1, 0.1, 0.1, 17_000, 1, 1),   # win, pay 17000, click+conv
            (2, 0.1, 0.1, 18_000, 1, 0),   # tie -> lose
            (3, 0.1, 0.1, 900, 0, 0),      # win, pay 900
        ])
        fb = run_period(batch, 1.0, 1800, 0, 10**9)
        assert fb.bids_participated == 3
        assert fb.impressions == 2
        assert fb.clicks == 1
        assert fb.conversions == 1
        assert fb.cost == 17_900
        assert fb.sum_pctr == pytest.approx(0.3)

    def test_overshooting_win_kept_then_terminated(self):
        batch = make_log([
            (1, 0.1, 0.1, 600, 0, 0),
            (2, 0.1, 0.1, 700, 1, 0),   # this win crosses the budget line
            (3, 0.1, 0.1, 5, 1, 1),     # would win, but bidding has stopped
        ])
        fb = run_period(batch, 1.0, 1800, spent=0, budget=1000)
        assert fb.bids_participated == 2
        assert fb.impressions == 2
        assert fb.cost == 1300
        assert fb.conversions == 0

    def test_already_spent_budget_means_no_participation(self):
        batch = make_log([(1, 0.1, 0.1, 5, 1, 1)])
        assert run_period(batch, 1.0, 1800, spent=1000, budget=1000) == PeriodFeedback()

    def test_losses_before_overshoot_still_counted(self):
        batch = make_log([
            (1, 0.1, 0.1, 50_000, 0, 0),  # lose
            (2, 0.1, 0.1, 900, 1, 0),     # win, crosses budget
        ])
        fb = run_period(batch, 1.0, 1800, spent=0, budget=500)
        assert fb.bids_participated == 2
        assert fb.impressions == 1
        assert fb.cost == 900


# Every row wins at u = 1 (ecpm 18000); rows are (price, click, conversion).
@pytest.mark.parametrize("rows, spent, budget, n_part, cost", [
    ([(900, 1, 1), (10, 1, 0), (10, 0, 0)], 0, 500, 1, 900),
    ([(100, 0, 0), (100, 1, 0), (400, 1, 1)], 0, 550, 3, 600),
    ([(100, 1, 0), (200, 1, 1), (300, 0, 0), (50, 1, 1)], 0, 600, 3, 600),
    ([(100, 1, 0), (200, 1, 1), (300, 0, 0), (50, 1, 1)], 250, 600, 3, 600),
    ([(100, 1, 0), (200, 1, 1), (300, 0, 0), (50, 1, 1)], 300, 600, 2, 300),
    ([(0, 1, 1), (0, 1, 0), (500, 0, 0), (0, 1, 1)], 0, 500, 3, 500),
    ([(0, 1, 1), (0, 0, 0), (0, 1, 1)], 0, 1, 3, 0),
    ([], 100, 1000, 0, 0),
], ids=["crossed-at-first-row", "crossed-at-last-row", "cost-lands-on-budget", "spent-crossed",
        "spent-lands-on-budget", "zero-price-wins-then-crossing", "zero-price-wins-only",
        "empty-batch"])
def test_run_period_budget_edges(rows, spent, budget, n_part, cost):
    batch = make_log([(i, 0.1, 0.1, price, c, v) for i, (price, c, v) in enumerate(rows)])
    fb = run_period(batch, 1.0, 1800, spent, budget)
    assert (fb.bids_participated, fb.cost) == (n_part, cost)
    # under 8 rows numpy sums predictions in row order, so every field is equal
    assert fb == scalar_period_replay(batch, 1.0, 1800, spent, budget)


def scalar_period_replay(batch, u, ppc_expected, spent, budget):
    """Record-at-a-time reference for run_period, built on resolve_auction."""
    fb = PeriodFeedback()
    for r in records(batch):
        outcome, cost = resolve_auction(
            r, 1000.0 * r.pctr * r.pcvr * ppc_expected * u, budget - (spent + fb.cost))
        if outcome is AuctionOutcome.TERMINATED:
            break
        won = outcome is AuctionOutcome.WIN
        fb = fb + PeriodFeedback(
            bids_participated=1,
            impressions=int(won),
            clicks=int(won and r.click),
            conversions=int(won and r.conversion),
            cost=cost,
            sum_pctr=r.pctr,
            sum_pcvr=r.pcvr,
        )
    return fb


def test_vectorized_period_matches_scalar_reference():
    rng = np.random.default_rng(17)
    for trial in range(30):
        log = random_log(rng, 400)
        u = float(rng.uniform(0.05, 1.5))
        spent = int(rng.integers(0, 2000))
        budget = int(rng.integers(spent, 30_000))
        fast = run_period(log, u, 1800, spent, budget)
        slow = scalar_period_replay(log, u, 1800, spent, budget)
        assert (fast.bids_participated, fast.impressions, fast.clicks,
                fast.conversions, fast.cost) == \
               (slow.bids_participated, slow.impressions, slow.clicks,
                slow.conversions, slow.cost)
        # prediction sums differ only by float summation order
        assert fast.sum_pctr == pytest.approx(slow.sum_pctr, rel=1e-12)
        assert fast.sum_pcvr == pytest.approx(slow.sum_pcvr, rel=1e-12)


class TestRunCampaign:
    def test_empty_log(self):
        result = run_campaign(make_log([]), FixedBidController(1.0), CONSTRAINTS,
                              SimConfig(budget=1000))
        assert result.feedback.impressions == 0 and result.feedback.cost == 0
        assert result.trace == ()
        assert not result.terminated

    def test_zero_budget_terminates_immediately(self):
        log = make_log([(i, 0.1, 0.1, 5, 1, 1) for i in range(10)])
        result = run_campaign(log, FixedBidController(1.0), CONSTRAINTS, SimConfig(budget=0))
        assert result.feedback.cost == 0 and result.feedback.impressions == 0
        assert result.terminated
        assert len(result.trace) == 1

    def test_matches_naive_replay_on_small_log(self):
        rng = np.random.default_rng(23)
        log = random_log(rng, 10)
        result = run_campaign(log, FixedBidController(1.0), CONSTRAINTS,
                              SimConfig(budget=10**9, period_bids=3))
        imp, clk, conv, spent = naive_replay(records(log), 1.0, 1800, 10**9)
        m = result.feedback
        assert (m.impressions, m.clicks, m.conversions, m.cost) == (imp, clk, conv, spent)

    def test_trace_cumulative_counters_match_metrics(self):
        rng = np.random.default_rng(29)
        log = random_log(rng, 2000)
        result = run_campaign(log, FixedBidController(0.8), CONSTRAINTS,
                              SimConfig(budget=50_000, period_bids=100))
        last = result.trace[-1].feedback
        assert result.feedback == last
        convs = [t.feedback.conversions for t in result.trace]
        costs = [t.feedback.cost for t in result.trace]
        assert convs == sorted(convs) and costs == sorted(costs)
        for t in result.trace:
            fb = t.feedback
            assert fb.impressions >= fb.clicks >= fb.conversions


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), budget=st.integers(0, 60_000),
       weights=st.tuples(st.floats(0.01, 10), st.floats(0.01, 10)))
def test_trace_errors_and_cost_equal_array_oracles(seed, budget, weights):
    # the trace rows' floats are written to trace.csv by repr, so they must
    # be the same bits the array forms gave
    rng = np.random.default_rng(seed)
    constraints = ppc_constraints(1800, budget=max(budget, 1), ppc_expected=1800,
                                  ppc_weight=weights[0], budget_weight=weights[1])
    controller = MlpBidController(constraints, MlpControllerConfig(rng_seed=seed))
    result = run_campaign(random_log(rng, 300), controller, constraints,
                          SimConfig(budget=budget, period_bids=int(rng.integers(1, 40))))
    rows = _trace_rows("mlp", 0, result, constraints)
    assert len(rows) == len(result.trace)
    u_prev = None
    for period, (t, row) in enumerate(zip(result.trace, rows)):
        _, _, row_period, u, e_ppc, e_budget, row_j, conv, cost = row
        assert (row_period, u, conv, cost) == (period, t.u, t.feedback.conversions, t.feedback.cost)
        errors = kpi_error(constraints, t.feedback)
        du = np.array([t.u - u_prev]) if u_prev is not None else np.zeros(1)
        j = cost_value(errors, np.array(weights), du, np.ones(1))
        assert all(type(e) is float for e in (e_ppc, e_budget)) and type(row_j) is float
        assert [e_ppc.hex(), e_budget.hex()] == [float(e).hex() for e in errors]
        assert row_j.hex() == j.hex()
        u_prev = t.u


class TestBudgetSafety:
    def test_overshoot_bounded_by_max_price(self):
        rng = np.random.default_rng(37)
        for trial in range(50):
            log = random_log(rng, 500)
            budget = int(rng.integers(0, 5000))
            u = float(rng.uniform(0.1, 2.0))
            result = run_campaign(log, FixedBidController(u), CONSTRAINTS,
                                  SimConfig(budget=budget, period_bids=64))
            assert result.feedback.cost <= budget + max_price(log)
            if result.terminated:
                assert result.feedback.cost >= budget

    def test_cost_is_exact_sum_of_winning_prices(self):
        rng = np.random.default_rng(41)
        log = random_log(rng, 1000)
        budget = 20_000
        result = run_campaign(log, FixedBidController(1.0), CONSTRAINTS,
                              SimConfig(budget=budget, period_bids=128))
        imp, clk, conv, spent = naive_replay(records(log), 1.0, 1800, budget)
        assert result.feedback.cost == spent
        assert result.feedback.impressions == imp


def test_win_set_monotone_in_u():
    rng = np.random.default_rng(43)
    log = random_log(rng, 800)
    ppc_e = 1800

    def win_mask(u):
        ecpm = 1000.0 * log.pctr * log.pcvr * ppc_e * u
        return ecpm > log.market_price

    low, high = win_mask(0.5), win_mask(1.0)
    assert np.all(high[low])  # every low-multiplier win is also a high-multiplier win
    fb_low = run_period(log, 0.5, ppc_e, 0, 10**12)
    fb_high = run_period(log, 1.0, ppc_e, 0, 10**12)
    assert fb_low.impressions <= fb_high.impressions


def test_second_price_bound():
    rng = np.random.default_rng(47)
    log = random_log(rng, 500)
    u, ppc_e = 0.9, 1800
    for r in records(log):
        outcome, cost = resolve_auction(r, 1000.0 * r.pctr * r.pcvr * ppc_e * u, 10**9)
        if outcome is AuctionOutcome.WIN:
            assert cost <= 1000.0 * r.pctr * r.pcvr * ppc_e * u


@pytest.mark.parametrize("build, message", [
    (lambda: SimConfig(budget=-1), "budget must be >= 0"),
    (lambda: SimConfig(budget=100, period_bids=0), "period_bids must be >= 1"),
    (lambda: SimConfig(budget=100, period_mode=PeriodMode.WALL_CLOCK, period_ms=0),
     "period_ms must be >= 1"),
    (lambda: SimConfig(budget=100, dropout_seed=-1), "dropout_seed must be >= 0, got -1"),
    (lambda: apply_dropout(random_log(np.random.default_rng(0), 10), 1.5, 0),
     "dropout probability must lie in [0, 1]"),
], ids=["negative-budget", "zero-period-bids", "zero-period-ms", "negative-dropout-seed",
        "dropout-above-one"])
def test_replay_rejects(build, message):
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert str(exc.value) == message


class TestDropout:
    def test_identity_at_zero(self):
        log = random_log(np.random.default_rng(1), 100)
        assert apply_dropout(log, 0.0, 7) is log

    def test_everything_dropped_at_one(self):
        log = random_log(np.random.default_rng(2), 100)
        assert len(apply_dropout(log, 1.0, 7)) == 0

    def test_binomial_bound_and_reproducibility(self):
        log = random_log(np.random.default_rng(3), 10_000)
        kept = apply_dropout(log, 0.5, seed=99)
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(len(kept) - 5000) < 3 * sigma
        again = apply_dropout(log, 0.5, seed=99)
        assert kept.ts.tobytes() == again.ts.tobytes()
        assert kept.market_price.tobytes() == again.market_price.tobytes()

    @given(st.floats(0.0, 1.0), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_subset_of_original(self, p, seed):
        log = random_log(np.random.default_rng(5), 200)
        kept = apply_dropout(log, p, seed)
        assert len(kept) <= len(log)
        assert set(kept.ts.tolist()) <= set(log.ts.tolist())

    @given(st.integers(0, 300), st.floats(0.0, 1.0), st.integers(0, 2**63))
    @settings(max_examples=200, deadline=None)
    def test_matches_boolean_mask_definition(self, n, p, seed):
        log = random_log(np.random.default_rng(n), n)
        assert_same_rows(apply_dropout(log, p, seed), mask_dropout(log, p, seed))

    @given(st.lists(st.tuples(st.sampled_from([50, 80]), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                              st.integers(0, 2)), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_interleaved_calls_never_return_a_stale_mask(self, calls):
        # the 50-row log is shared, the 80-row one is not
        logs = {n: random_log(np.random.default_rng(n), n) for n in (50, 80)}
        last = None
        with shared_dropout(logs[50]):
            for n, p, seed in calls:
                kept = apply_dropout(logs[n], p, seed)
                assert_same_rows(kept, mask_dropout(logs[n], p, seed))
                if n == 50:
                    if last is not None and last[0] == (p, seed):
                        assert kept is last[1]
                    last = (p, seed), kept

    def test_outside_a_scope_every_call_draws_and_gathers_afresh(self):
        log = random_log(np.random.default_rng(4), 100)
        kept = apply_dropout(log, 0.5, 3)
        assert apply_dropout(log, 0.5, 3) is not kept
        assert auction._slot == {}
        for name in BidLog.__slots__:
            column = getattr(kept, name)
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_another_log_in_a_scope_is_thinned_afresh_and_leaves_the_memo(self):
        shared, other = (random_log(np.random.default_rng(seed), 100) for seed in (6, 7))
        with shared_dropout(shared):
            kept = apply_dropout(shared, 0.5, 3)
            memo = dict(auction._slot)
            assert apply_dropout(other, 0.5, 3) is not apply_dropout(other, 0.5, 3)
            assert auction._slot.keys() == memo.keys()
            assert all(auction._slot[key] is value for key, value in memo.items())
            assert apply_dropout(shared, 0.5, 3) is kept

    def test_a_nested_scope_replays_its_own_log(self):
        outer, inner = (random_log(np.random.default_rng(seed), 100) for seed in (8, 9))
        with shared_dropout(outer):
            apply_dropout(outer, 0.5, 3)
            with shared_dropout(inner):
                assert_same_rows(apply_dropout(inner, 0.5, 3), mask_dropout(inner, 0.5, 3))
            assert auction._slot == {}
            assert_same_rows(apply_dropout(outer, 0.5, 3), mask_dropout(outer, 0.5, 3))

    def test_slot_is_empty_after_a_block_that_raises(self):
        log = random_log(np.random.default_rng(10), 100)
        with pytest.raises(RuntimeError):
            with shared_dropout(log):
                apply_dropout(log, 0.5, 3)
                assert "kept" in auction._slot
                raise RuntimeError
        assert auction._slot == {}

    def test_edit_in_place_shows_in_the_next_replay(self):
        # Outside a shared_dropout block the log may change between calls,
        # so its thinned copy is gathered afresh each time.
        log = generate_synthetic(SynthConfig(n_records=20_000, seed=1))
        sim = SimConfig(budget=10**12, period_bids=1000, dropout_p=0.5, dropout_seed=7)
        before = run_campaign(log, FixedBidController(1.0), CONSTRAINTS, sim).feedback
        log.market_price[:] = 0
        after = run_campaign(log, FixedBidController(1.0), CONSTRAINTS, sim).feedback
        assert (before.impressions, before.cost) == (10_084, 751_744)
        assert (after.impressions, after.cost) == (10_084, 0)

    def test_write_through_an_alias_of_a_read_only_column_shows_in_the_next_call(self):
        log = generate_synthetic(SynthConfig(n_records=1000, seed=1))
        alias = log.market_price[:]
        for name in BidLog.__slots__:
            getattr(log, name).flags.writeable = False
        assert apply_dropout(log, 0.5, 1).market_price.sum() == 38_402
        alias[:] = 0
        assert apply_dropout(log, 0.5, 1).market_price.sum() == 0


def assert_same_rows(got: BidLog, want: BidLog) -> None:
    for name in BidLog.__slots__:
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestControllerWiring:
    def test_elapsed_fraction_is_monotone_and_ends_at_one(self):
        seen = []

        class Probe:
            def begin_period(self):
                return 0.5

            def end_period(self, feedback, period, elapsed_fraction=1.0):
                seen.append(elapsed_fraction)

        log = random_log(np.random.default_rng(53), 1000)
        run_campaign(log, Probe(), CONSTRAINTS, SimConfig(budget=10**12, period_bids=100))
        assert seen == sorted(seen)
        assert seen[-1] == 1.0
        assert len(seen) == 10

    def test_end_period_gets_each_period_own_counters(self):
        seen = []

        class Recorder:
            def begin_period(self):
                return (0.5, 0.9, 0.2)[len(seen) % 3]

            def end_period(self, feedback, period, elapsed_fraction=1.0):
                seen.append((feedback, period))

        log = random_log(np.random.default_rng(61), 2000)
        result = run_campaign(log, Recorder(), CONSTRAINTS,
                              SimConfig(budget=30_000, period_bids=50))
        assert result.terminated and len(seen) == len(result.trace) > 3
        assert [cumulative for cumulative, _ in seen] == [t.feedback for t in result.trace]
        counters = ("bids_participated", "impressions", "clicks", "conversions", "cost")
        assert seen[0][1] == seen[0][0]
        for (before, _), (after, period) in zip(seen, seen[1:]):
            for name in counters:
                assert getattr(period, name) == getattr(after, name) - getattr(before, name)
        for name in counters:
            assert sum(getattr(period, name) for _, period in seen) == \
                getattr(result.trace[-1].feedback, name)

    def test_replay_imports_nothing_from_the_controller(self):
        import rtblab.auction

        imported = []  # every dotted name an import statement may bind, relative ones resolved
        for node in ast.walk(ast.parse(Path(rtblab.auction.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(["rtblab"] * (node.level > 0) + [node.module] * bool(node.module))
                imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
        assert {"rtblab.core", "rtblab.data"} <= set(imported)
        assert not [m for m in imported
                    if m == "rtblab.controller" or m.startswith("rtblab.controller.")]

    def test_paced_controller_runs_closed_loop(self):
        from rtblab import BudgetErrorMode, MlpBidController, MlpControllerConfig

        log = random_log(np.random.default_rng(59), 3000)
        constraints = ppc_constraints(1800, budget=40_000, ppc_expected=1800)
        config = MlpControllerConfig(rng_seed=2, budget_error_mode=BudgetErrorMode.PACED)
        result = run_campaign(log, MlpBidController(constraints, config), constraints,
                              SimConfig(budget=40_000, period_bids=200))
        assert result.feedback.cost <= 40_000 + max_price(log)
        assert all(0.0 < t.u < 1.0 for t in result.trace)


class TestWallClockPeriods:
    def test_span_of_billions_of_windows_is_refused(self):
        log = make_log([(0, 0.1, 0.1, 5, 0, 0), (4 * 10**15, 0.1, 0.1, 5, 0, 0)])
        sim = SimConfig(budget=100, period_mode=PeriodMode.WALL_CLOCK, period_ms=900_000)
        controller = StopAt(10_000)
        with pytest.raises(ConfigurationError) as exc:
            run_campaign(log, controller, CONSTRAINTS, sim)
        assert str(exc.value) == ("the log's 4000000000000000 ms span cuts into 4444444445 "
                                  "windows of period_ms 900000; a campaign replays at most 1000000")
        assert controller.periods == 0

    @pytest.mark.parametrize("windows", [MAX_WINDOWS, MAX_WINDOWS + 1])
    def test_window_cap_counts_from_the_first_row(self, windows):
        # the last row opens window number `windows`, counted from ts[0] = 7;
        # the dropout drops that row, so the cap counts the log before dropout
        log = make_log([(7, 0.1, 0.1, 5, 0, 0), (7 + (windows - 1) * 10, 0.1, 0.1, 5, 0, 0)])
        sim = SimConfig(budget=10**9, period_mode=PeriodMode.WALL_CLOCK, period_ms=10,
                        dropout_p=0.5)
        expected = Stopped if windows <= MAX_WINDOWS else ConfigurationError
        with pytest.raises(expected):
            run_campaign(log, StopAt(1), CONSTRAINTS, sim)

    def test_batches_follow_time_windows(self):
        # 1ms gaps; 10ms windows -> 10 records per period
        log = make_log([(i, 0.1, 0.1, 5, 0, 0) for i in range(1, 31)])
        sim = SimConfig(budget=10**9, period_mode=PeriodMode.WALL_CLOCK, period_ms=10)
        result = run_campaign(log, FixedBidController(1.0), CONSTRAINTS, sim)
        assert len(result.trace) == 3
        per_period = [t.feedback.bids_participated for t in result.trace]
        assert per_period == [10, 20, 30]  # cumulative

    def test_empty_window_still_counts_a_period(self):
        log = make_log([(1, 0.1, 0.1, 5, 0, 0), (25, 0.1, 0.1, 5, 0, 0)])
        sim = SimConfig(budget=10**9, period_mode=PeriodMode.WALL_CLOCK, period_ms=10)
        result = run_campaign(log, FixedBidController(1.0), CONSTRAINTS, sim)
        assert len(result.trace) == 3
        assert result.trace[1].feedback.bids_participated == 1  # middle window empty
