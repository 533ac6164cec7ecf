import inspect
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtblab import (
    BudgetErrorMode,
    ConfigurationError,
    ConstraintSet,
    FeatureSet,
    FixedBidController,
    MlpBidController,
    MlpControllerConfig,
    KpiConstraint,
    KpiKind,
    PidController,
    SimConfig,
    SynthConfig,
    generate_synthetic,
    run_campaign,
)
from rtblab.auction import PeriodController
from rtblab.controller import build_input, input_dim, normalized_feedback
from support import (
    ReferenceMlp,
    approx_dhdwe,
    approx_dhdwe_loop,
    approx_dxdu,
    cost_value,
    feedback,
    kpi_error,
    normalized_step,
    normalized_step_stacked,
    partial_j1,
    partial_j2,
    ppc_constraints,
    random_log,
    sigmoid,
    sigmoid_layer_grads,
)

SINGLE = ppc_constraints(1800, ppc_expected=1800)
MULTI = ppc_constraints(1800, budget=100_000, ppc_expected=1800)


def make_controller(w_enc, w_dec, u_curr=0.5, u_prev=0.5, h_curr=None, h_prev=None,
                    x_curr=None, resp_prev=None, window=4, constraints=SINGLE, config=None):
    """A controller whose state is set to the given values; ``window`` is
    its grad_window unless ``config`` is given.  ``s_curr`` is set from
    ``w_dec`` and ``h_curr``, as forward would have set it."""
    w_enc = np.asarray(w_enc, dtype=float)
    w_dec = np.asarray(w_dec, dtype=float)
    hidden, dim = w_enc.shape
    zeros_h = np.zeros(hidden)
    zeros_x = np.zeros(dim)
    c = MlpBidController(constraints, config or MlpControllerConfig(grad_window=window))
    c.w_enc, c.w_dec, c.u_curr, c.u_prev = w_enc, w_dec, u_curr, u_prev
    c.h_curr = np.asarray(h_curr, float) if h_curr is not None else zeros_h
    c.h_prev = np.asarray(h_prev, float) if h_prev is not None else zeros_h.copy()
    c.x_curr = np.asarray(x_curr, float) if x_curr is not None else zeros_x
    c.resp_prev = np.asarray(resp_prev, float) if resp_prev is not None else None
    c.s_curr = sigmoid(float(c.w_dec @ c.h_curr))
    return c


class TestBuildInput:
    def test_single_constraint_no_activity(self):
        x = build_input(normalized_feedback(SINGLE, feedback()), feedback(), FeatureSet.NONE)
        assert x.tolist() == [1.0, 0.0]

    def test_multi_on_target_half_budget(self):
        # 25 conversions at 50k fen: achieved PPC 2000 = target, spend = half budget
        fb = feedback(conv=25, cost=50_000)
        constraints = ppc_constraints(2000, budget=100_000, ppc_expected=2000)
        x = build_input(normalized_feedback(constraints, fb), fb, FeatureSet.NONE)
        assert x.tolist() == [1.0, 1.0, 1.0, 0.5]

    def test_full_features(self):
        fb = feedback(bids=1000, imp=100, clk=10, conv=1, cost=0, sum_pctr=5.0, sum_pcvr=20.0)
        x = build_input(normalized_feedback(SINGLE, fb), fb, FeatureSet.FULL)
        assert x[2:].tolist() == pytest.approx([0.1, 0.1, 0.005, 0.02])

    def test_dimensions_per_feature_set(self):
        assert input_dim(2, FeatureSet.FULL) == 8
        assert input_dim(2, FeatureSet.NONE) == 4
        assert input_dim(1, FeatureSet.POSTERIOR) == 4
        for fs in FeatureSet:
            x = build_input(normalized_feedback(MULTI, feedback()), feedback(), fs)
            assert x.shape[0] == input_dim(2, fs)


class TestForward:
    def test_zero_decision_weights_give_half_u_max(self):
        state = make_controller(np.eye(2), [0.0, 0.0])
        h, u = state.forward(np.array([1.0, 1.0]))
        assert h.tolist() == [1.0, 1.0]
        assert u == 0.5

    def test_logistic_of_one(self):
        state = make_controller(np.eye(2), [1.0, 0.0])
        _, u = state.forward(np.array([1.0, 0.0]))
        assert u == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(42)
        w_enc = rng.normal(size=(4, 6))
        w_dec = rng.normal(size=4)
        x = rng.normal(size=6)
        state = make_controller(w_enc, w_dec)
        h, u = state.forward(x)
        # independent naive oracle
        h_ref = [sum(w_enc[i][j] * x[j] for j in range(6)) for i in range(4)]
        a_ref = sum(w_dec[i] * h_ref[i] for i in range(4))
        u_ref = 1.0 / (1.0 + math.exp(-a_ref))
        assert h == pytest.approx(h_ref, rel=1e-12)
        assert u == pytest.approx(u_ref, rel=1e-12)

    def test_rolls_previous_snapshots(self):
        state = make_controller(np.eye(2), [0.3, -0.2])
        x1 = np.array([1.0, 0.2])
        x2 = np.array([1.0, 0.7])
        h1, u1 = state.forward(x1)
        h2, u2 = state.forward(x2)
        assert state.u_prev == u1 and state.u_curr == u2
        assert np.array_equal(state.h_prev, h1) and np.array_equal(state.h_curr, h2)
        assert np.array_equal(state.x_curr, x2)

    def test_dimension_mismatch(self):
        state = make_controller(np.eye(2), [0.0, 0.0])
        with pytest.raises(ConfigurationError):
            state.forward(np.array([1.0, 2.0, 3.0]))


class TestKpiError:
    def test_on_target_ppc(self):
        fb = feedback(conv=10, cost=18_000)
        e = kpi_error(SINGLE, fb)
        assert e.tolist() == [0.0]

    def test_full_budget_reference(self):
        fb = feedback(conv=10, cost=25_000)
        e = kpi_error(MULTI, fb, elapsed_fraction=0.25, mode=BudgetErrorMode.FULL_BUDGET)
        assert e[1] == pytest.approx(-0.75)

    def test_paced_reference_on_pace(self):
        fb = feedback(conv=10, cost=25_000)
        e = kpi_error(MULTI, fb, elapsed_fraction=0.25, mode=BudgetErrorMode.PACED)
        assert e[1] == pytest.approx(0.0)


class TestCostValue:
    def test_scalar_quadratic(self):
        assert cost_value(np.array([1.0]), np.array([2.0]),
                          np.array([0.5]), np.array([4.0])) == pytest.approx(3.0)

    def test_minimum(self):
        assert cost_value(np.zeros(2), np.ones(2), np.zeros(1), np.ones(1)) == 0.0

    def test_hand_arithmetic(self):
        j = cost_value(np.array([1.0, -2.0]), np.array([1.0, 3.0]),
                       np.array([0.1]), np.array([10.0]))
        assert j == pytest.approx(13.1)

    # magnitudes bounded away from the subnormal range, where squaring underflows
    _component = st.one_of(st.just(0.0), st.floats(1e-100, 100), st.floats(-100, -1e-100))

    @given(
        e=st.lists(_component, min_size=1, max_size=4),
        q=st.lists(st.floats(0.01, 10), min_size=4, max_size=4),
        du=_component,
        r=st.floats(0.01, 10),
    )
    def test_nonnegative_zero_only_at_rest(self, e, q, du, r):
        j = cost_value(np.array(e), np.array(q[:len(e)]), np.array([du]), np.array([r]))
        assert j >= 0.0
        if any(v != 0 for v in e) or du != 0:
            assert j > 0.0


class TestPartials:
    def test_j1(self):
        assert partial_j1(1.0, 5.0, 3.0) == 4.0

    def test_j2(self):
        assert partial_j2(2.0, 0.6, 0.5) == pytest.approx(0.4)

    @given(q=st.floats(0.01, 10), z=st.floats(-5, 5))
    def test_j1_zero_at_target(self, q, z):
        assert partial_j1(q, z, z) == 0.0

    def test_match_finite_differences(self):
        rng = np.random.default_rng(0)
        step = 1e-6
        for _ in range(100):
            q = rng.uniform(0.1, 5.0)
            z = rng.uniform(-3, 3)
            x = z + rng.choice([-1, 1]) * rng.uniform(0.05, 3.0)
            fd = (q * (x + step - z) ** 2 - q * (x - step - z) ** 2) / (2 * step)
            assert abs(partial_j1(q, x, z) - fd) / abs(fd) < 1e-5
            r = rng.uniform(0.1, 5.0)
            up = rng.uniform(0, 1)
            u = up + rng.choice([-1, 1]) * rng.uniform(0.05, 0.5)
            fd = (r * (u + step - up) ** 2 - r * (u - step - up) ** 2) / (2 * step)
            assert abs(partial_j2(r, u, up) - fd) / abs(fd) < 1e-5


class TestSignSlope:
    def test_both_deltas_positive(self):
        assert approx_dxdu(10, 8, 0.6, 0.5) == 1.0

    def test_opposite_deltas(self):
        assert approx_dxdu(8, 10, 0.6, 0.5) == -1.0

    def test_zero_delta_gives_zero(self):
        assert approx_dxdu(10, 10, 0.6, 0.5) == 0.0
        assert approx_dxdu(10, 8, 0.5, 0.5) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(0, 1), st.floats(0, 1))
    def test_range(self, xc, xp, uc, up):
        assert approx_dxdu(xc, xp, uc, up) in (-1.0, 0.0, 1.0)


class TestSigmoidLayerGrads:
    def test_slope_at_zero(self):
        du_dh, du_dwd = sigmoid_layer_grads(np.array([1.0]), np.array([0.0]), u_max=1.0)
        assert du_dh.tolist() == [0.25]
        assert du_dwd.tolist() == [0.0]

    def test_saturation(self):
        # activation of 20 built from moderate entries in both vectors
        w = np.full(8, 1.581139)
        h = np.full(8, 20.0 / (8 * 1.581139))
        du_dh, du_dwd = sigmoid_layer_grads(w, h, u_max=1.0)
        assert np.all(np.abs(du_dh) < 1e-8)
        assert np.all(np.abs(du_dwd) < 1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        step = 1e-6
        for _ in range(50):
            dim = rng.integers(1, 8)
            w = rng.uniform(0.05, 1.0, dim) * rng.choice([-1, 1], dim)
            h = rng.uniform(0.05, 1.0, dim) * rng.choice([-1, 1], dim)
            u_max = rng.uniform(0.5, 2.0)

            def u_of(wv, hv):
                a = float(np.dot(wv, hv))
                return u_max / (1.0 + math.exp(-a))

            du_dh, du_dwd = sigmoid_layer_grads(w, h, u_max)
            for k in range(dim):
                eh = np.zeros(dim); eh[k] = step
                fd_h = (u_of(w, h + eh) - u_of(w, h - eh)) / (2 * step)
                fd_w = (u_of(w + eh, h) - u_of(w - eh, h)) / (2 * step)
                assert abs(du_dh[k] - fd_h) / max(abs(fd_h), 1e-12) < 1e-5
                assert abs(du_dwd[k] - fd_w) / max(abs(fd_w), 1e-12) < 1e-5


class TestHebbianFactor:
    def test_unchanged_hidden_gives_zero(self):
        out = approx_dhdwe(np.array([1.0, 2.0]), np.array([3.0]), np.array([3.0]), 0.6, 0.5)
        assert out.tolist() == [0.0, 0.0]

    def test_single_positive_sign_passes_input_through(self):
        out = approx_dhdwe(np.array([1.0, 2.0]), np.array([4.0]), np.array([3.0]), 0.6, 0.5)
        assert out.tolist() == [1.0, 2.0]

    def test_sign_sum(self):
        # hidden deltas (+, -, +) with u rising: sign sum = 1
        out = approx_dhdwe(np.array([0.5, -1.0, 2.0]),
                           np.array([1.0, 1.0, 1.0]), np.array([0.0, 2.0, 0.5]), 0.7, 0.5)
        assert out.tolist() == [0.5, -1.0, 2.0]


def hexes(a) -> list[str]:
    return [float(v).hex() for v in np.ravel(a)]


# zero and negative zero entries are drawn often: their signs are where a
# vectorized form could part from the loop
_entry = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))


class TestAgainstArrayOracles:
    @given(x=st.lists(_entry, min_size=1, max_size=10), data=st.data(),
           u=st.sampled_from([0.3, 0.5, 0.7, -0.0]), u_prev=st.sampled_from([0.5, 0.0]))
    def test_hebbian_factor_equals_loop(self, x, data, u, u_prev):
        hidden = data.draw(st.integers(1, 8))
        h_prev = np.array(data.draw(st.lists(_entry, min_size=hidden, max_size=hidden)))
        deltas = np.array(data.draw(st.lists(_entry, min_size=hidden, max_size=hidden)))
        h_curr = h_prev + deltas
        x = np.array(x)
        assert hexes(approx_dhdwe(x, h_curr, h_prev, u, u_prev)) == \
            hexes(approx_dhdwe_loop(x, h_curr, h_prev, u, u_prev))

    @given(hidden=st.integers(1, 8), feature_set=st.sampled_from(list(FeatureSet)),
           grad_window=st.integers(1, 12), data=st.data())
    def test_normalized_step_equals_stacked_mean(self, hidden, feature_set, grad_window, data):
        # the update over the controller's window, against both oracles
        state = MlpBidController(SINGLE, MlpControllerConfig(
            hidden_dim=hidden, feature_set=feature_set, grad_window=grad_window))
        window = data.draw(st.integers(1, grad_window))

        def draw(shape):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(_entry, min_size=size, max_size=size))).reshape(shape)

        grads = [(draw(state.w_enc.shape), draw(state.w_dec.shape)) for _ in range(window)]
        state.w_enc, state.w_dec = draw(state.w_enc.shape), draw(state.w_dec.shape)
        expected = []
        for k, w in enumerate((state.w_enc, state.w_dec)):
            grad_log = deque((g[k] for g in grads), maxlen=grad_window)
            w_old, w_ref = w.copy(), w.copy()
            stepped = normalized_step_stacked(w_old, grad_log, 0.01)
            assert stepped == normalized_step(w_ref, grad_log, 0.01)
            assert hexes(w_old) == hexes(w_ref)
            expected.append((stepped, w_old))
        log_gradients(state, *grads)
        result = state.apply_update()
        assert (result.enc_applied, result.dec_applied) == (expected[0][0], expected[1][0])
        assert hexes(state.w_enc) == hexes(expected[0][1])
        assert hexes(state.w_dec) == hexes(expected[1][1])

    def test_normalized_step_equals_stacked_mean_on_long_windows(self):
        # realistic magnitudes, over windows longer than the default of 4
        rng = np.random.default_rng(5)
        for _ in range(300):
            hidden = int(rng.integers(1, 9))
            feature_set = list(FeatureSet)[int(rng.integers(4))]
            window = int(rng.integers(8, 17))
            state = MlpBidController(SINGLE, MlpControllerConfig(
                hidden_dim=hidden, feature_set=feature_set, grad_window=window))
            grads = [(rng.normal(size=state.w_enc.shape), rng.normal(size=hidden))
                     for _ in range(window)]
            state.w_enc, state.w_dec = rng.normal(size=state.w_enc.shape), rng.normal(size=hidden)
            expected = []
            for k, w in enumerate((state.w_enc, state.w_dec)):
                w_old = w.copy()
                assert normalized_step_stacked(w_old, deque(g[k] for g in grads), 0.01)
                expected.append(w_old)
            log_gradients(state, *grads)
            result = state.apply_update()
            assert result.enc_applied and result.dec_applied
            assert hexes(state.w_enc) == hexes(expected[0])
            assert hexes(state.w_dec) == hexes(expected[1])


def hand_expanded_1d(q, r, target, cost, conv, cost_prev, conv_prev, resp_prev,
                     u, up, wd, h, hp, x, u_max):
    """Fully written-out scalar chain for hidden_dim=1, single PPC constraint."""
    xhat = (cost / max(conv, 1)) / target
    resp = ((cost - cost_prev) / max(conv - conv_prev, 1)) / target

    def sgn(v):
        return float((v > 0) - (v < 0))

    chain = 2.0 * r * (u - up) + 2.0 * q * (xhat - 1.0) * sgn((resp - resp_prev) * (u - up))
    a = wd * h
    slope = u_max * math.exp(-a) / (1.0 + math.exp(-a)) ** 2
    g_dec = [chain * slope * h]
    hebb = sgn((h - hp) * (u - up))
    g_enc = [[chain * (slope * wd) * (xj * hebb) for xj in x]]
    return np.array(g_enc), np.array(g_dec)


def newest_gradients(state) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the gradients backward logged last: the window's row -1."""
    return state.grad_enc[-1].copy(), state.grad_dec[-1].copy()


class TestBackward:
    def test_stationary_point_gives_zero_gradients(self):
        config = MlpControllerConfig(hidden_dim=1, feature_set=FeatureSet.NONE)
        fb = feedback(conv=10, cost=18_000)  # achieved PPC exactly on target
        state = make_controller([[0.1, 0.2]], [0.3], u_curr=0.5, u_prev=0.5,
                                h_curr=[1.0], h_prev=[0.5], x_curr=[1.0, 1.0],
                                resp_prev=[1.0], config=config)
        state.backward(normalized_feedback(SINGLE, fb), feedback(conv=6, cost=10_800), 1.0)
        assert state.grad_rows == 1
        g_enc, g_dec = newest_gradients(state)
        assert np.all(g_enc == 0.0) and np.all(g_dec == 0.0)

    def test_matches_hand_expansion_1d(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = rng.uniform(0.1, 3.0)
            r = rng.uniform(0.1, 3.0)
            u_max = rng.uniform(0.5, 2.0)
            constraints = ppc_constraints(1800, ppc_expected=1800, ppc_weight=q)
            config = MlpControllerConfig(hidden_dim=1, feature_set=FeatureSet.NONE,
                                         control_weight=r, u_max=u_max)
            cost_prev = int(rng.integers(0, 50_000))
            conv_prev = int(rng.integers(0, 25))
            cost = cost_prev + int(rng.integers(0, 50_000))
            conv = conv_prev + int(rng.integers(0, 25))
            resp_prev = rng.uniform(0, 3)
            wd = rng.normal()
            h, hp = rng.normal(), rng.normal()
            u, up = rng.uniform(0.01, 0.99) * u_max, rng.uniform(0.01, 0.99) * u_max
            x = rng.normal(size=2)
            state = make_controller([[0.1, 0.1]], [wd], u_curr=u, u_prev=up,
                                    h_curr=[h], h_prev=[hp], x_curr=x,
                                    resp_prev=[resp_prev], constraints=constraints, config=config)
            xhat = normalized_feedback(constraints, feedback(conv=conv, cost=cost))
            state.backward(xhat, feedback(conv=conv - conv_prev, cost=cost - cost_prev), 1.0)
            g_enc, g_dec = newest_gradients(state)
            ref_enc, ref_dec = hand_expanded_1d(q, r, 1800, cost, conv, cost_prev, conv_prev,
                                                resp_prev, u, up, wd, h, hp, x, u_max)
            assert np.allclose(g_enc, ref_enc, rtol=1e-12, atol=1e-12)
            assert np.allclose(g_dec, ref_dec, rtol=1e-12, atol=1e-12)

    def test_vanishing_error_weight_leaves_control_term(self):
        q = 1e-300
        constraints = ppc_constraints(1800, ppc_expected=1800, ppc_weight=q)
        config = MlpControllerConfig(hidden_dim=1, feature_set=FeatureSet.NONE,
                                     control_weight=2.0)
        state = make_controller([[0.1, 0.1]], [0.4], u_curr=0.7, u_prev=0.5,
                                h_curr=[1.2], h_prev=[0.8], x_curr=[1.0, 0.5],
                                resp_prev=[0.2], constraints=constraints, config=config)
        state.backward(normalized_feedback(constraints, feedback(conv=1, cost=9000)),
                       feedback(conv=1, cost=9000), 1.0)
        g_enc, g_dec = newest_gradients(state)
        chain = partial_j2(2.0, 0.7, 0.5)
        du_dh, du_dwd = sigmoid_layer_grads(np.array([0.4]), np.array([1.2]), 1.0)
        hebb = approx_dhdwe(np.array([1.0, 0.5]), np.array([1.2]), np.array([0.8]), 0.7, 0.5)
        assert np.allclose(g_dec, chain * du_dwd, rtol=1e-12)
        assert np.allclose(g_enc, chain * np.outer(du_dh, hebb), rtol=1e-12)

    def test_gradients_are_logged(self):
        # the window keeps the last grad_window gradients, oldest first
        config = MlpControllerConfig(hidden_dim=1, feature_set=FeatureSet.NONE, grad_window=2)
        state = make_controller([[0.1, 0.1]], [0.4], u_curr=0.7, u_prev=0.5,
                                h_curr=[1.2], h_prev=[0.8], x_curr=[1.0, 0.5],
                                resp_prev=[0.2], config=config)
        logged = []
        for k in range(3):
            state.backward(normalized_feedback(SINGLE, feedback(conv=1, cost=9000 * (k + 1))),
                           feedback(conv=1, cost=9000 * (k + 1)), 1.0)
            logged.append(newest_gradients(state))
            assert state.grad_rows == min(k + 1, 2)
        assert state.grad_enc.shape == (2, 1, 2) and state.grad_dec.shape == (2, 1)
        for row, (g_enc, g_dec) in zip((0, 1), logged[1:]):
            assert state.grad_enc[row].tobytes() == g_enc.tobytes()
            assert state.grad_dec[row].tobytes() == g_dec.tobytes()

    def test_after_a_step_the_slope_still_comes_from_forward(self):
        # apply_update moves w_dec after forward; backward still takes the
        # logistic's slope at the activation forward computed for the bid
        config = MlpControllerConfig(hidden_dim=2, feature_set=FeatureSet.NONE,
                                     learning_rate=0.5)
        state = make_controller([[0.3, -0.2], [0.1, 0.4]], [0.5, -0.6], u_curr=0.7,
                                u_prev=0.5, h_curr=[1.2, -0.3], h_prev=[0.8, 0.1],
                                x_curr=[1.0, 0.5], resp_prev=[0.2], config=config)
        kept = state.s_curr
        period = feedback(conv=1, cost=9000)
        state.backward(normalized_feedback(SINGLE, period), period, 1.0)
        assert state.apply_update().dec_applied
        assert state.s_curr == kept != sigmoid(float(state.w_dec @ state.h_curr))
        fresh = make_controller(state.w_enc, state.w_dec, u_curr=0.7, u_prev=0.5,
                                h_curr=[1.2, -0.3], h_prev=[0.8, 0.1], x_curr=[1.0, 0.5],
                                resp_prev=state.resp_prev, config=config)
        fresh.s_curr = kept
        later = feedback(conv=2, cost=30_000)
        for controller in (state, fresh):
            controller.backward(normalized_feedback(SINGLE, later), later, 1.0)
        for got, want in zip(newest_gradients(state), newest_gradients(fresh)):
            assert got.tobytes() == want.tobytes()


def log_gradients(state, *gradients) -> None:
    """Put ``(g_enc, g_dec)`` pairs in the window, oldest first, as backward would."""
    for g_enc, g_dec in gradients:
        state._push_row()
        state.grad_enc[-1], state.grad_dec[-1] = g_enc, g_dec


class TestApplyUpdate:
    config = MlpControllerConfig(hidden_dim=2, feature_set=FeatureSet.NONE)

    def test_zero_gradients_skip(self):
        state = MlpBidController(SINGLE, self.config)
        log_gradients(state, (np.zeros((2, 2)), np.zeros(2)))
        before_enc, before_dec = state.w_enc.copy(), state.w_dec.copy()
        result = state.apply_update()
        assert not result.enc_applied and not result.dec_applied
        assert np.array_equal(state.w_enc, before_enc)
        assert np.array_equal(state.w_dec, before_dec)

    def test_single_gradient_step_has_norm_eta(self):
        state = MlpBidController(SINGLE, self.config)
        rng = np.random.default_rng(3)
        log_gradients(state, (rng.normal(size=(2, 2)) * 37.0, rng.normal(size=2) * 0.001))
        before_enc, before_dec = state.w_enc.copy(), state.w_dec.copy()
        result = state.apply_update()
        assert result.enc_applied and result.dec_applied
        assert np.linalg.norm(state.w_enc - before_enc) == pytest.approx(0.01, abs=1e-9)
        assert np.linalg.norm(state.w_dec - before_dec) == pytest.approx(0.01, abs=1e-9)

    def test_cancelling_gradients_skip(self):
        state = MlpBidController(SINGLE, self.config)
        g = np.array([[1.0, -2.0], [0.5, 0.25]])
        d = np.array([0.3, -0.1])
        log_gradients(state, (g, d), (-g, d))
        before_enc, before_dec = state.w_enc.copy(), state.w_dec.copy()
        result = state.apply_update()
        assert not result.enc_applied and result.dec_applied
        assert np.array_equal(state.w_enc, before_enc)
        assert not np.array_equal(state.w_dec, before_dec)

    def test_empty_log_skips(self):
        state = MlpBidController(SINGLE, self.config)
        result = state.apply_update()
        assert not result.enc_applied and not result.dec_applied


class Lockstep:
    """Runs an MlpBidController and the reference MLP (tests/support.py) on
    the same feedback; after each call their adjustments and weights must
    be equal byte for byte."""

    def __init__(self, constraints, config):
        self.mlp = MlpBidController(constraints, config)
        self.ref = ReferenceMlp(constraints, config)
        self.periods = self.zero_steps = 0

    def begin_period(self) -> float:
        u = self.mlp.begin_period()
        assert np.float64(u).tobytes() == np.float64(self.ref.begin_period()).tobytes()
        return u

    def end_period(self, feedback, period, elapsed_fraction=1.0) -> None:
        self.mlp.end_period(feedback, period, elapsed_fraction)
        enc_stepped, dec_stepped = self.ref.end_period(feedback, period, elapsed_fraction)
        if self.periods:  # after the first period, whose update has an empty window
            self.zero_steps += (not enc_stepped) + (not dec_stepped)
        self.periods += 1
        assert self.mlp.w_enc.tobytes() == self.ref.w_enc.tobytes()
        assert self.mlp.w_dec.tobytes() == self.ref.w_dec.tobytes()


def lockstep_campaign(feature_set, grad_window, hidden_dim, mode, learning_rate, log_seed,
                      rows=300, period_bids=10, rng_seed=0, control_weight=1.0, u_max=1.0,
                      ppc_target=400, ppc_expected=10, budget=None):
    """One campaign of a random log under a Lockstep controller; the budget
    constraint is added when ``budget`` is given or ``mode`` is paced."""
    if budget is None and mode is BudgetErrorMode.PACED:
        budget = 20_000
    kpis = (KpiConstraint(KpiKind.PPC_TARGET, ppc_target),)
    if budget is not None:
        kpis += (KpiConstraint(KpiKind.BUDGET, budget, 0.5),)
    constraints = ConstraintSet(kpis, ppc_expected)
    config = MlpControllerConfig(hidden_dim=hidden_dim, learning_rate=learning_rate,
                                 grad_window=grad_window, control_weight=control_weight,
                                 u_max=u_max, feature_set=feature_set,
                                 budget_error_mode=mode, rng_seed=rng_seed)
    controller = Lockstep(constraints, config)
    log = random_log(np.random.default_rng(log_seed), rows)
    sim = SimConfig(budget=budget if budget is not None else 10**12, period_bids=period_bids)
    run_campaign(log, controller, constraints, sim)
    return controller


class TestAgainstReferenceMlp:
    @settings(max_examples=150, deadline=None)
    @given(feature_set=st.sampled_from(list(FeatureSet)), grad_window=st.integers(1, 6),
           hidden_dim=st.integers(1, 8), mode=st.sampled_from(list(BudgetErrorMode)),
           learning_rate=st.sampled_from([0.01, 0.1, 1.0, 30.0]),
           log_seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 300),
           period_bids=st.integers(1, 30), rng_seed=st.integers(0, 2**16),
           control_weight=st.floats(0.1, 5.0), u_max=st.floats(0.5, 2.0),
           ppc_target=st.integers(50, 5000), ppc_expected=st.integers(1, 40),
           budget=st.one_of(st.none(), st.integers(500, 50_000)))
    def test_every_period_matches_bit_for_bit(self, **campaign):
        controller = lockstep_campaign(**campaign)
        assert controller.periods >= 1

    @pytest.mark.parametrize("feature_set", list(FeatureSet))
    def test_zero_norm_windows_match(self, feature_set):
        # a large step saturates the logistic: u sits at its clamp, du is 0,
        # and windows of zero gradients leave a matrix unstepped
        controller = lockstep_campaign(feature_set, 3, 1, BudgetErrorMode.FULL_BUDGET, 30.0,
                                       log_seed=11, rows=2000, period_bids=5)
        assert controller.zero_steps > 0

    def test_window_far_longer_than_the_run_matches(self):
        # a window no run fills, to average over all of history: the window
        # array grows with the rows logged, never to grad_window rows
        controller = lockstep_campaign(FeatureSet.FULL, 10**12, 4, BudgetErrorMode.FULL_BUDGET, 0.1,
                                       log_seed=5, rows=3000, period_bids=5)
        mlp = controller.mlp
        assert mlp.grad_rows == controller.periods - 1 > 512
        assert len(mlp.grad) < 2 * mlp.grad_rows

    def test_cancelling_window_matches(self):
        # opposite gradients in one window: the mean is exactly zero for the
        # encoding layer, and the decoding layer still steps
        config = MlpControllerConfig(hidden_dim=2, grad_window=3, feature_set=FeatureSet.NONE)
        mlp = MlpBidController(SINGLE, config)
        g, d = np.array([[1.0, -2.0], [0.5, 0.25]]), np.array([0.3, -0.1])
        log_gradients(mlp, (g, d), (-g, 3 * d))
        w_enc, w_dec = mlp.w_enc.copy(), mlp.w_dec.copy()
        result = mlp.apply_update()
        assert not result.enc_applied and result.dec_applied
        assert not normalized_step(w_enc, deque([g, -g]), config.learning_rate)
        assert normalized_step(w_dec, deque([d, 3 * d]), config.learning_rate)
        assert mlp.w_enc.tobytes() == w_enc.tobytes()
        assert mlp.w_dec.tobytes() == w_dec.tobytes()


@pytest.mark.parametrize("field, value, message", [
    ("hidden_dim", 0, "hidden_dim must be >= 1"),
    ("grad_window", 0, "grad_window must be >= 1"),
    ("rng_seed", -1, "rng_seed must be >= 0, got -1"),
])
def test_config_rejects(field, value, message):
    with pytest.raises(ConfigurationError) as exc:
        MlpControllerConfig(**{field: value})
    assert str(exc.value) == message


class TestInit:
    def test_same_seed_bit_identical(self):
        a = MlpBidController(MULTI, MlpControllerConfig(rng_seed=123))
        b = MlpBidController(MULTI, MlpControllerConfig(rng_seed=123))
        assert a.w_enc.tobytes() == b.w_enc.tobytes()
        assert a.w_dec.tobytes() == b.w_dec.tobytes()

    def test_dimension_bookkeeping(self):
        dim = input_dim(2, FeatureSet.FULL)
        assert dim == 8
        state = MlpBidController(MULTI, MlpControllerConfig(hidden_dim=8))
        assert state.w_enc.shape == (8, 8)
        assert state.w_dec.shape == (8,)

    def test_initial_adjustment_near_midpoint(self):
        controller = MlpBidController(MULTI, MlpControllerConfig(rng_seed=5))
        u = controller.begin_period()
        assert 0.3 < u < 0.7

    def test_weights_small(self):
        state = MlpBidController(MULTI, MlpControllerConfig(rng_seed=0))
        assert np.all(np.abs(state.w_enc) < 0.1)
        assert np.all(np.abs(state.w_dec) < 0.1)


def _drive(controller, fb_sequence):
    for fb_before, fb_after, fb_period, elapsed in fb_sequence:
        controller.begin_period()
        controller.end_period(fb_after, fb_period, elapsed)


def _synthetic_feedback_walk(seed, periods=50):
    rng = np.random.default_rng(seed)
    seq = []
    total = feedback()
    for k in range(periods):
        before = total
        period = feedback(bids=100, imp=int(rng.integers(0, 60)),
                          clk=int(rng.integers(0, 20)), conv=int(rng.integers(0, 5)),
                          cost=int(rng.integers(0, 40_000)),
                          sum_pctr=float(rng.uniform(0, 10)),
                          sum_pcvr=float(rng.uniform(0, 30)))
        total = total + period
        seq.append((before, total, period, (k + 1) / periods))
    return seq


class TestControllerLoop:
    def test_deterministic_weight_trajectory(self):
        seq = _synthetic_feedback_walk(9)
        runs = []
        for _ in range(2):
            c = MlpBidController(MULTI, MlpControllerConfig(rng_seed=21))
            _drive(c, seq)
            runs.append((c.w_enc.tobytes(), c.w_dec.tobytes()))
        assert runs[0] == runs[1]

    def test_adjustment_stays_in_open_range(self):
        cfg = MlpControllerConfig(rng_seed=2, u_max=0.8)
        c = MlpBidController(MULTI, cfg)
        us = []
        total = feedback()
        for k in range(200):
            before = total
            # extreme spend with no conversions drives inputs far from 1
            period = feedback(bids=1000, imp=900, clk=0, conv=0,
                              cost=5_000_000, sum_pctr=100.0, sum_pcvr=300.0)
            total = total + period
            us.append(c.begin_period())
            c.end_period(total, period, (k + 1) / 200)
        assert all(0.0 < u < 0.8 for u in us)

    def test_every_applied_update_has_fixed_norm(self):
        c = MlpBidController(MULTI, MlpControllerConfig(rng_seed=4))
        for fb_before, fb_after, fb_period, elapsed in _synthetic_feedback_walk(5, periods=80):
            w_enc, w_dec = c.w_enc.copy(), c.w_dec.copy()
            c.begin_period()
            c.end_period(fb_after, fb_period, elapsed)
            for before, after in ((w_enc, c.w_enc), (w_dec, c.w_dec)):
                step = np.linalg.norm(after - before)
                assert step == pytest.approx(0.0, abs=1e-12) or \
                    step == pytest.approx(0.01, abs=1e-9)

    def test_first_period_skips_update(self):
        c = MlpBidController(SINGLE, MlpControllerConfig(rng_seed=6))
        w_enc = c.w_enc.copy()
        c.begin_period()
        fb = feedback(imp=10, clk=2, conv=1, cost=900, bids=100)
        c.end_period(fb, fb, 0.1)
        assert np.array_equal(c.w_enc, w_enc)
        assert c.resp_prev is not None
        assert c.grad_rows == 0


class TestPeriodProtocol:
    def test_normalizes_each_cumulative_once(self, monkeypatch):
        # end_period reads the cumulative and the period's own counters, one
        # call each; begin_period reuses the input end_period built
        calls = []

        def counted(constraints, fb):
            calls.append(fb)
            return normalized_feedback(constraints, fb)

        monkeypatch.setattr("rtblab.controller.normalized_feedback", counted)
        controller = MlpBidController(MULTI, MlpControllerConfig(rng_seed=8))
        assert len(calls) == 1
        log = generate_synthetic(SynthConfig(n_records=2000, seed=8))
        result = run_campaign(log, controller, MULTI, SimConfig(budget=100_000, period_bids=100))
        assert len(result.trace) > 3
        assert len(calls) == 1 + 2 * len(result.trace)

    @pytest.mark.parametrize("cls", [PeriodController, MlpBidController, PidController,
                                     FixedBidController])
    def test_begin_period_takes_no_feedback(self, cls):
        assert list(inspect.signature(cls.begin_period).parameters) == ["self"]


def test_directional_sanity_under_budget_pressure():
    # Closed loop against a monotone-win-rate environment, spending far below
    # the budget target: over seeds, the adjustment should not drift down.
    drifts = []
    for seed in range(20):
        log = generate_synthetic(SynthConfig(
            n_records=10_000, ctr_true=0.12, cvr_true=0.3,
            price_log_mean=7.09, price_log_sigma=1.0, seed=1000 + seed))
        constraints = ppc_constraints(30_000, budget=60_000_000, ppc_expected=100)
        controller = MlpBidController(constraints, MlpControllerConfig(rng_seed=seed))
        result = run_campaign(log, controller, constraints,
                              SimConfig(budget=60_000_000, period_bids=500))
        u = [t.u for t in result.trace]
        drifts.append(float(np.mean(u[6:16])) - float(np.mean(u[1:6])))
    assert float(np.mean(drifts)) > -1e-3
