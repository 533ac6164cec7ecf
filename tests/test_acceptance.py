"""End-to-end acceptance checks for the lab.

Each test prints one PASS/FAIL line (run `pytest tests/test_acceptance.py -v -s`
to see them) and enforces its stated tolerance.  Closed-loop checks run on
seeded synthetic environments with monotone win-rate in the adjustment;
steady-state tracking is judged on the PPC achieved during the final quarter
of the run, after the burn-in transient has been paid for.
"""
import math
import time

import numpy as np

from rtblab import (
    BidLog,
    ConstraintSet,
    ControllerSpec,
    ExperimentSpec,
    FeatureSet,
    FixedBidController,
    MlpBidController,
    MlpControllerConfig,
    PeriodFeedback,
    PidController,
    SimConfig,
    SynthConfig,
    apply_dropout,
    generate_synthetic,
    run_campaign,
    run_experiment,
    sweep_sparsity,
)
from rtblab.controller import backward, partial_j1, partial_j2, sigmoid_layer_grads
from rtblab.harness import spec_from_dict, spec_to_dict
from support import max_price, records

# conversion-dense monotone environment used by the closed-loop criteria
DENSE_ENV = dict(ctr_true=0.6, cvr_true=0.8, price_log_mean=8.19, price_log_sigma=0.8,
                 pctr_noise=0.02, pcvr_noise=0.02)


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_01_gradient_finite_difference_oracle():
    rng = np.random.default_rng(42)
    step = 1e-6
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        w = rng.uniform(0.05, 1.0, dim) * rng.choice([-1.0, 1.0], dim)
        h = rng.uniform(0.05, 1.0, dim) * rng.choice([-1.0, 1.0], dim)
        u_max = rng.uniform(0.5, 2.0)

        def u_of(wv, hv):
            return u_max / (1.0 + math.exp(-float(np.dot(wv, hv))))

        du_dh, du_dwd = sigmoid_layer_grads(w, h, u_max)
        k = int(rng.integers(0, dim))
        e = np.zeros(dim)
        e[k] = step
        fd_h = (u_of(w, h + e) - u_of(w, h - e)) / (2 * step)
        fd_w = (u_of(w + e, h) - u_of(w - e, h)) / (2 * step)
        worst = max(worst, abs(du_dh[k] - fd_h) / max(abs(fd_h), 1e-12),
                    abs(du_dwd[k] - fd_w) / max(abs(fd_w), 1e-12))

        q = rng.uniform(0.1, 5.0)
        z = rng.uniform(-3.0, 3.0)
        x = z + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        fd = (q * (x + step - z) ** 2 - q * (x - step - z) ** 2) / (2 * step)
        worst = max(worst, abs(partial_j1(q, x, z) - fd) / abs(fd))

        r = rng.uniform(0.1, 5.0)
        up = rng.uniform(0.0, 1.0)
        u = up + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
        fd = (r * (u + step - up) ** 2 - r * (u - step - up) ** 2) / (2 * step)
        worst = max(worst, abs(partial_j2(r, u, up) - fd) / abs(fd))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-5 and elapsed < 5.0,
           "layer/error gradients match central finite differences",
           f"(max rel err {worst:.2e}, {elapsed:.1f}s, 1000 inputs)")


def test_02_one_dimensional_chain_oracle():
    from collections import deque

    from rtblab.controller import ControllerState

    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(0.1, 3.0)
        r = rng.uniform(0.1, 3.0)
        u_max = rng.uniform(0.5, 2.0)
        target = int(rng.integers(500, 5000))
        constraints = ConstraintSet.single_ppc(target, ppc_weight=q)
        config = MlpControllerConfig(hidden_dim=1, feature_set=FeatureSet.NONE,
                                     control_weight=r, u_max=u_max)
        cost_prev, conv_prev = int(rng.integers(0, 50_000)), int(rng.integers(0, 25))
        cost = cost_prev + int(rng.integers(0, 50_000))
        conv = conv_prev + int(rng.integers(0, 25))
        resp_prev = float(rng.uniform(0, 3))
        wd = float(rng.normal())
        h, hp = float(rng.normal()), float(rng.normal())
        u = float(rng.uniform(0.01, 0.99)) * u_max
        up = float(rng.uniform(0.01, 0.99)) * u_max
        x = rng.normal(size=2)
        state = ControllerState(
            w_enc=np.array([[0.1, 0.1]]), w_dec=np.array([wd]), u_curr=u, u_prev=up,
            h_curr=np.array([h]), h_prev=np.array([hp]), x_curr=x.copy(),
            fb_prev=PeriodFeedback(conversions=conv_prev, cost=cost_prev),
            resp_prev=np.array([resp_prev]),
            grad_log_enc=deque(maxlen=4), grad_log_dec=deque(maxlen=4), period_index=1)
        fb = PeriodFeedback(conversions=conv, cost=cost)
        g_enc, g_dec = backward(state, constraints, fb, config)

        # independent fully written-out scalar chain
        def sgn(v):
            return float((v > 0) - (v < 0))

        xhat = (cost / max(conv, 1)) / target
        resp = ((cost - cost_prev) / max(conv - conv_prev, 1)) / target
        chain = 2.0 * r * (u - up) + 2.0 * q * (xhat - 1.0) * sgn((resp - resp_prev) * (u - up))
        slope = u_max * math.exp(-wd * h) / (1.0 + math.exp(-wd * h)) ** 2
        ref_dec = np.array([chain * slope * h])
        hebb = sgn((h - hp) * (u - up))
        ref_enc = np.array([[chain * (slope * wd) * (xj * hebb) for xj in x]])
        scale = max(1.0, float(np.max(np.abs(ref_enc))), float(np.max(np.abs(ref_dec))))
        worst = max(worst,
                    float(np.max(np.abs(g_enc - ref_enc))) / scale,
                    float(np.max(np.abs(g_dec - ref_dec))) / scale)
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-12 and elapsed < 5.0,
           "hidden_dim=1 backward equals hand-expanded chain",
           f"(max err {worst:.2e}, {elapsed:.1f}s, 100 states)")


def test_03_normalized_step_over_500_periods():
    log = generate_synthetic(SynthConfig(n_records=500_000, seed=77, **DENSE_ENV))
    constraints = ConstraintSet.ppc_and_budget(4400, 10**12, ppc_expected=15,
                                               budget_weight=0.05)
    controller = MlpBidController(constraints, MlpControllerConfig(rng_seed=3))
    sim = SimConfig(budget=10**12, period_bids=1000)

    applied = 0
    violations = 0

    class Audit:
        def begin_period(self, fb):
            return controller.begin_period(fb)

        def end_period(self, fb, elapsed_fraction=1.0):
            nonlocal applied, violations
            w_enc, w_dec = controller.state.w_enc.copy(), controller.state.w_dec.copy()
            controller.end_period(fb, elapsed_fraction)
            for before, after in ((w_enc, controller.state.w_enc),
                                  (w_dec, controller.state.w_dec)):
                step = float(np.linalg.norm(after - before))
                if step > 1e-12:
                    applied += 1
                    if abs(step - 0.01) > 1e-9:
                        violations += 1

    result = run_campaign(log, Audit(), constraints, sim)
    ok = violations == 0 and applied >= 400 and len(result.trace) == 500
    report(3, ok, "every applied update moves each weight matrix by exactly eta",
           f"({applied} applied updates over {len(result.trace)} periods, {violations} violations)")


def _trace_replay(log: BidLog, trace, ppc_expected: float, budget: int, period_bids: int):
    """Record-at-a-time recount of a campaign from its traced adjustments."""
    imp = clk = conv = 0
    spent = 0
    for t, row in enumerate(trace):
        lo = t * period_bids
        hi = min(lo + period_bids, len(log))
        for i in range(lo, hi):
            if spent >= budget:
                return imp, clk, conv, spent
            ecpm = 1000.0 * float(log.pctr[i]) * float(log.pcvr[i]) * ppc_expected * row.u
            if ecpm > log.market_price[i]:
                spent += int(log.market_price[i])
                imp += 1
                clk += int(log.click[i])
                conv += int(log.conversion[i])
    return imp, clk, conv, spent


def test_04_budget_safety_over_random_campaigns():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    checked = recounted = 0
    for i in range(1000):
        synth = SynthConfig(
            n_records=1500,
            ctr_true=float(rng.uniform(0.05, 0.6)),
            cvr_true=float(rng.uniform(0.1, 0.8)),
            price_log_mean=float(rng.uniform(3.5, 8.0)),
            price_log_sigma=float(rng.uniform(0.3, 1.2)),
            seed=int(rng.integers(0, 2**31)),
        )
        log = generate_synthetic(synth)
        ppc_e = int(rng.integers(5, 2000))
        constraints = ConstraintSet.single_ppc(int(rng.integers(500, 20_000)),
                                               ppc_expected=ppc_e)
        budget = int(rng.integers(0, 400_000))
        p = float(rng.choice([0.0, 0.3, 0.7]))
        sim = SimConfig(budget=budget, period_bids=200, dropout_p=p,
                        dropout_seed=int(rng.integers(0, 2**31)))
        kind = i % 3
        if kind == 0:
            controller = FixedBidController(float(rng.uniform(0.2, 2.0)))
        elif kind == 1:
            controller = PidController(constraints)
        else:
            controller = MlpBidController(constraints, MlpControllerConfig(rng_seed=i))
        result = run_campaign(log, controller, constraints, sim)
        assert result.metrics.cost <= budget + max_price(log), f"campaign {i} overspent"
        if result.terminated:
            assert result.metrics.cost >= budget
        checked += 1
        if i % 20 == 0:
            # independent recount from the traced per-period adjustments
            filtered = apply_dropout(log, p, sim.dropout_seed)
            m = result.metrics
            got = _trace_replay(filtered, result.trace, ppc_e, budget, 200)
            assert got == (m.imp, m.clk, m.conv, m.cost), f"campaign {i} recount mismatch"
            recounted += 1
    elapsed = time.perf_counter() - t0
    report(4, checked == 1000 and elapsed < 120,
           "budget never exceeded by more than one market price; no wins after stop",
           f"({checked} campaigns, {recounted} recounted record-by-record, {elapsed:.1f}s)")


def test_05_brute_force_replay_equivalence():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    for i in range(50):
        synth = SynthConfig(
            n_records=1000,
            ctr_true=float(rng.uniform(0.05, 0.5)),
            cvr_true=float(rng.uniform(0.1, 0.8)),
            price_log_mean=float(rng.uniform(3.5, 7.0)),
            price_log_sigma=float(rng.uniform(0.3, 1.2)),
            seed=int(rng.integers(0, 2**31)),
        )
        log = generate_synthetic(synth)
        u = float(rng.uniform(0.1, 1.5))
        ppc_e = int(rng.integers(10, 3000))
        budget = int(rng.integers(1000, 10_000_000))
        constraints = ConstraintSet.single_ppc(1800, ppc_expected=ppc_e)
        result = run_campaign(log, FixedBidController(u), constraints,
                              SimConfig(budget=budget, period_bids=128))
        # independent naive replay: no periods, no batching, no numpy
        imp = clk = conv = 0
        spent = 0
        for r in records(log):
            if spent >= budget:
                break
            if 1000.0 * r.pctr * r.pcvr * ppc_e * u > r.market_price:
                spent += r.market_price
                imp += 1
                clk += int(r.click)
                conv += int(r.conversion)
        m = result.metrics
        assert (m.imp, m.clk, m.conv, m.cost) == (imp, clk, conv, spent), f"log {i}"
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 30, "vectorized campaign equals naive record-at-a-time replay",
           f"(50 random 1000-record logs, metric-exact, {elapsed:.1f}s)")


def _steady_state_ppc(result, periods):
    """Cost per conversion achieved during the final quarter of the run."""
    lo = result.trace[periods - periods // 4 - 1].feedback
    hi = result.trace[-1].feedback
    return (hi.cost - lo.cost) / max(hi.conversions - lo.conversions, 1)


def test_06_closed_loop_ppc_tracking():
    periods, per = 200, 6000
    target = 5400
    ok_seeds = 0
    t0 = time.perf_counter()
    for seed in range(20):
        log = generate_synthetic(SynthConfig(n_records=periods * per,
                                             seed=10_000 + seed, **DENSE_ENV))
        constraints = ConstraintSet.ppc_and_budget(target, 3_000_000_000, ppc_expected=15,
                                                   ppc_weight=1.0, budget_weight=0.05)
        controller = MlpBidController(constraints, MlpControllerConfig(
            rng_seed=seed, learning_rate=0.02, u_max=1.5))
        result = run_campaign(log, controller, constraints,
                              SimConfig(budget=3_500_000_000, period_bids=per))
        if len(result.trace) < periods:
            continue
        rel = abs(_steady_state_ppc(result, periods) / target - 1.0)
        ok_seeds += rel <= 0.15
    elapsed = time.perf_counter() - t0
    report(6, ok_seeds >= 16 and elapsed < 120,
           "steady-state PPC within +/-15% of target under multi-constraints",
           f"({ok_seeds}/20 seeds, {elapsed:.1f}s)")


def test_07_conversion_ordering_against_pid():
    at_least = 0
    t0 = time.perf_counter()
    for seed in range(20):
        log = generate_synthetic(SynthConfig(n_records=150_000, seed=30_000 + seed,
                                             **DENSE_ENV))
        constraints = ConstraintSet.single_ppc(4400, ppc_expected=15)
        sim = SimConfig(budget=25_000_000, period_bids=2000)
        mlp = run_campaign(log, MlpBidController(constraints,
                                                 MlpControllerConfig(rng_seed=seed)),
                           constraints, sim)
        pid = run_campaign(log, PidController(constraints), constraints, sim)
        at_least += mlp.metrics.conv >= pid.metrics.conv
    elapsed = time.perf_counter() - t0
    report(7, at_least >= 14 and elapsed < 300,
           "tight-budget conversions: adaptive controller >= PID in >=70% of seeds",
           f"({at_least}/20 seeds, {elapsed:.1f}s)")


def test_08_sparsity_sweep_behavior(tmp_path):
    t0 = time.perf_counter()
    synth = SynthConfig(n_records=20_000, seed=4, **DENSE_ENV)
    spec = ExperimentSpec(
        controllers=(ControllerSpec(kind="mlp"),),
        constraints=ConstraintSet.single_ppc(4400, ppc_expected=15),
        sim=SimConfig(budget=12_000_000, period_bids=1000),
        synth=synth,
        trials=100,
        base_seed=8,
        out_dir=str(tmp_path / "sweep"),
    )
    p_list = [round(0.1 * k, 1) for k in range(1, 10)]
    paths = sweep_sparsity(spec, p_list)
    top_price = max_price(generate_synthetic(synth))

    raw = [line.split(",") for line in
           paths["trials"].read_text().splitlines()[1:]]
    assert len(raw) == 900
    safety = all(int(row[7]) <= 12_000_000 + top_price for row in raw)

    summary = [line.split(",") for line in
               paths["sweep"].read_text().splitlines()[1:]]
    means = [float(r[3]) for r in summary]
    lows = [float(r[4]) for r in summary]
    highs = [float(r[5]) for r in summary]
    monotone = True
    for i in range(len(means) - 1):
        increased = means[i + 1] > means[i]
        disjoint = lows[i + 1] > highs[i]
        if increased and disjoint:
            monotone = False
    elapsed = time.perf_counter() - t0
    report(8, safety and monotone and elapsed < 600,
           "dropout sweep: budget safe in all trials, mean conversions nonincreasing",
           f"(9 levels x 100 trials, means {[round(m) for m in means]}, {elapsed:.1f}s)")


def test_09_manifest_determinism(tmp_path):
    spec = ExperimentSpec(
        controllers=(ControllerSpec(kind="mlp"), ControllerSpec(kind="pid")),
        constraints=ConstraintSet.ppc_and_budget(4400, 9_000_000, ppc_expected=15),
        sim=SimConfig(budget=9_000_000, period_bids=500, dropout_p=0.2),
        synth=SynthConfig(n_records=8000, seed=6, **DENSE_ENV),
        trials=2,
        base_seed=5,
        out_dir=str(tmp_path / "a"),
    )
    first = run_experiment(spec)
    manifest = spec_to_dict(spec_from_dict(__import__("json").loads(
        first["manifest"].read_text())))
    respec = spec_from_dict(manifest)
    respec = ExperimentSpec(**{**respec.__dict__, "out_dir": str(tmp_path / "b")})
    second = run_experiment(respec)
    run_ok = (first["metrics"].read_text() == second["metrics"].read_text()
              and first["trace"].read_text() == second["trace"].read_text())

    sw_a = sweep_sparsity(ExperimentSpec(**{**spec.__dict__,
                                            "out_dir": str(tmp_path / "sa")}), [0.5])
    sw_b = sweep_sparsity(ExperimentSpec(**{**spec.__dict__,
                                            "out_dir": str(tmp_path / "sb")}), [0.5])
    sweep_ok = (sw_a["sweep"].read_text() == sw_b["sweep"].read_text()
                and sw_a["trials"].read_text() == sw_b["trials"].read_text())
    report(9, run_ok and sweep_ok,
           "manifest re-runs reproduce metrics, traces, and sweep outputs byte-for-byte")


def test_10_replay_throughput():
    log = generate_synthetic(SynthConfig(n_records=500_000, seed=1))
    constraints = ConstraintSet.single_ppc(1800)
    sim = SimConfig(budget=10**13, period_bids=1000)
    run_campaign(log, FixedBidController(1.0), constraints, sim)  # warm-up
    t0 = time.perf_counter()
    runs = 3
    for _ in range(runs):
        run_campaign(log, FixedBidController(1.0), constraints, sim)
    rate = len(log) * runs / (time.perf_counter() - t0)
    report(10, rate >= 500_000,
           "single-threaded fixed-controller replay rate",
           f"(measured {rate / 1e6:.1f}M records/s, target 0.5M/s)")
