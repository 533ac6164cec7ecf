"""Tests of the benchmark itself: span arithmetic, output checks, call points.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import rtblab.auction  # noqa: E402
import rtblab.cli  # noqa: E402
import rtblab.harness  # noqa: E402
from rtblab.data import BidLog  # noqa: E402

from outputs import Limits, check_op, digest, row_violations  # noqa: E402
from spans import CALL_POINTS, CallPoint, Span, Tracer, self_times, totals  # noqa: E402
from worker import PER_LAYER, OpRunner, count_periods, layer_metrics  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402


def _span(id, parent, start, end, name="x.y"):
    return Span(id=id, parent=parent, op=0, name=name, start=start, end=end, counts={})


# -- self time ----------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),   # root
        _span(1, 0, 1.0, 4.0),       # child
        _span(2, 1, 2.0, 3.0),       # grandchild: counts against 1, not 0
        _span(3, 0, 5.0, 9.0),       # second child
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_totals_sum_self_and_inclusive_time_per_name():
    spans = [_span(0, None, 0.0, 4.0, "a.op"), _span(1, 0, 1.0, 2.0, "b.f"),
             _span(2, 0, 2.5, 3.0, "b.f")]
    t = totals(spans)
    assert t["b.f"].calls == 2
    assert t["b.f"].seconds == pytest.approx(1.5)
    assert t["a.op"].self_seconds == pytest.approx(2.5)


# -- output checks ------------------------------------------------------------

METRICS = "controller,trial,imp,clk,conv,cost,ppc\nmlp,0,10,5,4,900,225.0\n"


class FakeCli:
    """Stands in for ``rtblab.cli.main``: writes a fixed metrics.csv per call."""

    def __init__(self, bodies, rc=0):
        self.bodies = list(bodies)
        self.rc = rc

    def __call__(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text(self.bodies.pop(0), encoding="utf-8")
        return self.rc


LIMITS = Limits(cost_cap=1000, total_price=5000, log_rows=20)


def _runner(tmp_path, cli, reference=None, limits=LIMITS):
    cfg = tmp_path / "config.json"
    cfg.write_text("{}", encoding="utf-8")
    return OpRunner(WORKLOADS["csv-run"], cfg, tmp_path, cli, limits, reference)


def test_perturbed_result_csv_counts_as_failed_op(tmp_path):
    perturbed = METRICS.replace(",4,900,", ",5,900,")
    runner = _runner(tmp_path, FakeCli([METRICS, perturbed]))
    assert runner.run(None)["problems"] == []
    problems = runner.run(None)["problems"]
    assert problems == ["metrics.csv differs from the first op of this run"]


def test_mismatch_with_the_seed_reference_counts_as_failed_op(tmp_path):
    ref_file = tmp_path / "ref.csv"
    ref_file.write_text(METRICS, encoding="utf-8")
    reference = {"metrics.csv": digest(ref_file)}
    assert _runner(tmp_path, FakeCli([METRICS]), reference).run(None)["problems"] == []
    perturbed = METRICS + "\n"
    problems = _runner(tmp_path, FakeCli([perturbed]), reference).run(None)["problems"]
    assert problems == ["metrics.csv differs from the reference for this seed"]


def test_cost_above_budget_plus_max_price_counts_as_failed_op(tmp_path):
    limits = Limits(cost_cap=899, total_price=5000, log_rows=20)
    problems = _runner(tmp_path, FakeCli([METRICS]), limits=limits).run(None)["problems"]
    assert problems == ["metrics.csv line 2: cost 900 > budget + max price 899"]


def test_row_invariants_fail_where_the_budget_never_binds(tmp_path):
    never_binds = Limits(cost_cap=10**12, total_price=899, log_rows=20)
    problems = _runner(tmp_path, FakeCli([METRICS]), limits=never_binds).run(None)["problems"]
    assert problems == ["metrics.csv line 2: cost 900 > total market price 899"]
    more_conv_than_clk = METRICS.replace(",5,4,", ",5,6,")
    problems = _runner(tmp_path, FakeCli([more_conv_than_clk])).run(None)["problems"]
    assert problems == ["metrics.csv line 2: conv 6, clk 5, imp 10 break "
                        "conv <= clk <= imp <= 20 log rows"]
    few_rows = Limits(cost_cap=1000, total_price=5000, log_rows=9)
    assert len(_runner(tmp_path, FakeCli([METRICS]), limits=few_rows).run(None)["problems"]) == 1


def test_nonzero_exit_and_exception_count_as_failed_ops(tmp_path):
    assert _runner(tmp_path, FakeCli([METRICS], rc=2)).run(None)["problems"][0].startswith(
        "exit code 2")

    def boom(argv):
        raise ValueError("bad")

    assert _runner(tmp_path, boom).run(None)["problems"][0] == "raised ValueError: bad"


def test_missing_output_file_counts_as_failed(tmp_path):
    digests, problems = check_op(tmp_path, ("sweep.csv",), LIMITS, None, None)
    assert digests == {} and problems == ["sweep.csv missing"]


def test_many_row_violations_are_summarised(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("imp,clk,conv,cost\n" + "1,1,1,5\n" * 10, encoding="utf-8")
    problems = row_violations(path, Limits(cost_cap=4, total_price=100, log_rows=20))
    assert problems[:3] == [f"metrics.csv line {n}: cost 5 > budget + max price 4" for n in (2, 3, 4)]
    assert problems[3:] == ["metrics.csv: 7 more rows fail the row checks"]


def test_unreadable_counts_count_as_a_violation(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("imp,clk,conv,cost\n1,1,,5\n", encoding="utf-8")
    assert row_violations(path, LIMITS) == ["metrics.csv line 2: unreadable imp/clk/conv/cost"]


def test_rows_without_cost_column_are_not_cost_checked(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("controller,p,trials,mean_conv\nmlp,0.1,2,3.0\n", encoding="utf-8")
    assert row_violations(path, Limits(cost_cap=0, total_price=0, log_rows=0)) == []


# -- call points --------------------------------------------------------------

def _tiny_run(tmp_path) -> list[str]:
    cfg = {"controllers": [{"kind": "mlp"}, {"kind": "pid"}],
           "constraints": {"ppc_expected": 15,
                           "kpis": [{"kind": "ppc_target", "target": 4400, "error_weight": 1.0}]},
           "sim": {"budget": 10**12, "period_mode": "count", "period_bids": 100,
                   "period_ms": 900000, "dropout_p": 0.5, "dropout_seed": 0},
           "log": {"synthetic": {"n_records": 1000, "ctr_true": 0.6, "cvr_true": 0.8,
                                 "price_log_mean": 8.19, "price_log_sigma": 0.8,
                                 "pctr_noise": 0.02, "pcvr_noise": 0.02, "seed": 1}},
           "trials": 1, "base_seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return ["run", "--config", str(path), "--out", str(tmp_path / "out")]


def test_traced_run_records_every_layer_and_restores_the_program(tmp_path):
    originals = (rtblab.harness.run_campaign, rtblab.auction.run_period, BidLog.segment)
    tracer = Tracer()
    tracer.install(CALL_POINTS)
    tracer.op = 0
    try:
        assert tracer.call("cli.main", rtblab.cli.main, (_tiny_run(tmp_path),), {}) == 0
    finally:
        tracer.uninstall()
    assert (rtblab.harness.run_campaign, rtblab.auction.run_period, BidLog.segment) == originals
    assert tracer.unmeasured == {}
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "harness.driver", "harness.load_log", "harness.build_controller",
            "auction.run_campaign", "auction.apply_dropout", "auction.run_period",
            "data.filter", "data.segment", "data.generate_synthetic",
            "controller.mlp.begin", "baselines.pid.end"} <= names

    ops = [{"seconds": 0.1, "problems": [], "output_bytes": 100}]
    m = layer_metrics(tracer.spans, ops, 0.1)
    assert set(m) == set(PER_LAYER)
    assert m["auction.campaign_calls"] == 2
    assert m["auction.periods"] == m["auction.run_period_calls"] == m["data.segment_calls"]
    assert m["auction.dropout_rows_drawn"] == 2000
    assert m["auction.dropout_useful_frac"] == pytest.approx(1.0)   # budget never binds
    assert sum(m[f"{layer}.self_share"] for layer in
               ("data", "auction", "controller", "baselines", "harness", "cli")) == pytest.approx(1.0)


def test_missing_call_point_is_reported_unmeasured_and_run_continues(tmp_path):
    gone = (CallPoint("auction.kernel", "rtblab.auction", "no_such_kernel"),
            CallPoint("data.columns", "rtblab.data", "BidLog.no_such_method"),
            CallPoint("engine.cells", "rtblab.no_such_module", "cells"))
    tracer = Tracer()
    tracer.install(CALL_POINTS + gone)
    tracer.op = 0
    try:
        assert tracer.call("cli.main", rtblab.cli.main, (_tiny_run(tmp_path),), {}) == 0
    finally:
        tracer.uninstall()
    assert set(tracer.unmeasured) == {"auction.kernel", "data.columns", "engine.cells"}
    m = layer_metrics(tracer.spans, [{"seconds": 0.1, "problems": [], "output_bytes": 1}], 0.1)
    assert set(m) == set(PER_LAYER)


def test_periods_are_counted_from_the_campaign_call_point(tmp_path):
    argv = _tiny_run(tmp_path)
    cfg = Path(argv[argv.index("--config") + 1])
    runner = OpRunner(WORKLOADS["csv-run"], cfg, tmp_path, rtblab.cli.main,
                      Limits(cost_cap=10**13, total_price=10**13, log_rows=1000), None)
    op, periods, why = count_periods(runner)
    assert op["problems"] == [] and why == ""
    trace_rows = (tmp_path / "out" / "trace.csv").read_text(encoding="utf-8").count("\n") - 1
    assert periods == trace_rows > 2    # trace.csv has one row per period of each campaign
    assert rtblab.harness.run_campaign.__name__ == "run_campaign"   # unwrapped again


def test_uncountable_periods_read_none_not_zero(tmp_path):
    op, periods, why = count_periods(_runner(tmp_path, FakeCli([METRICS])))
    assert op["problems"] == [] and periods is None
    assert why == "auction.run_campaign: no campaign was seen"


# -- the benchmark's declaration ----------------------------------------------

def test_campaigns_per_op_match_the_workload_configs():
    for workload in WORKLOADS.values():
        cfg = experiment_config(workload, 0, "log.csv")
        per_cell = len(cfg["controllers"]) * cfg["trials"]
        cells = {"sweep-sparsity": len(cfg.get("p_list", ())), "ablation": 4, "run": 1}
        assert workload.campaigns_per_op == per_cell * cells[workload.command]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "op_s_p50", "rows_per_s", "campaigns_per_s", "periods_per_s", "peak_rss_mb"}
