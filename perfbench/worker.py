"""One benchmark process: set up one workload, run timed ops, check outputs.

``run.py`` starts this script in a fresh process per set-up sample and per
measuring run, with ``src/`` on ``PYTHONPATH`` and BLAS threads pinned to 1
in the child's environment only.  It prints ``ready`` once the workload's
inputs exist (``run.py`` times set-up up to that line from outside, so the
interpreter start and ``import rtblab`` are included), then, unless
``--setup-only``, runs the ops and writes its raw results to ``--result``.

With ``--trace 1`` half of the time runs untraced ops and half runs ops
with every call point traced; set-up is traced too, since it is the only
place csv-run serializes.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from outputs import Limits, check_op, load_references
from spans import CALL_POINTS, CAMPAIGN_POINT, Totals, Tracer, self_times, totals, write_spans
from workloads import WORKLOADS, Workload, experiment_config, gen_synthetic_argv, synth_config

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("data", "auction", "controller", "baselines", "harness", "cli")

# Every per-layer metric with its unit and which direction is better.
PER_LAYER = {
    "data.parse_s": ("s", "lower"),
    "data.parse_rows_per_s": ("1/s", "higher"),
    "data.serialize_s": ("s", "lower"),
    "data.serialize_rows_per_s": ("1/s", "higher"),
    "data.generate_s": ("s", "lower"),
    "data.filter_calls": ("count", "lower"),
    "data.filter_rows_in": ("count", "lower"),
    "data.filter_s": ("s", "lower"),
    "data.segment_calls": ("count", "lower"),
    "data.segment_s": ("s", "lower"),
    "auction.dropout_calls": ("count", "lower"),
    "auction.dropout_s": ("s", "lower"),
    "auction.dropout_rows_drawn": ("count", "lower"),
    "auction.rows_consumed": ("count", "lower"),
    "auction.dropout_useful_frac": ("ratio", "higher"),
    "auction.run_period_calls": ("count", "lower"),
    "auction.run_period_us_per_call": ("us", "lower"),
    "auction.replay_rows_per_s": ("1/s", "higher"),
    "auction.campaign_calls": ("count", "lower"),
    "auction.periods": ("count", "lower"),
    "auction.terminated_frac": ("ratio", "lower"),
    "auction.campaign_self_us_per_period": ("us", "lower"),
    "controller.mlp.begin_us_per_period": ("us", "lower"),
    "controller.mlp.end_us_per_period": ("us", "lower"),
    "controller.mlp.periods": ("count", "lower"),
    "baselines.pid.us_per_period": ("us", "lower"),
    "baselines.fixed.us_per_period": ("us", "lower"),
    "harness.load_log_s": ("s", "lower"),
    "harness.build_controller_calls": ("count", "lower"),
    "harness.build_controller_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.output_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "data.parse_share": ("ratio", "lower"),
    "auction.dropout_share": ("ratio", "lower"),
    "auction.per_period_share": ("ratio", "lower"),
    "bench.op_s_p50_untraced": ("s", "lower"),
    "bench.op_s_p50_traced": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.spans_per_op": ("count", "lower"),
}


def _run_cli(cli_main, argv: list[str], tracer: Tracer | None) -> tuple[float, list[str]]:
    """Run one CLI command in-process; returns its seconds and any problems."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call("cli.main", cli_main, (argv,), {})
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        seconds = time.perf_counter() - start
        return seconds, [f"raised {type(exc).__name__}: {exc}",
                         traceback.format_exc(limit=-3).strip()]
    seconds = time.perf_counter() - start
    if rc != 0:
        return seconds, [f"exit code {rc}: {sink.getvalue().strip()[-300:]}"]
    return seconds, []


def prepare(workload: Workload, seed: int, work: Path, cli_main) -> Path:
    """Write the workload's inputs through the program; returns the config path."""
    log_path = None
    if workload.csv_log:
        log_path = work / "log.csv"
        _, problems = _run_cli(cli_main, gen_synthetic_argv(workload, seed, str(log_path)), None)
        if problems:
            raise RuntimeError(f"gen-synthetic failed: {problems[0]}")
        log_path = str(log_path)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(experiment_config(workload, seed, log_path), indent=1),
                   encoding="utf-8")
    return cfg


def limits(rtblab, workload: Workload, seed: int) -> Limits:
    """What every result row of the workload's log must stay within."""
    log = rtblab.data.generate_synthetic(rtblab.data.SynthConfig(**synth_config(workload, seed)))
    prices = log.market_price.astype("int64")
    return Limits(cost_cap=workload.budget + int(prices.max()),
                  total_price=int(prices.sum()), log_rows=len(log))


class OpRunner:
    """Runs and checks ops of one workload, accumulating their results."""

    def __init__(self, workload: Workload, cfg: Path, work: Path, cli_main,
                 limits: Limits, reference: dict | None):
        self.workload = workload
        self.cfg = cfg
        self.out = work / "out"
        self.cli_main = cli_main
        self.limits = limits
        self.reference = reference   # file name -> sha256, or None
        self.first: dict | None = None
        self.next_op = 0

    def run(self, tracer: Tracer | None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        if tracer is not None:
            tracer.op = self.next_op
        self.next_op += 1
        argv = [self.workload.command, "--config", str(self.cfg), "--out", str(self.out)]
        gc.collect()
        seconds, problems = _run_cli(self.cli_main, argv, tracer)
        output_bytes = sum(p.stat().st_size for p in self.out.glob("*") if p.is_file())
        if not problems:
            digests, problems = check_op(self.out, self.workload.checked_files,
                                         self.limits, self.first, self.reference)
            if self.first is None and not problems:
                self.first = digests
        return {"seconds": seconds, "problems": problems, "output_bytes": output_bytes}

    def run_for(self, budget_s: float, tracer: Tracer | None) -> list[dict]:
        """Run ops until the next one would end past ``budget_s``; at least one."""
        start = time.perf_counter()
        ops = [self.run(tracer)]
        while (time.perf_counter() - start
               + statistics.median(o["seconds"] for o in ops)) <= budget_s:
            ops.append(self.run(tracer))
        return ops


def count_periods(runner: OpRunner) -> tuple[dict, int | None, str]:
    """Run one untimed op with the campaign call point wrapped.

    Returns the op, the periods its campaigns replayed (None when they
    could not be counted) and why not.  Only reference recording and runs
    on a seed without a reference need this: no output file holds the
    number of periods.
    """
    counter = Tracer()
    counter.install([CAMPAIGN_POINT])
    try:
        op = runner.run(None)
    finally:
        counter.uninstall()
    camp = totals(counter.spans).get(CAMPAIGN_POINT.name)
    periods = camp.counts.get("periods", 0) if camp is not None else 0
    if counter.unmeasured or not periods:
        why = "; ".join(counter.unmeasured.values()) or "no campaign was seen"
        return op, None, f"{CAMPAIGN_POINT.name}: {why}"
    return op, periods, ""


def _p50(ops: list[dict]) -> float:
    ok = [o["seconds"] for o in ops if not o["problems"]] or [o["seconds"] for o in ops]
    return statistics.median(ok)


def layer_metrics(spans, ops: list[dict], untraced_p50: float) -> dict[str, float]:
    """Per-layer metrics from the traced ops' spans (set-up spans have op < 0).

    Times and counts are per op unless the name says otherwise.
    """
    op_spans = [s for s in spans if s.op >= 0]
    n = max(len(ops), 1)
    t_ops = totals(op_spans)
    t_all = totals(spans)

    def t(name: str, table=t_ops) -> Totals:
        return table.get(name) or Totals()

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_time = t("cli.main").seconds
    m: dict[str, float] = {}
    parse = t("data.from_csv")
    m["data.parse_s"] = parse.seconds / n
    m["data.parse_rows_per_s"] = rate(parse.counts.get("rows", 0), parse.seconds)
    ser = t("data.serialize_canonical", t_all)   # runs once per set-up
    m["data.serialize_s"] = rate(ser.seconds, ser.calls)
    m["data.serialize_rows_per_s"] = rate(ser.counts.get("rows", 0), ser.seconds)
    m["data.generate_s"] = t("data.generate_synthetic").seconds / n
    filt = t("data.filter")
    m["data.filter_calls"] = filt.calls / n
    m["data.filter_rows_in"] = filt.counts.get("rows", 0) / n
    m["data.filter_s"] = filt.seconds / n
    seg = t("data.segment")
    m["data.segment_calls"] = seg.calls / n
    m["data.segment_s"] = seg.seconds / n

    drop = t("auction.apply_dropout")
    period = t("auction.run_period")
    camp = t("auction.run_campaign")
    m["auction.dropout_calls"] = drop.calls / n
    m["auction.dropout_s"] = drop.seconds / n
    m["auction.dropout_rows_drawn"] = drop.counts.get("drawn", 0) / n
    m["auction.rows_consumed"] = period.counts.get("rows", 0) / n
    m["auction.dropout_useful_frac"] = _useful_frac(op_spans)
    m["auction.run_period_calls"] = period.calls / n
    m["auction.run_period_us_per_call"] = rate(period.seconds, period.calls) * 1e6
    m["auction.replay_rows_per_s"] = rate(period.counts.get("rows", 0), period.seconds)
    m["auction.campaign_calls"] = camp.calls / n
    m["auction.periods"] = camp.counts.get("periods", 0) / n
    m["auction.terminated_frac"] = rate(camp.counts.get("terminated", 0), camp.calls)
    m["auction.campaign_self_us_per_period"] = rate(camp.self_seconds,
                                                    camp.counts.get("periods", 0)) * 1e6

    begin, end = t("controller.mlp.begin"), t("controller.mlp.end")
    m["controller.mlp.begin_us_per_period"] = rate(begin.seconds, begin.calls) * 1e6
    m["controller.mlp.end_us_per_period"] = rate(end.seconds, end.calls) * 1e6
    m["controller.mlp.periods"] = begin.calls / n
    for kind in ("pid", "fixed"):
        b, e = t(f"baselines.{kind}.begin"), t(f"baselines.{kind}.end")
        m[f"baselines.{kind}.us_per_period"] = rate(b.seconds + e.seconds, b.calls) * 1e6

    m["harness.load_log_s"] = t("harness.load_log").seconds / n
    build = t("harness.build_controller")
    m["harness.build_controller_calls"] = build.calls / n
    m["harness.build_controller_s"] = build.seconds / n
    m["harness.self_s"] = t("harness.driver").self_seconds / n
    m["harness.output_bytes"] = statistics.mean(o["output_bytes"] for o in ops)
    m["cli.self_s"] = t("cli.main").self_seconds / n

    selfs = self_times(op_spans)
    for layer in LAYERS:
        layer_self = sum(selfs[s.id] for s in op_spans if s.layer == layer)
        m[f"{layer}.self_share"] = rate(layer_self, op_time)
    m["data.parse_share"] = rate(parse.seconds, op_time)
    m["auction.dropout_share"] = rate(drop.seconds, op_time)
    per_period = (period.seconds + seg.seconds + camp.self_seconds
                  + sum(v.seconds for k, v in t_ops.items()
                        if k.startswith(("controller.", "baselines."))))
    m["auction.per_period_share"] = rate(per_period, op_time)

    traced_p50 = _p50(ops)
    m["bench.op_s_p50_untraced"] = untraced_p50
    m["bench.op_s_p50_traced"] = traced_p50
    m["bench.trace_overhead_s"] = traced_p50 - untraced_p50
    m["bench.trace_overhead_frac"] = rate(traced_p50 - untraced_p50, untraced_p50)
    m["bench.spans_per_op"] = len(op_spans) / n
    return m


def _useful_frac(spans) -> float:
    """Share of the dropout-kept records that campaigns went on to replay.

    The rest of the kept stream, and the mask drawn for it, was never
    needed because the campaign stopped early.
    """
    kept: dict[int, int] = {}
    consumed: dict[int, int] = {}
    for s in spans:
        if s.name == "auction.apply_dropout" and s.counts.get("drawn") and s.parent is not None:
            kept[s.parent] = kept.get(s.parent, 0) + s.counts["kept"]
        elif s.name == "auction.run_period" and s.parent is not None:
            consumed[s.parent] = consumed.get(s.parent, 0) + s.counts.get("rows", 0)
    total_kept = sum(kept.values())
    return sum(consumed.get(c, 0) for c in kept) / total_kept if total_kept else 0.0


def import_program():
    """Import ``rtblab`` from this checkout's ``src/`` and nowhere else."""
    import numpy
    import rtblab
    import rtblab.cli
    import rtblab.data
    src = (ROOT / "src").resolve()
    if src not in Path(rtblab.__file__).resolve().parents:
        raise ImportError(f"rtblab imported from {rtblab.__file__}, not from {src}")
    return rtblab, numpy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="empty scratch directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, help="where the run's results go")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = Path(args.work)

    try:
        rtblab, numpy = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 3
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(CALL_POINTS)
    try:
        cfg = prepare(workload, args.seed, work, rtblab.cli.main)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = load_references().get(workload.name, {}).get(str(args.seed))
    runner = OpRunner(workload, cfg, work, rtblab.cli.main, limits(rtblab, workload, args.seed),
                      reference["files"] if reference else None)
    untraced = runner.run_for(args.seconds / 2 if tracer else args.seconds, None)
    result = {
        "numpy": numpy.__version__,
        "reference": reference is not None,
        "ops": untraced,
        "op_s_p50": _p50(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unmeasured": {},
        "campaigns_per_op": workload.campaigns_per_op,
    }
    if reference is not None:
        result["periods_per_op"] = reference["periods_per_op"]
    elif tracer is None:
        # Counted after the timed ops, so that they run as on a seed with a reference.
        op, result["periods_per_op"], result["periods_uncounted"] = count_periods(runner)
        result["counting_ops"] = [op]
    if tracer is not None:
        tracer.install(CALL_POINTS)
        traced = runner.run_for(args.seconds / 2, tracer)
        tracer.uninstall()
        result["traced_ops"] = traced
        result["layers"] = layer_metrics(tracer.spans, traced, result["op_s_p50"])
        result["unmeasured"].update(tracer.unmeasured)
        if args.spans_out:
            write_spans(tracer.spans, args.spans_out)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
