"""Command-line entry point.

Subcommands: run, sweep-sparsity, ablation, gen-synthetic, convert-ipinyou.
Experiments are described by a JSON config file (the same schema the
manifest uses, so a manifest re-runs as-is) plus flag overrides; flags are
enough on their own for the common cases.
"""
from __future__ import annotations

import argparse
import json
import sys

from .core import ConfigurationError, ConstraintSet
from .data import (
    ColumnMap,
    LogFormatError,
    SynthConfig,
    convert_ipinyou,
    generate_synthetic,
    serialize_canonical,
)
from .auction import PeriodMode
from .harness import (
    PRESETS,
    ControllerSpec,
    ExperimentSpec,
    SimConfig,
    run_ablation,
    run_experiment,
    spec_from_dict,
    sweep_sparsity,
)


def _add_spec_flags(p: argparse.ArgumentParser, default_trials: int = 1) -> None:
    p.add_argument("--config", help="JSON experiment config or a previously written manifest")
    p.add_argument("--log", help="canonical bid-log CSV to replay")
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="generate an N-record synthetic log instead of reading one")
    p.add_argument("--synth-seed", type=int, default=0, help="synthetic log seed (default 0)")
    p.add_argument("--controller", action="append", choices=["mlp", "pid", "fixed"],
                   help="controller to run; repeat the flag to compare several (default: mlp)")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="benchmark preset: adequate (budget 182344, PPC 1800) "
                        "or tight (budget 22793, PPC 1800)")
    p.add_argument("--budget", type=int, help="campaign budget in fen")
    p.add_argument("--ppc-target", type=int, help="PPC constraint target in fen")
    p.add_argument("--ppc-expected", type=int,
                   help="expected PPC used in bid pricing (default: the PPC target)")
    p.add_argument("--multi", action="store_true",
                   help="track budget as a KPI as well as PPC (default: PPC only)")
    p.add_argument("--period-bids", type=int, default=1000,
                   help="opportunities per control period (default 1000)")
    p.add_argument("--period-ms", type=int, metavar="MS",
                   help="batch periods by wall-clock window of MS milliseconds "
                        "instead of by bid count (900000 for 15-minute periods)")
    p.add_argument("--dropout", type=float, default=0.0,
                   help="probability of dropping each record (default 0)")
    p.add_argument("--trials", type=int,
                   help=f"repeated trials (default {default_trials})")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")


def _load_config_doc(args: argparse.Namespace) -> dict | None:
    if not args.config:
        return None
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
            raise ConfigurationError(f"config {args.config}: not a JSON document: {exc}") from None


def _dropout_levels(values) -> list[float]:
    levels = []
    for value in values:
        try:
            levels.append(float(value))
        except (TypeError, ValueError):
            raise ConfigurationError(f"dropout level {value!r} is not a number") from None
    return levels


def _build_spec(args: argparse.Namespace, default_trials: int = 1) -> ExperimentSpec:
    doc = _load_config_doc(args)
    if doc is not None:
        spec = spec_from_dict(doc)
        # flag overrides on top of the file
        if args.out != "out":
            spec = ExperimentSpec(**{**_spec_kwargs(spec), "out_dir": args.out})
        if args.trials is not None:
            spec = ExperimentSpec(**{**_spec_kwargs(spec), "trials": args.trials})
        return spec

    budget = args.budget
    ppc_target = args.ppc_target
    ppc_expected = args.ppc_expected
    if args.preset:
        preset = PRESETS[args.preset]
        budget = budget if budget is not None else preset["budget"]
        ppc_target = ppc_target if ppc_target is not None else preset["ppc"]
        print(f"preset {args.preset}: budget={budget} ppc_expected="
              f"{ppc_expected if ppc_expected is not None else ppc_target}")
    if budget is None or ppc_target is None:
        raise ConfigurationError("need --budget and --ppc-target (or --preset / --config)")
    if args.multi:
        constraints = ConstraintSet.ppc_and_budget(ppc_target, budget, ppc_expected)
    else:
        constraints = ConstraintSet.single_ppc(ppc_target, ppc_expected)

    if (args.log is None) == (args.synthetic is None):
        raise ConfigurationError("specify exactly one of --log / --synthetic")
    synth = (SynthConfig(n_records=args.synthetic, seed=args.synth_seed)
             if args.synthetic is not None else None)

    if args.period_ms is not None:
        sim = SimConfig(budget=budget, period_mode=PeriodMode.WALL_CLOCK,
                        period_ms=args.period_ms, dropout_p=args.dropout)
    else:
        sim = SimConfig(budget=budget, period_bids=args.period_bids, dropout_p=args.dropout)
    names = args.controller or ["mlp"]
    controllers = tuple(ControllerSpec(kind=k) for k in names)
    return ExperimentSpec(
        controllers=controllers,
        constraints=constraints,
        sim=sim,
        log_path=args.log,
        synth=synth,
        trials=args.trials if args.trials is not None else default_trials,
        base_seed=args.seed,
        out_dir=args.out,
    )


def _spec_kwargs(spec: ExperimentSpec) -> dict:
    return {
        "controllers": spec.controllers, "constraints": spec.constraints, "sim": spec.sim,
        "log_path": spec.log_path, "synth": spec.synth, "trials": spec.trials,
        "base_seed": spec.base_seed, "out_dir": spec.out_dir,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    paths = run_experiment(_build_spec(args))
    print(f"wrote {paths['metrics']} {paths['trace']} {paths['manifest']}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.p_list is not None:
        p_list = _dropout_levels(tok for tok in args.p_list.split(",") if tok)
    else:
        doc = _load_config_doc(args) or {}
        p_list = _dropout_levels(doc.get("p_list", [0.1 * k for k in range(1, 10)]))
    paths = sweep_sparsity(_build_spec(args, default_trials=100), p_list)
    print(f"wrote {paths['sweep']} {paths['trials']} {paths['manifest']}")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if len(spec.controllers) != 1 or spec.controllers[0].kind != "mlp":
        raise ConfigurationError("ablation runs the mlp controller only")
    paths = run_ablation(spec)
    print(f"wrote {paths['ablation']} {paths['manifest']}")
    return 0


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_records=args.n, ctr_true=args.ctr, cvr_true=args.cvr,
        price_log_mean=args.price_log_mean, price_log_sigma=args.price_log_sigma,
        pctr_noise=args.pctr_noise, pcvr_noise=args.pcvr_noise, seed=args.seed,
    )
    log = generate_synthetic(config)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        serialize_canonical(log, fh)
    print(f"wrote {args.out} ({len(log)} records)")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    columns = ColumnMap(ts=args.col_ts, pctr=args.col_pctr, pcvr=args.col_pcvr,
                        market_price=args.col_price, click=args.col_click,
                        conversion=args.col_conversion)
    delimiter = "\t" if args.delimiter == "tab" else args.delimiter
    n = 0
    with open(args.infile, "r", encoding="utf-8") as src, \
            open(args.out, "w", encoding="utf-8", newline="") as dst:
        for line in convert_ipinyou(src, columns, delimiter, has_header=args.has_header):
            dst.write(line)
            n += 1
    print(f"wrote {args.out} ({n - 1} records)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtblab",
        description="Desk-scale RTB lab: replay bid logs through a second-price "
                    "auction with feedback-controlled bid adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment condition")
    _add_spec_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-sparsity", help="dropout sweep with repeated trials")
    _add_spec_flags(p_sweep, default_trials=100)
    p_sweep.add_argument("--p-list",
                         help="comma-separated dropout levels "
                              "(default 0.1..0.9, or the list in the config/manifest)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_abl = sub.add_parser("ablation", help="compare extra-feature sets with identical seeds")
    _add_spec_flags(p_abl)
    p_abl.set_defaults(func=_cmd_ablation)

    p_gen = sub.add_parser("gen-synthetic", help="write a seeded synthetic canonical log")
    p_gen.add_argument("--n", type=int, required=True, help="number of records")
    p_gen.add_argument("--ctr", type=float, default=0.05, help="true click rate (default 0.05)")
    p_gen.add_argument("--cvr", type=float, default=0.2,
                       help="true conversion rate per click (default 0.2)")
    p_gen.add_argument("--price-log-mean", type=float, default=4.0,
                       help="log-normal price mu (default 4.0)")
    p_gen.add_argument("--price-log-sigma", type=float, default=0.8,
                       help="log-normal price sigma (default 0.8)")
    p_gen.add_argument("--pctr-noise", type=float, default=0.1,
                       help="multiplicative pCTR noise scale (default 0.1)")
    p_gen.add_argument("--pcvr-noise", type=float, default=0.1,
                       help="multiplicative pCVR noise scale (default 0.1)")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.set_defaults(func=_cmd_gen_synthetic)

    p_conv = sub.add_parser("convert-ipinyou",
                            help="re-map a raw delimited log into the canonical format")
    p_conv.add_argument("--in", dest="infile", required=True, help="raw input file")
    p_conv.add_argument("--out", required=True, help="canonical output CSV path")
    p_conv.add_argument("--delimiter", default="tab",
                        help="field delimiter of the raw file ('tab' or a literal, default tab)")
    p_conv.add_argument("--has-header", action="store_true",
                        help="skip the first input line")
    p_conv.add_argument("--col-ts", type=int, required=True, help="timestamp column index")
    p_conv.add_argument("--col-pctr", type=int, required=True, help="pCTR column index")
    p_conv.add_argument("--col-pcvr", type=int, required=True, help="pCVR column index")
    p_conv.add_argument("--col-price", type=int, required=True, help="paying-price column index")
    p_conv.add_argument("--col-click", type=int, required=True, help="click label column index")
    p_conv.add_argument("--col-conversion", type=int, required=True,
                        help="conversion label column index")
    p_conv.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, LogFormatError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
