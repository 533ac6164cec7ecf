"""Command-line entry point.

Subcommands: run, sweep-sparsity, ablation, gen-synthetic, convert-ipinyou.
An experiment is described either by a JSON config file (the schema the
manifest uses, so a manifest re-runs as-is) or by spec flags, which become
a config document of the same schema; ``spec_from_dict`` reads both.  Only
--out, --trials and --p-list may be given with --config.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .auction import SimConfig
from .core import ConfigurationError
from .data import (
    ColumnMap,
    LogFormatError,
    SynthConfig,
    convert_ipinyou,
    generate_synthetic,
    is_plain_number,
    serialize_canonical,
)
from .harness import (
    CONTROLLER_KINDS,
    PRESETS,
    SWEEP_TRIALS,
    ExperimentSpec,
    levels_from_dict,
    run_ablation,
    run_experiment,
    spec_from_dict,
    sweep_sparsity,
    synth_from_dict,
)

# gen-synthetic's optional flags: (flag, SynthConfig field, help); each
# default is the field's.
_SYNTH_FLAGS = (("--ctr", "ctr_true", "true click rate"),
                ("--cvr", "cvr_true", "true conversion rate per click"),
                ("--price-log-mean", "price_log_mean", "log-normal price mu"),
                ("--price-log-sigma", "price_log_sigma", "log-normal price sigma"),
                ("--pctr-noise", "pctr_noise", "multiplicative pCTR noise scale"),
                ("--pcvr-noise", "pcvr_noise", "multiplicative pCVR noise scale"),
                ("--seed", "seed", "generator seed"))


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, and its subparsers', are the one-line exit."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _number(kind: type):
    """An argparse type that reads a flag as a log field is read."""
    def read(text: str):
        if is_plain_number(text):
            try:
                return kind(text)
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
    return read


_INT, _FLOAT = _number(int), _number(float)


def _add_spec_flags(p: argparse.ArgumentParser, trials: int = ExperimentSpec.trials) -> None:
    """The spec flags; ``trials`` is the command's default number of trials."""
    p.add_argument("--config", help="JSON experiment config or a previously written manifest; "
                                    "only --out, --trials and --p-list may be given with it")
    p.add_argument("--log", help="canonical bid-log CSV to replay")
    p.add_argument("--synthetic", type=_INT, metavar="N",
                   help="generate an N-record synthetic log instead of reading one")
    p.add_argument("--synth-seed", type=_INT,
                   help=f"synthetic log seed (default {SynthConfig.seed})")
    p.add_argument("--controller", action="append", choices=CONTROLLER_KINDS,
                   help="controller to run; repeat the flag to compare several (default: mlp)")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="benchmark preset: " + " or ".join(
                       f"{name} (budget {preset['budget']}, PPC {preset['ppc']})"
                       for name, preset in sorted(PRESETS.items())))
    p.add_argument("--budget", type=_INT, help="campaign budget in fen")
    p.add_argument("--ppc-target", type=_INT, help="PPC constraint target in fen")
    p.add_argument("--ppc-expected", type=_INT,
                   help="expected PPC used in bid pricing (default: the PPC target)")
    p.add_argument("--multi", action="store_const", const=True,
                   help="track budget as a KPI as well as PPC (default: PPC only)")
    p.add_argument("--period-bids", type=_INT,
                   help=f"opportunities per control period (default {SimConfig.period_bids})")
    p.add_argument("--period-ms", type=_INT, metavar="MS",
                   help="batch periods by wall-clock window of MS milliseconds "
                        "instead of by bid count (900000 for 15-minute periods)")
    p.add_argument("--dropout", type=_FLOAT,
                   help=f"probability of dropping each record (default {SimConfig.dropout_p})")
    p.add_argument("--trials", type=_INT,
                   help=f"repeated trials (default {trials})")
    p.add_argument("--seed", type=_INT, help=f"base seed (default {ExperimentSpec.base_seed})")
    p.add_argument("--out", help="output directory (default ./out)")


def _given(**fields) -> dict:
    return {key: value for key, value in fields.items() if value is not None}


def _flags_doc(args: argparse.Namespace) -> dict:
    """The config document the spec flags describe.  A flag that was not
    given is left out, so the dataclass that reads it supplies the default."""
    preset = PRESETS.get(args.preset, {})
    budget = args.budget if args.budget is not None else preset.get("budget")
    ppc_target = args.ppc_target if args.ppc_target is not None else preset.get("ppc")
    ppc_expected = args.ppc_expected if args.ppc_expected is not None else ppc_target
    if args.preset:
        print(f"preset {args.preset}: budget={budget} ppc_expected={ppc_expected}")
    if budget is None or ppc_target is None:
        raise ConfigurationError("need --budget and --ppc-target (or --preset / --config)")
    if (args.log is None) == (args.synthetic is None):
        raise ConfigurationError("specify exactly one of --log / --synthetic")
    if args.period_bids is not None and args.period_ms is not None:
        raise ConfigurationError("give one of --period-bids / --period-ms, not both")
    kpis = [{"kind": "ppc_target", "target": ppc_target}]
    if args.multi:
        kpis.append({"kind": "budget", "target": budget})
    return _given(
        log=({"path": args.log} if args.log is not None else
             {"synthetic": _given(n_records=args.synthetic, seed=args.synth_seed)}),
        sim=_given(budget=budget, period_bids=args.period_bids, period_ms=args.period_ms,
                   period_mode="wall_clock" if args.period_ms is not None else None,
                   dropout_p=args.dropout),
        controllers=[{"kind": kind} for kind in args.controller or ["mlp"]],
        constraints={"ppc_expected": ppc_expected, "kpis": kpis},
        base_seed=args.seed,
    )


def _load_doc(args: argparse.Namespace) -> dict:
    """The command's config document: the --config file, or the document
    its spec flags describe."""
    if not args.config:
        return _flags_doc(args)
    spec_flags = argparse.ArgumentParser(add_help=False)  # the flags --config describes instead
    _add_spec_flags(spec_flags)
    given = [action.option_strings[0] for action in spec_flags._actions
             if action.option_strings[0] not in ("--config", "--out", "--trials")
             and getattr(args, action.dest) is not None]
    if given:
        raise ConfigurationError(f"{', '.join(given)} cannot be given with --config; "
                                 f"only --out, --trials and --p-list can")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
            raise ConfigurationError(f"config {args.config}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {args.config}: must be a JSON object, "
                                 f"got {type(doc).__name__}")
    if "spec" in doc and doc.get("command") != args.command:
        raise ConfigurationError(f"config {args.config}: a manifest of command "
                                 f"{doc.get('command')!r} cannot be run by {args.command!r}")
    return doc


def _build_spec(args: argparse.Namespace, doc: dict,
                trials: int = ExperimentSpec.trials) -> ExperimentSpec:
    """The spec of ``doc`` (``trials`` if it names none), then --out and --trials."""
    return replace(spec_from_dict(doc, trials), **_given(out_dir=args.out, trials=args.trials))


def _cmd_experiment(args: argparse.Namespace) -> int:
    paths = args.driver(_build_spec(args, _load_doc(args)))
    print("wrote " + " ".join(str(path) for path in paths.values()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = _load_doc(args)
    p_list = levels_from_dict(doc)
    doc.pop("p_list", None)  # the sweep's own key, which spec_from_dict rejects
    if args.p_list is not None:
        p_list = args.p_list
    spec = _build_spec(args, doc, SWEEP_TRIALS)
    if spec.sim.dropout_p != 0.0 and "spec" not in doc:  # a manifest re-runs as written
        raise ConfigurationError("a sweep's dropout levels replace sim.dropout_p (--dropout); "
                                 "leave it at 0 and list the levels in p_list (--p-list)")
    paths = sweep_sparsity(spec, p_list)
    print("wrote " + " ".join(str(path) for path in paths.values()))
    return 0


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    given = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in _SYNTH_FLAGS}
    config = synth_from_dict(_given(n_records=args.n, **given), "gen-synthetic")
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
    if not delimiter:
        raise ConfigurationError("--delimiter must not be empty")
    n = 0
    # The log is written beside --out and moved over it only once every row
    # passed, so a failed conversion leaves --out as it was.
    tmp = Path(f"{args.out}.{os.getpid()}.tmp")
    try:
        # surrogateescape: a byte that is not UTF-8 fails the field check of its line
        with open(args.infile, "r", encoding="utf-8", errors="surrogateescape") as src, \
                open(tmp, "w", encoding="utf-8", newline="") as dst:
            for line in convert_ipinyou(src, columns, delimiter, has_header=args.has_header):
                dst.write(line)
                n += 1
        os.replace(tmp, args.out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {args.out} ({n - 1} records)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rtblab",
        description="Desk-scale RTB lab: replay bid logs through a second-price "
                    "auction with feedback-controlled bid adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment condition")
    _add_spec_flags(p_run)
    p_run.set_defaults(func=_cmd_experiment, driver=run_experiment)

    p_sweep = sub.add_parser("sweep-sparsity", help="dropout sweep with repeated trials")
    _add_spec_flags(p_sweep, SWEEP_TRIALS)
    p_sweep.add_argument("--p-list",
                         type=lambda text: [_FLOAT(tok) for tok in text.split(",")],
                         help="comma-separated dropout levels "
                              "(default 0.1..0.9, or the list in the config/manifest)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_abl = sub.add_parser("ablation", help="compare extra-feature sets with identical seeds")
    _add_spec_flags(p_abl)
    p_abl.set_defaults(func=_cmd_experiment, driver=run_ablation)

    p_gen = sub.add_parser("gen-synthetic", help="write a seeded synthetic canonical log")
    p_gen.add_argument("--n", type=_INT, required=True, help="number of records")
    defaults = SynthConfig()
    for flag, name, what in _SYNTH_FLAGS:
        default = getattr(defaults, name)
        p_gen.add_argument(flag, type=_number(type(default)), help=f"{what} (default {default})")
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
    p_conv.add_argument("--col-ts", type=_INT, required=True, help="timestamp column index")
    p_conv.add_argument("--col-pctr", type=_INT, required=True, help="pCTR column index")
    p_conv.add_argument("--col-pcvr", type=_INT, required=True, help="pCVR column index")
    p_conv.add_argument("--col-price", type=_INT, required=True, help="paying-price column index")
    p_conv.add_argument("--col-click", type=_INT, required=True, help="click label column index")
    p_conv.add_argument("--col-conversion", type=_INT, required=True,
                        help="conversion label column index")
    p_conv.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, LogFormatError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises it as its subclass _ArrayMemoryError
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
