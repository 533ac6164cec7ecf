"""Experiment driver: single runs, feature ablations, and sparsity sweeps.

Every run resolves to a manifest (JSON) holding the full specification and
seeds; re-running from a manifest reproduces all CSV outputs byte for
byte.  Per-trial raw results are always written next to aggregates so
reported confidence intervals can be recomputed from the emitted data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .auction import CampaignResult, PeriodMode, SimConfig, run_campaign
from .baselines import FixedBidController, PidConfig, PidController
from .controller import (
    BudgetErrorMode,
    FeatureSet,
    MlpBidController,
    MlpControllerConfig,
)
from .core import ConfigurationError, ConstraintSet, KpiConstraint, KpiKind
from .data import BidLog, SynthConfig, generate_synthetic

CONTROLLER_KINDS = ("mlp", "pid", "fixed")

# Reference benchmark presets (budget fen, expected PPC fen)
PRESETS = {
    "adequate": {"budget": 182_344, "ppc": 1800},
    "tight": {"budget": 22_793, "ppc": 1800},
}


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class ControllerSpec:
    kind: str
    name: str = ""
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CONTROLLER_KINDS:
            raise ConfigurationError(f"unknown controller kind {self.kind!r}, expected one of {CONTROLLER_KINDS}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


@dataclass(frozen=True)
class ExperimentSpec:
    controllers: tuple[ControllerSpec, ...]
    constraints: ConstraintSet
    sim: SimConfig
    log_path: str | None = None
    synth: SynthConfig | None = None
    trials: int = 1
    base_seed: int = 0
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if (self.log_path is None) == (self.synth is None):
            raise ConfigurationError("specify exactly one log source (log_path or synth)")
        if not self.controllers:
            raise ConfigurationError("need at least one controller")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")


def build_controller(cspec: ControllerSpec, constraints: ConstraintSet, seed: int):
    params = dict(cspec.params)
    if cspec.kind == "mlp":
        params.pop("rng_seed", None)
        if "feature_set" in params:
            params["feature_set"] = FeatureSet(params["feature_set"])
        if "budget_error_mode" in params:
            params["budget_error_mode"] = BudgetErrorMode(params["budget_error_mode"])
        return MlpBidController(constraints, MlpControllerConfig(rng_seed=seed, **params))
    if cspec.kind == "pid":
        return PidController(constraints, PidConfig(**params))
    return FixedBidController(**params) if params else FixedBidController()


def load_log(spec: ExperimentSpec) -> BidLog:
    if spec.log_path is not None:
        path = Path(spec.log_path)
        if not path.exists():
            raise ConfigurationError(f"log file not found: {path}")
        return BidLog.from_csv(path)
    assert spec.synth is not None
    return generate_synthetic(spec.synth)


def _controller_seed(spec: ExperimentSpec, cspec: ControllerSpec, trial: int, idx: int) -> int:
    base = cspec.params.get("rng_seed", spec.base_seed)
    return derive_seed(int(base), trial, idx)


def _trial_sim(spec: ExperimentSpec, trial: int) -> SimConfig:
    if spec.sim.dropout_p == 0.0:
        return spec.sim
    return replace(spec.sim, dropout_seed=derive_seed(spec.base_seed, trial))


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


_ERROR_COLUMNS = {KpiKind.PPC_TARGET: "e_ppc", KpiKind.BUDGET: "e_budget"}


def _trace_rows(name: str, trial: int, result: CampaignResult,
                constraints: ConstraintSet) -> list[list]:
    rows = []
    kinds = [c.kind for c in constraints.constraints]
    for t in result.trace:
        by_kind = dict(zip(kinds, t.errors))
        rows.append([
            name, trial, t.period, t.u,
            by_kind.get(KpiKind.PPC_TARGET), by_kind.get(KpiKind.BUDGET),
            t.j, t.feedback.conversions, t.feedback.cost,
        ])
    return rows


def _metrics_row(result: CampaignResult) -> list:
    m = result.metrics
    return [m.imp, m.clk, m.conv, m.cost, m.ppc]


# ---------------------------------------------------------------------------
# Spec <-> JSON

def constraints_to_dict(cs: ConstraintSet) -> dict:
    return {
        "ppc_expected": cs.ppc_expected,
        "kpis": [
            {"kind": c.kind.value, "target": c.target, "error_weight": c.error_weight}
            for c in cs.constraints
        ],
    }


def constraints_from_dict(d: Mapping) -> ConstraintSet:
    kpis = tuple(
        KpiConstraint(KpiKind(k["kind"]), int(k["target"]), float(k.get("error_weight", 1.0)))
        for k in d["kpis"]
    )
    return ConstraintSet(constraints=kpis, ppc_expected=int(d["ppc_expected"]))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    sim = spec.sim
    out: dict = {
        "controllers": [
            {"kind": c.kind, "name": c.name, "params": dict(c.params)}
            for c in spec.controllers
        ],
        "constraints": constraints_to_dict(spec.constraints),
        "sim": {
            "budget": sim.budget,
            "period_mode": sim.period_mode.value,
            "period_bids": sim.period_bids,
            "period_ms": sim.period_ms,
            "dropout_p": sim.dropout_p,
            "dropout_seed": sim.dropout_seed,
        },
        "trials": spec.trials,
        "base_seed": spec.base_seed,
        "out_dir": spec.out_dir,
    }
    if spec.log_path is not None:
        out["log"] = {"path": spec.log_path}
    else:
        assert spec.synth is not None
        s = spec.synth
        out["log"] = {"synthetic": {
            "n_records": s.n_records, "ctr_true": s.ctr_true, "cvr_true": s.cvr_true,
            "price_log_mean": s.price_log_mean, "price_log_sigma": s.price_log_sigma,
            "pctr_noise": s.pctr_noise, "pcvr_noise": s.pcvr_noise, "seed": s.seed,
        }}
    return out


def _section(d: Mapping, name: str) -> Mapping:
    if name not in d:
        raise ConfigurationError(f"config has no {name!r} section")
    if not isinstance(d[name], Mapping):
        raise ConfigurationError(f"config section {name!r} must be an object, "
                                 f"got {type(d[name]).__name__}")
    return d[name]


def spec_from_dict(d: Mapping) -> ExperimentSpec:
    if "spec" in d:  # accept a manifest as a config
        d = _section(d, "spec")
    log = _section(d, "log")
    log_path = log.get("path")
    synth = SynthConfig(**log["synthetic"]) if "synthetic" in log else None
    sim_d = _section(d, "sim")
    sim = SimConfig(
        budget=int(sim_d["budget"]),
        period_mode=PeriodMode(sim_d.get("period_mode", "count")),
        period_bids=int(sim_d.get("period_bids", 1000)),
        period_ms=int(sim_d.get("period_ms", 900_000)),
        dropout_p=float(sim_d.get("dropout_p", 0.0)),
        dropout_seed=int(sim_d.get("dropout_seed", 0)),
    )
    controllers = tuple(
        ControllerSpec(kind=c["kind"], name=c.get("name", ""), params=c.get("params", {}))
        for c in d["controllers"]
    )
    return ExperimentSpec(
        controllers=controllers,
        constraints=constraints_from_dict(_section(d, "constraints")),
        sim=sim,
        log_path=log_path,
        synth=synth,
        trials=int(d.get("trials", 1)),
        base_seed=int(d.get("base_seed", 0)),
        out_dir=d.get("out_dir", "out"),
    )


def _write_manifest(path: Path, command: str, spec: ExperimentSpec, extra: dict | None = None) -> None:
    doc = {"command": command, "spec": spec_to_dict(spec)}
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Drivers

def run_experiment(spec: ExperimentSpec) -> dict[str, Path]:
    """Run every configured controller over the log; write metrics, per-period
    traces, and the manifest."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = load_log(spec)
    metrics_rows: list[list] = []
    trace_rows: list[list] = []
    for trial in range(spec.trials):
        sim = _trial_sim(spec, trial)
        for idx, cspec in enumerate(spec.controllers):
            controller = build_controller(cspec, spec.constraints,
                                          _controller_seed(spec, cspec, trial, idx))
            result = run_campaign(log, controller, spec.constraints, sim)
            metrics_rows.append([cspec.name, trial] + _metrics_row(result))
            trace_rows.extend(_trace_rows(cspec.name, trial, result, spec.constraints))
    paths = {
        "metrics": out / "metrics.csv",
        "trace": out / "trace.csv",
        "manifest": out / "manifest.json",
    }
    _write_csv(paths["metrics"],
               ["controller", "trial", "imp", "clk", "conv", "cost", "ppc"], metrics_rows)
    _write_csv(paths["trace"],
               ["controller", "trial", "period", "u", "e_ppc", "e_budget", "j", "conv", "cost"],
               trace_rows)
    _write_manifest(paths["manifest"], "run", spec)
    return paths


def sweep_sparsity(spec: ExperimentSpec, p_list: Sequence[float]) -> dict[str, Path]:
    """Replay the experiment across dropout levels with repeated trials.

    Within a trial the dropout mask is seeded by (base_seed, trial) only, so
    every controller sees the same thinned stream and the same trial shares
    underlying randomness across dropout levels.
    """
    for p in p_list:
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError(f"dropout level {p} outside [0, 1]")
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = load_log(spec)
    raw_rows: list[list] = []
    summary_rows: list[list] = []
    for p in p_list:
        per_controller: dict[str, list[int]] = {c.name: [] for c in spec.controllers}
        for trial in range(spec.trials):
            mask_seed = derive_seed(spec.base_seed, trial)
            sim = replace(spec.sim, dropout_p=float(p), dropout_seed=mask_seed)
            for idx, cspec in enumerate(spec.controllers):
                controller = build_controller(cspec, spec.constraints,
                                              _controller_seed(spec, cspec, trial, idx))
                result = run_campaign(log, controller, spec.constraints, sim)
                per_controller[cspec.name].append(result.metrics.conv)
                raw_rows.append([cspec.name, float(p), trial, result.records]
                                + _metrics_row(result))
        for cspec in spec.controllers:
            conv = np.array(per_controller[cspec.name], dtype=float)
            mean = float(conv.mean())
            s = float(conv.std(ddof=1)) if len(conv) > 1 else 0.0
            half = 1.96 * s / math.sqrt(len(conv))
            summary_rows.append([cspec.name, float(p), len(conv), mean,
                                 mean - half, mean + half])
    paths = {
        "sweep": out / "sweep.csv",
        "trials": out / "sweep_trials.csv",
        "manifest": out / "sweep_manifest.json",
    }
    _write_csv(paths["sweep"],
               ["controller", "p", "trials", "mean_conv", "ci_low", "ci_high"], summary_rows)
    _write_csv(paths["trials"],
               ["controller", "p", "trial", "records", "imp", "clk", "conv", "cost", "ppc"],
               raw_rows)
    _write_manifest(paths["manifest"], "sweep-sparsity", spec,
                    {"p_list": [float(p) for p in p_list]})
    return paths


ABLATION_ORDER = (FeatureSet.NONE, FeatureSet.POSTERIOR, FeatureSet.PRIOR, FeatureSet.FULL)


def run_ablation(spec: ExperimentSpec) -> dict[str, Path]:
    """Run the same experiment under each feature set with identical seeds."""
    if len(spec.controllers) != 1 or spec.controllers[0].kind != "mlp":
        raise ConfigurationError("ablation requires exactly one mlp controller")
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = load_log(spec)
    base = spec.controllers[0]
    rows: list[list] = []
    for feature_set in ABLATION_ORDER:
        params = dict(base.params)
        params["feature_set"] = feature_set.value
        cspec = ControllerSpec(kind="mlp", name=base.name, params=params)
        for trial in range(spec.trials):
            sim = _trial_sim(spec, trial)
            controller = build_controller(cspec, spec.constraints,
                                          _controller_seed(spec, base, trial, 0))
            result = run_campaign(log, controller, spec.constraints, sim)
            rows.append([feature_set.value, trial] + _metrics_row(result))
    paths = {
        "ablation": out / "ablation.csv",
        "manifest": out / "ablation_manifest.json",
    }
    _write_csv(paths["ablation"],
               ["feature_set", "trial", "imp", "clk", "conv", "cost", "ppc"], rows)
    _write_manifest(paths["manifest"], "ablation", spec)
    return paths
