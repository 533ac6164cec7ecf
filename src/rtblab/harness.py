"""Experiment driver: single runs, feature ablations, and sparsity sweeps.

Every run resolves to a manifest (JSON) holding the full specification and
seeds; re-running from a manifest reproduces all CSV outputs byte for
byte.  Per-trial raw results are always written next to aggregates so
reported confidence intervals can be recomputed from the emitted data.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Collection, Iterator, Mapping, Sequence, get_type_hints

import numpy as np

from .auction import CampaignResult, SimConfig, run_campaign, shared_dropout
from .baselines import FixedBidController, PidConfig, PidController
from .controller import FeatureSet, MlpBidController, MlpControllerConfig
from .core import ConfigurationError, ConstraintSet, KpiConstraint, KpiKind, PeriodFeedback
from .data import BidLog, SynthConfig, generate_synthetic

# Each controller kind and the config dataclass its ``params`` are read into.
_CONTROLLER_CONFIGS = {"mlp": MlpControllerConfig, "pid": PidConfig, "fixed": FixedBidController}
CONTROLLER_KINDS = tuple(_CONTROLLER_CONFIGS)

# A sweep's trials and dropout levels when its config or manifest names none
SWEEP_TRIALS = 100
SWEEP_LEVELS = tuple(0.1 * k for k in range(1, 10))

# Reference benchmark presets (budget fen, expected PPC fen)
PRESETS = {
    "adequate": {"budget": 182_344, "ppc": 1800},
    "tight": {"budget": 22_793, "ppc": 1800},
}


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@contextmanager
def _fields_of(where: str) -> Iterator[None]:
    """Report a missing, unknown or wrongly typed field as a
    ConfigurationError that names where it sits."""
    try:
        yield
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ControllerSpec:
    """A controller of ``kind``.  ``params`` is kept as given, for the
    manifest; ``config`` is the same read once into the kind's config."""

    kind: str
    name: str = ""
    params: Mapping = field(default_factory=dict)
    config: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in CONTROLLER_KINDS:
            raise ConfigurationError(f"unknown controller kind {self.kind!r}, expected one of {CONTROLLER_KINDS}")
        if not isinstance(self.name, str):
            raise ConfigurationError(f"controller name must be a string, got {self.name!r}")
        if "\r" in self.name:  # the csv writer leaves it unquoted under a "\n" line end
            raise ConfigurationError(f"controller name {self.name!r} holds a carriage return")
        if not self.name:
            object.__setattr__(self, "name", self.kind)
        with _fields_of(f"controller {self.name!r}"):
            object.__setattr__(self, "config", _read(_CONTROLLER_CONFIGS[self.kind], self.params))


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
        names = [c.name for c in self.controllers]
        for name in names:
            if names.count(name) > 1:
                raise ConfigurationError(f"controller name {name!r} is used more than once; "
                                         f"give each controller a distinct name (config 'name')")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.base_seed < 0:
            raise ConfigurationError(f"base_seed must be >= 0, got {self.base_seed}")
        if not isinstance(self.out_dir, str) or not isinstance(self.log_path, (str, type(None))):
            raise ConfigurationError(f"log path and out_dir must be strings, "
                                     f"got {self.log_path!r} and {self.out_dir!r}")
        if self.sim.dropout_seed != 0:
            raise ConfigurationError("sim.dropout_seed must be 0: the dropout mask of each trial "
                                     "is seeded by (base_seed, trial); change base_seed instead")
        for c in self.controllers:
            with _fields_of(f"controller {c.name!r}"):
                c.config.check_constraints(self.constraints)


def build_controller(cspec: ControllerSpec, constraints: ConstraintSet, seed: int):
    if cspec.kind == "mlp":
        return MlpBidController(constraints, replace(cspec.config, rng_seed=seed))
    if cspec.kind == "pid":
        return PidController(constraints, cspec.config)
    return cspec.config  # a FixedBidController holds no state


def load_log(spec: ExperimentSpec) -> BidLog:
    if spec.log_path is not None:
        path = Path(spec.log_path)
        if not path.exists():
            raise ConfigurationError(f"log file not found: {path}")
        return BidLog.from_csv(path)
    assert spec.synth is not None
    return generate_synthetic(spec.synth)


# ---------------------------------------------------------------------------
# The cell loop and its writer

def _cells(spec: ExperimentSpec,
           conditions: Sequence[tuple[SimConfig, Sequence[ControllerSpec]]]) -> Iterator[tuple]:
    """Replay every cell of the ``(sim, controllers)`` conditions; yield
    ``(position, trial, cspec, result)`` in trial -> condition -> controller
    order, ``position`` being the condition's index in ``conditions``.

    Each trial replays its condition's ``sim`` with only ``dropout_seed``
    set.  The dropout mask of a trial is seeded by (base_seed, trial)
    alone, so all levels of a sweep threshold the trial's one draw of
    uniforms.  The loop shares dropout on the log it loads, so the
    campaigns of a (condition, trial) replay one thinned copy, and so do
    all feature sets of an ablation trial, whose conditions differ only in
    the controller.  The controller at position ``idx`` is seeded by
    (``params.rng_seed`` if given, else base_seed, trial, idx), so the
    ablation reuses the same seeds across feature sets.  No draw or copy
    outlives the loop.
    """
    log = load_log(spec)
    with shared_dropout(log):
        for trial in range(spec.trials):
            dropout_seed = derive_seed(spec.base_seed, trial)
            for position, (sim, controllers) in enumerate(conditions):
                trial_sim = replace(sim, dropout_seed=dropout_seed)
                for idx, cspec in enumerate(controllers):
                    seed = derive_seed(cspec.params.get("rng_seed", spec.base_seed), trial, idx)
                    controller = build_controller(cspec, spec.constraints, seed)
                    yield (position, trial, cspec,
                           run_campaign(log, controller, spec.constraints, trial_sim))


def _in_condition_order(cells: Sequence[tuple[int, int, list]]) -> list[list]:
    """The rows of ``(position, trial, row)`` cells in condition -> trial
    order, the controllers of a (condition, trial) in the order given."""
    return [row for _, _, row in sorted(cells, key=lambda cell: cell[:2])]


def _plain(value):
    """A numpy value as the Python value ``json`` writes, an enum as its value."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _read_back(command: str, spec: ExperimentSpec, **extra) -> tuple[ExperimentSpec, dict]:
    """``spec`` and its manifest ``{"command", "spec", **extra}`` as JSON
    reads them back, so a driver runs and writes what a ``--config`` re-run
    would: a numpy scalar becomes its Python value, an int in a float field
    a float, and a value JSON cannot hold is refused before any output."""
    try:
        doc = json.loads(json.dumps({"command": command, "spec": spec_to_dict(spec), **extra},
                                    default=_plain))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"manifest: {exc}") from None
    spec = spec_from_dict(doc["spec"])
    doc["spec"] = spec_to_dict(spec)
    return spec, doc


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """A table with floats written by repr, None as an empty field, and a
    field holding a comma, quote or newline quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit(doc: Mapping, manifest_name: str, tables: Mapping[str, tuple]) -> dict[str, Path]:
    """Write each table ``key: (file name, header, rows)`` and then the
    manifest ``doc`` under its spec's ``out_dir``; return the paths by key."""
    out = Path(doc["spec"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, (file_name, header, rows) in tables.items():
        paths[key] = out / file_name
        _write_csv(paths[key], header, rows)
    paths["manifest"] = out / manifest_name
    with open(paths["manifest"], "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _trace_rows(name: str, trial: int, result: CampaignResult,
                constraints: ConstraintSet) -> list[list]:
    """One ``trace.csv`` row per period.  The KPI errors are measured against
    the full targets so traces are comparable across controllers and
    budget-error modes; the control term of the period cost ``j`` uses unit
    weight, and is 0 in the first period."""
    rows = []
    trace = result.trace
    for period, (t, prev) in enumerate(zip(trace, trace[:1] + trace)):
        errors = {}
        j = 0.0
        for c in constraints.constraints:
            errors[c.kind] = e = c.normalized(t.feedback) - 1.0
            j += c.error_weight * e * e
        du = t.u - prev.u
        j += du * du
        rows.append([
            name, trial, period, t.u,
            errors.get(KpiKind.PPC_TARGET), errors.get(KpiKind.BUDGET),
            j, t.feedback.conversions, t.feedback.cost,
        ])
    return rows


_METRIC_COLUMNS = ["imp", "clk", "conv", "cost", "ppc"]


def _metrics_row(feedback: PeriodFeedback) -> list:
    """A campaign's reported counters.  ``ppc`` is cost per conversion and
    is absent (None) until the first conversion lands."""
    conv = feedback.conversions
    return [feedback.impressions, feedback.clicks, conv, feedback.cost,
            feedback.cost / conv if conv else None]


# ---------------------------------------------------------------------------
# Spec <-> JSON

def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "controllers": [
            {"kind": c.kind, "name": c.name, "params": dict(c.params)}
            for c in spec.controllers
        ],
        "constraints": {
            "ppc_expected": spec.constraints.ppc_expected,
            "kpis": [
                {"kind": c.kind.value, "target": c.target, "error_weight": c.error_weight}
                for c in spec.constraints.constraints
            ],
        },
        "sim": {**asdict(spec.sim), "period_mode": spec.sim.period_mode.value},
        "trials": spec.trials,
        "base_seed": spec.base_seed,
        "out_dir": spec.out_dir,
        "log": ({"path": spec.log_path} if spec.log_path is not None
                else {"synthetic": asdict(spec.synth)}),
    }


def _known(d, keys: Collection[str], required: Sequence[str] = ()) -> Mapping:
    """``d``, if it is an object with every key of ``required`` and no key
    outside ``keys``.  The caller's ``_fields_of`` names the place."""
    if not isinstance(d, Mapping):
        raise TypeError(f"expected an object, got {type(d).__name__}")
    unknown = [repr(k) for k in d if k not in keys]
    if unknown:
        raise ValueError(f"unknown key{'s' * (len(unknown) > 1)} {', '.join(unknown)}; "
                         f"known keys: {', '.join(keys)}")
    for key in required:
        if key not in d:
            raise KeyError(key)
    return d


def _as(kind: type, key: str, value):
    """Field ``key`` of type ``kind`` read from a JSON value: an int only
    from a JSON integer in the signed 64-bit range, a finite float from any
    JSON number, neither from a bool; a list only from a JSON array; an
    enum from its value."""
    if kind is list and type(value) is not list:
        raise TypeError(f"{key!r} must be a list, got {type(value).__name__}")
    if kind is float and type(value) in (int, float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{key!r} must be finite, got {value!r}")
        return value
    if kind in (int, float) and type(value) is not kind:
        raise TypeError(f"{key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if kind is int and not -2**63 <= value < 2**63:  # the digits are not echoed: there may be many
        raise ValueError(f"{key!r} must fit a signed 64-bit integer")
    return kind(value)


def _read(cls: type, d, required: Sequence[str] = ()):
    """The dataclass ``cls`` from an object, each field read by its annotated type."""
    hints = get_type_hints(cls)
    return cls(**{key: _as(hints[key], key, value)
                  for key, value in _known(d, hints, required).items()})


def synth_from_dict(d: Mapping, where: str) -> SynthConfig:
    """The synthetic-log config of an object; a field left out takes its default."""
    with _fields_of(where):
        return _read(SynthConfig, d)


def spec_from_dict(d: Mapping, trials: int = ExperimentSpec.trials) -> ExperimentSpec:
    """The spec of a config document or a manifest.  A field that is left
    out takes the default of the dataclass that holds it, and ``trials``
    the given one."""
    if "spec" in d:  # accept a manifest as a config
        with _fields_of("manifest"):
            d = _known(d, ("command", "spec"))["spec"]
    with _fields_of("config"):
        _known(d, ("log", "sim", "controllers", "constraints", "trials", "base_seed", "out_dir"),
               ["log", "sim", "controllers", "constraints"])
        controllers_d = _as(list, "controllers", d["controllers"])
        given = {key: _as(int, key, d[key]) for key in ("trials", "base_seed") if key in d}
    with _fields_of("config section 'log'"):
        log = _known(d["log"], ("path", "synthetic"))
        synth = _read(SynthConfig, log["synthetic"]) if "synthetic" in log else None
    with _fields_of("config section 'sim'"):
        sim = _read(SimConfig, d["sim"], ["budget"])
    controllers = []
    for i, c in enumerate(controllers_d):
        with _fields_of(f"config controller {i}"):  # its shape, kind and name
            c = _known(c, ("kind", "name", "params"), ["kind"])
            cspec = ControllerSpec(**{**c, "params": {}})
        controllers.append(replace(cspec, params=c.get("params", {})))  # a params error names it
    with _fields_of("config section 'constraints'"):
        cons = _known(d["constraints"], ("kpis", "ppc_expected"), ["kpis", "ppc_expected"])
        kpis = tuple(_read(KpiConstraint, kpi, ["kind", "target"])
                     for kpi in _as(list, "kpis", cons["kpis"]))
        constraints = ConstraintSet(kpis, _as(int, "ppc_expected", cons["ppc_expected"]))
    given.setdefault("trials", trials)
    if "out_dir" in d:
        given["out_dir"] = d["out_dir"]
    return ExperimentSpec(tuple(controllers), constraints, sim, log.get("path"), synth, **given)


def levels_from_dict(d: Mapping) -> list[float]:
    """The dropout levels of a sweep config or manifest: its ``p_list``, each
    level read as a number, or 0.1, ..., 0.9 if it has none."""
    with _fields_of("config"):
        levels = _as(list, "p_list", d.get("p_list", list(SWEEP_LEVELS)))
        levels = [_as(float, "p_list", p) for p in levels]
    if not levels:
        raise ConfigurationError("a sweep needs at least one dropout level")
    return levels


# ---------------------------------------------------------------------------
# Drivers

def run_experiment(spec: ExperimentSpec) -> dict[str, Path]:
    """Run every configured controller over the log; write metrics, per-period
    traces, and the manifest."""
    spec, doc = _read_back("run", spec)
    metrics_rows: list[list] = []
    trace_rows: list[list] = []
    for _, trial, cspec, result in _cells(spec, [(spec.sim, spec.controllers)]):
        metrics_rows.append([cspec.name, trial] + _metrics_row(result.feedback))
        trace_rows.extend(_trace_rows(cspec.name, trial, result, spec.constraints))
    return _emit(doc, "manifest.json", {
        "metrics": ("metrics.csv", ["controller", "trial", *_METRIC_COLUMNS], metrics_rows),
        "trace": ("trace.csv",
                  ["controller", "trial", "period", "u", "e_ppc", "e_budget", "j", "conv", "cost"],
                  trace_rows),
    })


def sweep_sparsity(spec: ExperimentSpec, p_list: Sequence[float] = SWEEP_LEVELS) -> dict[str, Path]:
    """Replay the experiment across dropout levels with repeated trials and
    summarize conversions per (level, controller) with a 95% interval.
    Each level replaces ``spec.sim.dropout_p``; the levels are read as a
    sweep manifest's ``p_list`` is."""
    spec, doc = _read_back("sweep-sparsity", spec, p_list=p_list)
    doc["p_list"] = p_list = levels_from_dict(doc)
    conditions = [(replace(spec.sim, dropout_p=p), spec.controllers) for p in p_list]
    raw_cells: list[tuple[int, int, list]] = []
    conv_by_cell: dict[tuple[int, str], list[int]] = {}  # by level position: a level may repeat
    for c, trial, cspec, result in _cells(spec, conditions):
        conv_by_cell.setdefault((c, cspec.name), []).append(result.feedback.conversions)
        raw_cells.append((c, trial, [cspec.name, p_list[c], trial, result.records]
                                    + _metrics_row(result.feedback)))
    summary_rows: list[list] = []
    for (c, name), convs in conv_by_cell.items():
        conv = np.array(convs, dtype=float)
        mean = float(conv.mean())
        s = float(conv.std(ddof=1)) if len(conv) > 1 else 0.0
        half = 1.96 * s / math.sqrt(len(conv))
        summary_rows.append([name, p_list[c], len(conv), mean, mean - half, mean + half])
    return _emit(doc, "sweep_manifest.json", {
        "sweep": ("sweep.csv", ["controller", "p", "trials", "mean_conv", "ci_low", "ci_high"],
                  summary_rows),
        "trials": ("sweep_trials.csv",
                   ["controller", "p", "trial", "records", *_METRIC_COLUMNS],
                   _in_condition_order(raw_cells)),
    })


ABLATION_ORDER = (FeatureSet.NONE, FeatureSet.POSTERIOR, FeatureSet.PRIOR, FeatureSet.FULL)


def run_ablation(spec: ExperimentSpec) -> dict[str, Path]:
    """Run the same experiment under each feature set with identical seeds."""
    spec, doc = _read_back("ablation", spec)
    if len(spec.controllers) != 1 or spec.controllers[0].kind != "mlp":
        raise ConfigurationError("ablation requires exactly one mlp controller")
    base = spec.controllers[0]
    if "feature_set" in base.params:
        raise ConfigurationError("ablation sets the mlp's feature_set itself; "
                                 "remove feature_set from its params")
    conditions = [(spec.sim, (replace(base, params={**base.params, "feature_set": fs.value}),))
                  for fs in ABLATION_ORDER]
    cells = [(c, trial, [ABLATION_ORDER[c].value, trial] + _metrics_row(result.feedback))
             for c, trial, _, result in _cells(spec, conditions)]
    return _emit(doc, "ablation_manifest.json", {
        "ablation": ("ablation.csv", ["feature_set", "trial", *_METRIC_COLUMNS],
                     _in_condition_order(cells)),
    })
