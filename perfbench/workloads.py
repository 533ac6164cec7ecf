"""The benchmark's three workloads, with every traffic setting pinned.

Each workload is one ``rtblab`` CLI command driven from an experiment
config that names every synthetic parameter, budget, PPC and period
setting, so a later change to ``SynthConfig`` defaults, ``PRESETS`` or CLI
defaults cannot change what a workload replays.  All three use the dense
environment of the acceptance suite (``DENSE_ENV`` in
``tests/test_acceptance.py``), where the controllers have real authority:
the shipped presets end every cell after one period with identical
metrics for mlp, pid and fixed, so they would time a degenerate path.
"""
from __future__ import annotations

from dataclasses import dataclass

DENSE_ENV = {
    "ctr_true": 0.6, "cvr_true": 0.8, "price_log_mean": 8.19, "price_log_sigma": 0.8,
    "pctr_noise": 0.02, "pcvr_noise": 0.02,
}
PPC_TARGET = 4400
PPC_EXPECTED = 15
NEVER_BINDS = 10**12

# Controller parameters at their current values, passed explicitly for the
# same reason as the traffic settings.  The ablation sets feature_set itself.
MLP_PARAMS = {"hidden_dim": 8, "learning_rate": 0.01, "grad_window": 4,
              "control_weight": 1.0, "u_max": 1.0, "budget_error_mode": "full"}
PID_PARAMS = {"kp": 0.2, "ki": 0.05, "kd": 0.05, "u_min": 0.01, "u_max": 1.0,
              "u_init": 0.5, "integral_clamp": 5.0}
FIXED_PARAMS = {"u_const": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # rtblab subcommand of one op
    log_rows: int                 # rows of the log one op replays
    campaigns_per_op: int         # controllers x trials x levels or feature sets
    budget: int
    checked_files: tuple[str, ...]  # outputs compared byte for byte
    setups: int                   # set-ups timed per run; setup_s is their median

    @property
    def csv_log(self) -> bool:
        """Whether set-up writes the log through ``gen-synthetic`` and the op parses it."""
        return self.command == "run"


WORKLOADS = {w.name: w for w in (
    # Ingest-bound: the only workload that parses and serializes a CSV and
    # uses wall-clock periods; it replays full ~1000-bid batches.
    Workload("csv-run", "run", 500_000, 3, NEVER_BINDS, ("metrics.csv",), setups=3),
    # Dropout-bound: early budget termination leaves most of each drawn
    # dropout mask unused.
    Workload("sweep-dense", "sweep-sparsity", 100_000, 9 * 100 * 2, 12_000_000,
             ("sweep.csv", "sweep_trials.csv"), setups=5),
    # Per-period-bound: 10 bids per period, so controller and per-period
    # replay overhead dominate; the whole kept stream is consumed.
    Workload("fine-periods", "ablation", 50_000, 4, NEVER_BINDS, ("ablation.csv",), setups=5),
)}


def _constraints() -> dict:
    return {"ppc_expected": PPC_EXPECTED,
            "kpis": [{"kind": "ppc_target", "target": PPC_TARGET, "error_weight": 1.0}]}


def _sim(budget: int, mode: str, period_bids: int, period_ms: int, dropout_p: float) -> dict:
    return {"budget": budget, "period_mode": mode, "period_bids": period_bids,
            "period_ms": period_ms, "dropout_p": dropout_p, "dropout_seed": 0}


def synth_config(workload: Workload, seed: int) -> dict:
    """Every ``SynthConfig`` field of the workload's log."""
    return {"n_records": workload.log_rows, "seed": seed, **DENSE_ENV}


def gen_synthetic_argv(workload: Workload, seed: int, out_path: str) -> list[str]:
    s = synth_config(workload, seed)
    return ["gen-synthetic", "--n", str(s["n_records"]), "--ctr", str(s["ctr_true"]),
            "--cvr", str(s["cvr_true"]), "--price-log-mean", str(s["price_log_mean"]),
            "--price-log-sigma", str(s["price_log_sigma"]),
            "--pctr-noise", str(s["pctr_noise"]), "--pcvr-noise", str(s["pcvr_noise"]),
            "--seed", str(seed), "--out", out_path]


def experiment_config(workload: Workload, seed: int, log_path: str | None = None) -> dict:
    """The config document one op runs; ``log_path`` is required for csv-run."""
    mlp = {"kind": "mlp", "name": "mlp", "params": {**MLP_PARAMS, "feature_set": "full"}}
    pid = {"kind": "pid", "name": "pid", "params": PID_PARAMS}
    fixed = {"kind": "fixed", "name": "fixed", "params": FIXED_PARAMS}
    if workload.name == "csv-run":
        # 50 s windows hold ~1000 bids (gaps average 50 ms): ~500 periods per controller.
        return {"controllers": [mlp, pid, fixed], "constraints": _constraints(),
                "sim": _sim(workload.budget, "wall_clock", 1000, 50_000, 0.0),
                "log": {"path": log_path}, "trials": 1, "base_seed": seed}
    log = {"synthetic": synth_config(workload, seed)}
    if workload.name == "sweep-dense":
        return {"controllers": [mlp, pid], "constraints": _constraints(),
                "sim": _sim(workload.budget, "count", 1000, 900_000, 0.0),
                "log": log, "trials": 100, "base_seed": seed,
                "p_list": [round(0.1 * k, 1) for k in range(1, 10)]}
    if workload.name == "fine-periods":
        mlp_base = {"kind": "mlp", "name": "mlp", "params": MLP_PARAMS}
        return {"controllers": [mlp_base], "constraints": _constraints(),
                "sim": _sim(workload.budget, "count", 10, 900_000, 0.2),
                "log": log, "trials": 1, "base_seed": seed}
    raise KeyError(workload.name)
