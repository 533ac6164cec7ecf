import json
from pathlib import Path

import numpy as np
import pytest

from rtblab import (
    ConstraintSet,
    ControllerSpec,
    ExperimentSpec,
    FeatureSet,
    MlpBidController,
    MlpControllerConfig,
    SimConfig,
    SynthConfig,
    generate_synthetic,
    run_ablation,
    run_campaign,
    run_experiment,
    serialize_canonical,
    sweep_sparsity,
)
from rtblab.cli import main
from rtblab.harness import derive_seed, spec_from_dict, spec_to_dict
from support import naive_replay

CONSTRAINTS = ConstraintSet.single_ppc(1800)


def small_spec(out_dir, controllers=(ControllerSpec(kind="fixed"),), **overrides):
    kwargs = dict(
        controllers=tuple(controllers),
        constraints=CONSTRAINTS,
        sim=SimConfig(budget=100_000, period_bids=100),
        synth=SynthConfig(n_records=2000, seed=5),
        trials=1,
        base_seed=0,
        out_dir=str(out_dir),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def read(path: Path) -> str:
    return Path(path).read_text(encoding="utf-8")


class TestRunExperiment:
    def test_fixed_controller_matches_hand_replay(self, tmp_path):
        log_file = tmp_path / "ten.csv"
        log = generate_synthetic(SynthConfig(n_records=10, seed=1))
        with open(log_file, "w", newline="") as fh:
            serialize_canonical(log, fh)
        spec = small_spec(tmp_path / "out", log_path=str(log_file), synth=None,
                          sim=SimConfig(budget=10**9, period_bids=3))
        paths = run_experiment(spec)
        imp, clk, conv, spent = naive_replay(list(log), 1.0, 1800, 10**9)
        ppc = repr(spent / conv) if conv else ""
        expected = (
            "controller,trial,imp,clk,conv,cost,ppc\n"
            f"fixed,0,{imp},{clk},{conv},{spent},{ppc}\n"
        )
        assert read(paths["metrics"]) == expected

    def test_byte_identical_reruns(self, tmp_path):
        controllers = (ControllerSpec(kind="mlp"), ControllerSpec(kind="pid"))
        a = run_experiment(small_spec(tmp_path / "a", controllers))
        b = run_experiment(small_spec(tmp_path / "b", controllers))
        assert read(a["metrics"]) == read(b["metrics"])
        assert read(a["trace"]) == read(b["trace"])

    def test_manifest_rerun_reproduces_outputs(self, tmp_path):
        spec = small_spec(tmp_path / "a", (ControllerSpec(kind="mlp"),),
                          sim=SimConfig(budget=50_000, period_bids=100, dropout_p=0.3))
        a = run_experiment(spec)
        manifest = json.loads(read(a["manifest"]))
        respec = spec_from_dict(manifest)
        respec = ExperimentSpec(**{**respec.__dict__, "out_dir": str(tmp_path / "b")})
        b = run_experiment(respec)
        assert read(a["metrics"]) == read(b["metrics"])
        assert read(a["trace"]) == read(b["trace"])

    def test_spec_dict_round_trip(self, tmp_path):
        spec = small_spec(tmp_path, (ControllerSpec(kind="mlp", params={"hidden_dim": 4}),),
                          constraints=ConstraintSet.ppc_and_budget(1800, 99_000, budget_weight=0.5))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_multi_trial_dropout_varies_masks(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="fixed"),), trials=4,
                          sim=SimConfig(budget=10**9, period_bids=100, dropout_p=0.5))
        paths = run_experiment(spec)
        rows = [line.split(",") for line in read(paths["metrics"]).splitlines()[1:]]
        imps = {row[2] for row in rows}
        assert len(rows) == 4
        assert len(imps) > 1  # each trial sees its own dropout mask

    def test_trace_has_error_columns(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),),
                          constraints=ConstraintSet.ppc_and_budget(1800, 100_000))
        paths = run_experiment(spec)
        lines = read(paths["trace"]).splitlines()
        assert lines[0] == "controller,trial,period,u,e_ppc,e_budget,j,conv,cost"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert first[0] == "mlp" and first[2] == "0"
        float(first[3]); float(first[4]); float(first[5]); float(first[6])


class TestSweep:
    def test_zero_dropout_equals_plain_run(self, tmp_path):
        spec = small_spec(tmp_path / "sweep", (ControllerSpec(kind="mlp"),), trials=3)
        paths = sweep_sparsity(spec, [0.0])
        run_paths = run_experiment(small_spec(tmp_path / "run",
                                              (ControllerSpec(kind="mlp"),), trials=3))
        sweep_rows = read(paths["trials"]).splitlines()[1:]
        run_rows = read(run_paths["metrics"]).splitlines()[1:]
        sweep_conv = [r.split(",")[6] for r in sweep_rows]
        run_conv = [r.split(",")[4] for r in run_rows]
        assert sweep_conv == run_conv

    def test_full_dropout_zero_conversions_zero_width_ci(self, tmp_path):
        spec = small_spec(tmp_path / "out", trials=5)
        paths = sweep_sparsity(spec, [1.0])
        row = read(paths["sweep"]).splitlines()[1].split(",")
        assert row[3] == "0.0" and row[4] == "0.0" and row[5] == "0.0"

    def test_ci_recomputable_from_raw_trials(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),), trials=30,
                          sim=SimConfig(budget=30_000, period_bids=100))
        paths = sweep_sparsity(spec, [0.5])
        raw = [line.split(",") for line in read(paths["trials"]).splitlines()[1:]]
        conv = np.array([float(r[6]) for r in raw])
        mean = conv.mean()
        half = 1.96 * conv.std(ddof=1) / np.sqrt(len(conv))
        summary = read(paths["sweep"]).splitlines()[1].split(",")
        assert float(summary[3]) == pytest.approx(mean, abs=1e-9)
        assert float(summary[4]) == pytest.approx(mean - half, abs=1e-9)
        assert float(summary[5]) == pytest.approx(mean + half, abs=1e-9)

    def test_mask_shared_across_controllers(self, tmp_path):
        controllers = (ControllerSpec(kind="mlp"), ControllerSpec(kind="pid"),
                       ControllerSpec(kind="fixed"))
        spec = small_spec(tmp_path / "out", controllers, trials=4)
        paths = sweep_sparsity(spec, [0.3, 0.7])
        raw = [line.split(",") for line in read(paths["trials"]).splitlines()[1:]]
        # records column identical across controllers for every (p, trial)
        seen: dict[tuple[str, str], str] = {}
        for row in raw:
            key = (row[1], row[2])
            if key in seen:
                assert seen[key] == row[3]
            seen[key] = row[3]
        assert len(seen) == 8


class TestAblation:
    def test_rows_in_feature_set_order(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),))
        paths = run_ablation(spec)
        rows = [line.split(",")[0] for line in read(paths["ablation"]).splitlines()[1:]]
        assert rows == ["none", "posterior", "prior", "full"]

    def test_none_row_equals_direct_run(self, tmp_path):
        spec = small_spec(tmp_path / "abl", (ControllerSpec(kind="mlp"),))
        paths = run_ablation(spec)
        none_row = read(paths["ablation"]).splitlines()[1].split(",")
        # a direct run with the same derived seed and feature_set none
        log = generate_synthetic(spec.synth)
        config = MlpControllerConfig(feature_set=FeatureSet.NONE,
                                     rng_seed=derive_seed(0, 0, 0))
        result = run_campaign(log, MlpBidController(CONSTRAINTS, config),
                              CONSTRAINTS, spec.sim)
        assert int(none_row[2]) == result.metrics.imp
        assert int(none_row[4]) == result.metrics.conv
        assert int(none_row[5]) == result.metrics.cost

    def test_deterministic_rerun(self, tmp_path):
        spec_a = small_spec(tmp_path / "a", (ControllerSpec(kind="mlp"),))
        spec_b = small_spec(tmp_path / "b", (ControllerSpec(kind="mlp"),))
        assert read(run_ablation(spec_a)["ablation"]) == read(run_ablation(spec_b)["ablation"])

    def test_degenerate_log_collapses_all_rows(self, tmp_path):
        # prices far above any attainable bid: nobody wins, every row identical
        log = generate_synthetic(SynthConfig(n_records=500, price_log_mean=12.0, seed=3))
        log_file = tmp_path / "expensive.csv"
        with open(log_file, "w", newline="") as fh:
            serialize_canonical(log, fh)
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),),
                          log_path=str(log_file), synth=None)
        paths = run_ablation(spec)
        rows = [line.split(",")[2:5] for line in read(paths["ablation"]).splitlines()[1:]]
        assert all(r == ["0", "0", "0"] for r in rows)

    def test_requires_single_mlp(self, tmp_path):
        from rtblab import ConfigurationError
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="pid"),))
        with pytest.raises(ConfigurationError):
            run_ablation(spec)


class TestCli:
    def test_run_with_preset_prints_resolved_values(self, tmp_path, capsys):
        rc = main(["run", "--preset", "adequate", "--synthetic", "500",
                   "--controller", "fixed", "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget=182344" in out
        assert "1800" in out
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_tight_preset_values(self, tmp_path, capsys):
        rc = main(["run", "--preset", "tight", "--synthetic", "200",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "budget=22793" in capsys.readouterr().out

    def test_gen_synthetic_round_trips(self, tmp_path):
        out = tmp_path / "log.csv"
        rc = main(["gen-synthetic", "--n", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        from rtblab import BidLog
        assert len(BidLog.from_csv(out)) == 100

    def test_convert_ipinyou_cli(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("10\t0.01\t0.02\t70\t0\t0\n20\t0.03\t0.04\t80\t1\t1\n")
        out = tmp_path / "canonical.csv"
        rc = main(["convert-ipinyou", "--in", str(raw), "--out", str(out),
                   "--col-ts", "0", "--col-pctr", "1", "--col-pcvr", "2",
                   "--col-price", "3", "--col-click", "4", "--col-conversion", "5"])
        assert rc == 0
        assert out.read_text().splitlines()[1] == "10,0.01,0.02,70,0,0"

    def test_missing_log_exits_nonzero(self, tmp_path, capsys):
        rc = main(["run", "--log", str(tmp_path / "nope.csv"), "--budget", "1000",
                   "--ppc-target", "100", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_range_integer_in_log_is_one_line_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("ts,pctr,pcvr,market_price,click,conversion\n"
                       "99999999999999999999,0.01,0.02,70,0,0\n")
        rc = main(["run", "--log", str(log), "--budget", "1000", "--ppc-target", "100",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedRow: line 2: ") and err.count("\n") == 1

    def test_malformed_config_json_is_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"controllers": [')
        rc = main(["run", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert str(config) in err

    def test_bad_p_list_token_is_one_line_error(self, tmp_path, capsys):
        rc = main(["sweep-sparsity", "--synthetic", "400", "--budget", "50000",
                   "--ppc-target", "1800", "--trials", "1", "--p-list", "0.1,x",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert "'x'" in err

    def test_config_file_runs(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="fixed"),))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec_to_dict(spec)))
        rc = main(["run", "--config", str(config)])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_manifest_reruns_byte_identical(self, tmp_path):
        spec = small_spec(tmp_path / "a", (ControllerSpec(kind="mlp"),))
        paths = run_experiment(spec)
        rc = main(["run", "--config", str(paths["manifest"]), "--out", str(tmp_path / "b")])
        assert rc == 0
        assert read(paths["metrics"]) == read(tmp_path / "b" / "metrics.csv")

    def test_sweep_manifest_rerun_restores_p_list(self, tmp_path):
        spec = small_spec(tmp_path / "a", (ControllerSpec(kind="mlp"),), trials=2)
        paths = sweep_sparsity(spec, [0.25, 0.75])
        rc = main(["sweep-sparsity", "--config", str(paths["manifest"]),
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        assert read(paths["sweep"]) == read(tmp_path / "b" / "sweep.csv")
        assert read(paths["trials"]) == read(tmp_path / "b" / "sweep_trials.csv")

    def test_sweep_cli(self, tmp_path):
        rc = main(["sweep-sparsity", "--synthetic", "400", "--budget", "50000",
                   "--ppc-target", "1800", "--trials", "3", "--p-list", "0.2,0.8",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = read(tmp_path / "out" / "sweep.csv").splitlines()
        assert len(lines) == 3

    def test_wall_clock_periods_flag(self, tmp_path):
        rc = main(["run", "--synthetic", "2000", "--budget", "100000",
                   "--ppc-target", "1800", "--controller", "fixed",
                   "--period-ms", "5000", "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        assert manifest["spec"]["sim"]["period_mode"] == "wall_clock"
        assert manifest["spec"]["sim"]["period_ms"] == 5000

    def test_ablation_cli(self, tmp_path):
        rc = main(["ablation", "--synthetic", "400", "--budget", "50000",
                   "--ppc-target", "1800", "--controller", "mlp",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(read(tmp_path / "out" / "ablation.csv").splitlines()) == 5
