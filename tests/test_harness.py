import ast
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtblab import (
    BidLog,
    ConfigurationError,
    ControllerSpec,
    ExperimentSpec,
    FeatureSet,
    FixedBidController,
    KpiConstraint,
    KpiKind,
    MlpBidController,
    MlpControllerConfig,
    PeriodFeedback,
    PidConfig,
    SimConfig,
    SynthConfig,
    generate_synthetic,
    run_ablation,
    run_campaign,
    run_experiment,
    serialize_canonical,
    sweep_sparsity,
)
from rtblab import auction, harness
from rtblab.auction import PeriodMode
from rtblab import cli
from rtblab.cli import build_parser, main
from rtblab.harness import (ABLATION_ORDER, CONTROLLER_KINDS, PRESETS, _metrics_row,
                            build_controller, derive_seed, levels_from_dict, spec_from_dict,
                            spec_to_dict)
from support import StopAt, feedback, naive_replay, ppc_constraints, records

CONSTRAINTS = ppc_constraints(1800, ppc_expected=1800)
# The acceptance suite's dense environment, where the controllers have authority.
DENSE_ENV = dict(ctr_true=0.6, cvr_true=0.8, price_log_mean=8.19, price_log_sigma=0.8,
                 pctr_noise=0.02, pcvr_noise=0.02)
DENSE_CONSTRAINTS = ppc_constraints(4400, ppc_expected=15)
MLP_PID = (ControllerSpec(kind="mlp"), ControllerSpec(kind="pid"))
# A config that runs; the error cases below replace one part of it.
VALID_CONFIG = {
    "log": {"synthetic": {"n_records": 400}},
    "sim": {"budget": 50_000},
    "controllers": [{"kind": "fixed"}],
    "constraints": {"ppc_expected": 1800, "kpis": [{"kind": "ppc_target", "target": 1800}]},
}
# The spec flags of a small run.
_SPEC_FLAGS = ["--synthetic", "400", "--budget", "50000", "--ppc-target", "1800"]


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


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestRunExperiment:
    def test_fixed_controller_matches_hand_replay(self, tmp_path):
        log_file = tmp_path / "ten.csv"
        log = generate_synthetic(SynthConfig(n_records=10, seed=1))
        with open(log_file, "w", newline="") as fh:
            serialize_canonical(log, fh)
        spec = small_spec(tmp_path / "out", log_path=str(log_file), synth=None,
                          sim=SimConfig(budget=10**9, period_bids=3))
        paths = run_experiment(spec)
        imp, clk, conv, spent = naive_replay(records(log), 1.0, 1800, 10**9)
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
                          constraints=ppc_constraints(1800, budget=99_000, ppc_expected=1800,
                                                      budget_weight=0.5))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_multi_trial_dropout_varies_masks(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="fixed"),), trials=4,
                          sim=SimConfig(budget=10**9, period_bids=100, dropout_p=0.5))
        paths = run_experiment(spec)
        rows = [line.split(",") for line in read(paths["metrics"]).splitlines()[1:]]
        imps = {row[2] for row in rows}
        assert len(rows) == 4
        assert len(imps) > 1  # each trial sees its own dropout mask

    def test_metrics_counters_equal_last_trace_row(self, tmp_path):
        # both tables are written from the same cumulative counters
        controllers = (ControllerSpec(kind="mlp"), ControllerSpec(kind="pid"),
                       ControllerSpec(kind="fixed"))
        spec = small_spec(tmp_path / "out", controllers, trials=3,
                          sim=SimConfig(budget=50_000, period_bids=100, dropout_p=0.3))
        paths = run_experiment(spec)
        with open(paths["metrics"], encoding="utf-8", newline="") as fh:
            metrics = list(csv.DictReader(fh))
        with open(paths["trace"], encoding="utf-8", newline="") as fh:
            last = {(row["controller"], row["trial"]): row for row in csv.DictReader(fh)}
        assert len(metrics) == len(last) == 9
        assert any(int(row["conv"]) for row in metrics)
        for row in metrics:
            final = last[row["controller"], row["trial"]]
            assert (row["conv"], row["cost"]) == (final["conv"], final["cost"])

    def test_trace_has_error_columns(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),),
                          constraints=ppc_constraints(1800, budget=100_000, ppc_expected=1800))
        paths = run_experiment(spec)
        lines = read(paths["trace"]).splitlines()
        assert lines[0] == "controller,trial,period,u,e_ppc,e_budget,j,conv,cost"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert first[0] == "mlp" and first[2] == "0"
        float(first[3]); float(first[4]); float(first[5]); float(first[6])


class TestMetricsRow:
    """The ``imp, clk, conv, cost, ppc`` columns a campaign's counters write."""

    def test_empty_campaign_has_no_ppc(self):
        imp, clk, conv, cost, ppc = _metrics_row(PeriodFeedback())
        assert (imp, clk, conv, cost) == (0, 0, 0, 0)
        assert ppc is None

    def test_ppc_is_cost_per_conversion(self):
        ppc = _metrics_row(feedback(imp=295, clk=142, conv=33, cost=25963))[4]
        assert ppc == pytest.approx(786.76, abs=0.01)

    def test_single_conversion(self):
        ppc = _metrics_row(feedback(conv=1, cost=1800))[4]
        assert ppc == 1800

    @given(conv=st.integers(1, 10_000), cost=st.integers(0, 10**9))
    def test_ppc_reconstruction(self, conv, cost):
        ppc = _metrics_row(feedback(conv=conv, cost=cost))[4]
        assert abs(ppc * conv - cost) <= 1


SWEPT = (ControllerSpec(kind="mlp"), ControllerSpec(kind="pid"), ControllerSpec(kind="fixed"))


def assert_one_draw_and_one_gather(spec, monkeypatch, levels=(0.3, 0.7, 0.3)):
    """A sweep of ``spec`` draws once per trial and gathers once per (level, trial)."""
    draws_at_gather = []
    gather = BidLog.filter

    def counted_gather(log, kept):
        draws_at_gather.append(auction._slot["uniforms"])
        return gather(log, kept)

    monkeypatch.setattr(BidLog, "filter", counted_gather)
    sweep_sparsity(spec, list(levels))
    assert len(draws_at_gather) == len(levels) * spec.trials
    draws = [draws_at_gather[i:i + len(levels)]
             for i in range(0, len(draws_at_gather), len(levels))]
    assert all(draw is trial[0] for trial in draws for draw in trial)
    assert len({id(trial[0]) for trial in draws}) == spec.trials


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

    @pytest.mark.parametrize("levels", [np.linspace(0.1, 0.5, 3), [np.int64(0)]],
                             ids=["linspace", "int64"])
    def test_numpy_levels_run_as_python_floats(self, tmp_path, levels):
        spec = small_spec(tmp_path / "numpy", trials=2)
        paths = sweep_sparsity(spec, levels)
        floats = [float(p) for p in levels]
        expected = sweep_sparsity(replace(spec, out_dir=str(tmp_path / "floats")), floats)
        assert read(paths["sweep"]) == read(expected["sweep"])
        assert json.loads(read(paths["manifest"]))["p_list"] == floats

    def test_default_levels_are_the_readers(self, tmp_path):
        paths = sweep_sparsity(small_spec(tmp_path / "out"))
        assert json.loads(read(paths["manifest"]))["p_list"] == levels_from_dict({})

    def test_one_draw_per_trial_and_one_gather_per_level_and_trial(self, tmp_path, monkeypatch):
        # All levels of a trial threshold its one draw of uniforms, and the
        # controllers of a (level, trial) run back to back and share one
        # thinned copy; an order that splits either apart gives the same
        # rows but draws or gathers again.  The loop empties the dropout
        # slot as it ends, so the draw is read at each gather.
        assert_one_draw_and_one_gather(small_spec(tmp_path / "out", SWEPT, trials=4), monkeypatch)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["writer-layout", "numpy-reader"])
    def test_log_read_from_a_file_shares_its_copies(self, tmp_path, monkeypatch, newline):
        spec = small_spec(tmp_path / "out", SWEPT, trials=4)
        path = tmp_path / "log.csv"
        with open(path, "w", encoding="ascii", newline=newline) as fh:
            serialize_canonical(generate_synthetic(spec.synth), fh)
        spec = replace(spec, synth=None, log_path=str(path))
        assert_one_draw_and_one_gather(spec, monkeypatch)

    @given(levels=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
           trials=st.integers(1, 4),
           kinds=st.lists(st.sampled_from(CONTROLLER_KINDS), min_size=1, max_size=3),
           base_seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_shared_draws_and_copies_match_unshared_replays(self, levels, trials, kinds,
                                                             base_seed):
        controllers = tuple(ControllerSpec(kind=kind, name=f"{kind}{i}")
                            for i, kind in enumerate(kinds))
        with tempfile.TemporaryDirectory() as out:
            spec = small_spec(out, controllers, trials=trials, base_seed=base_seed)
            paths = sweep_sparsity(spec, levels)
            conditions = [(replace(spec.sim, dropout_p=p), controllers) for p in levels]
            expected = unshared_rows(spec, conditions, lambda c, trial, cspec, result: [
                cspec.name, levels[c], trial, result.records, *_metrics_row(result.feedback)])
            assert read(paths["trials"]).splitlines()[1:] == expected

    @given(p=st.sampled_from([0.0, 0.25, 0.5]), trials=st.integers(2, 4),
           base_seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_shared_ablation_copies_match_unshared_replays(self, p, trials, base_seed):
        base = ControllerSpec(kind="mlp")
        with tempfile.TemporaryDirectory() as out:
            spec = small_spec(out, (base,), trials=trials, base_seed=base_seed,
                              sim=SimConfig(budget=100_000, period_bids=100, dropout_p=p))
            paths = run_ablation(spec)
            conditions = [(spec.sim, (replace(base, params={"feature_set": fs.value}),))
                          for fs in ABLATION_ORDER]
            expected = unshared_rows(spec, conditions, lambda c, trial, cspec, result: [
                ABLATION_ORDER[c].value, trial, *_metrics_row(result.feedback)])
            assert read(paths["ablation"]).splitlines()[1:] == expected


def unshared_rows(spec, conditions, row_of) -> list[str]:
    """The CSV lines of every cell replayed on its own, in condition ->
    trial -> controller order: outside a shared_dropout block, each
    campaign draws its uniforms and gathers its thinned log afresh."""
    log = generate_synthetic(spec.synth)
    rows = []
    for c, (sim, controllers) in enumerate(conditions):
        for trial in range(spec.trials):
            trial_sim = replace(sim, dropout_seed=derive_seed(spec.base_seed, trial))
            for idx, cspec in enumerate(controllers):
                seed = derive_seed(cspec.params.get("rng_seed", spec.base_seed), trial, idx)
                controller = build_controller(cspec, spec.constraints, seed)
                rows.append(row_of(c, trial, cspec,
                                   run_campaign(log, controller, spec.constraints, trial_sim)))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().splitlines()


class TestDropoutMemoLifetime:
    """No thinned copy, and no log it was gathered from, outlives a driver."""

    @staticmethod
    def gathers(monkeypatch) -> list[int]:
        seen = []
        gather = BidLog.filter

        def counted_gather(log, kept):
            seen.append(len(kept))
            return gather(log, kept)

        monkeypatch.setattr(BidLog, "filter", counted_gather)
        return seen

    @pytest.mark.parametrize("drive", [
        lambda spec: run_experiment(spec),
        lambda spec: sweep_sparsity(spec, [0.3, 0.6]),
        lambda spec: run_ablation(spec),
    ], ids=["run", "sweep", "ablation"])
    def test_slots_empty_after_driver(self, tmp_path, monkeypatch, drive):
        seen = self.gathers(monkeypatch)
        drive(small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),), trials=2,
                         sim=SimConfig(budget=100_000, period_bids=100, dropout_p=0.4)))
        assert seen  # the driver did gather a copy
        assert auction._slot == {}

    def test_slots_empty_after_controller_raises_mid_cell(self, tmp_path, monkeypatch):
        seen = self.gathers(monkeypatch)
        built = harness.build_controller

        class Boom(RuntimeError):
            pass

        class Raising:
            def begin_period(self):
                raise Boom

        def build(cspec, constraints, seed):
            return Raising() if cspec.kind == "pid" else built(cspec, constraints, seed)

        monkeypatch.setattr(harness, "build_controller", build)
        with pytest.raises(Boom):
            sweep_sparsity(small_spec(tmp_path / "out", MLP_PID, trials=2), [0.5])
        assert len(seen) == 1  # the mlp gathered the copy the pid was replaying
        assert auction._slot == {}

    def test_ablation_gathers_once_per_trial(self, tmp_path, monkeypatch):
        # the four feature sets of a trial differ only in the controller,
        # so they replay one copy
        seen = self.gathers(monkeypatch)
        run_ablation(small_spec(tmp_path / "out", (ControllerSpec(kind="mlp"),), trials=3,
                                sim=SimConfig(budget=100_000, period_bids=100, dropout_p=0.4)))
        assert len(seen) == 3

    def test_old_copy_is_gone_when_the_next_gather_starts(self, tmp_path, monkeypatch):
        copies = []
        gather = BidLog.filter

        def watched_gather(log, kept):
            assert [copy() for copy in copies] == [None] * len(copies)
            thinned = gather(log, kept)
            copies.append(weakref.ref(thinned.ts))
            return thinned

        monkeypatch.setattr(BidLog, "filter", watched_gather)
        sweep_sparsity(small_spec(tmp_path / "out", MLP_PID, trials=2), [0.3, 0.6])
        assert len(copies) == 4


class TestDropoutBytePins:
    """sha256 of outputs on the dropout path, recorded with the original
    draw-and-boolean-mask dropout; any change to which rows a
    (len, p, seed) keeps, or to their order, shows here."""

    def test_dense_sweep_outputs(self, tmp_path):
        spec = small_spec(tmp_path / "out", MLP_PID, constraints=DENSE_CONSTRAINTS,
                          sim=SimConfig(budget=8_000_000, period_bids=1000),
                          synth=SynthConfig(n_records=20_000, seed=11, **DENSE_ENV), trials=5)
        paths = sweep_sparsity(spec, [0.2, 0.5, 0.8])
        assert sha256(paths["sweep"]) == "73b36ef0312dd27c5d18009ed81b5f4c7010114cdc3c0957f56d1937af7a6c93"
        assert sha256(paths["trials"]) == "0af112850c53dfbfc8ab6cafbbbe566047e511ef538951dff88b0198b43f8275"

    def test_wall_clock_dropout_run_trace(self, tmp_path):
        spec = small_spec(tmp_path / "out", MLP_PID, constraints=DENSE_CONSTRAINTS,
                          sim=SimConfig(budget=10**12, period_mode=PeriodMode.WALL_CLOCK,
                                        period_ms=50_000, dropout_p=0.3),
                          synth=SynthConfig(n_records=20_000, seed=11, **DENSE_ENV), trials=2)
        paths = run_experiment(spec)
        assert sha256(paths["trace"]) == "e8f68e257e714069af56cc452626e38f0455678c54c14ba40f76dda8fca7b508"


class TestEngineBytePins:
    """sha256 of every output kind of the three drivers, manifests
    included, recorded while each driver still had its own loop.  A
    manifest embeds ``out_dir``, so each test writes under a fixed
    relative directory."""

    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def dense_spec(out_dir, controllers, **overrides):
        kwargs = dict(constraints=ppc_constraints(4400, budget=9_000_000, ppc_expected=15),
                      sim=SimConfig(budget=9_000_000, period_bids=500, dropout_p=0.3),
                      synth=SynthConfig(n_records=20_000, seed=11, **DENSE_ENV), trials=3)
        kwargs.update(overrides)
        return small_spec(out_dir, controllers, **kwargs)

    def test_run_outputs(self):
        controllers = MLP_PID + (ControllerSpec(kind="fixed", name="fixed70",
                                                params={"u_const": 0.7}),)
        paths = run_experiment(self.dense_spec("pinned/run", controllers))
        assert sha256(paths["metrics"]) == "379320e53ac9a947abead500a9898521c4955f3118f8071fd1eedb33ff4f159c"
        assert sha256(paths["trace"]) == "dc27eac553419dc07f8fa8d2ad5d8fd5c8c65c5a62bf28713d279596e2cd45e9"
        assert sha256(paths["manifest"]) == "74051de8f2116b7ec46124e2f48a73da21cda184920e36ace472bb5b62577feb"

    def test_ablation_outputs(self):
        mlp = ControllerSpec(kind="mlp", params={"rng_seed": 7, "hidden_dim": 6})
        spec = self.dense_spec("pinned/ablation", (mlp,), trials=2,
                               sim=SimConfig(budget=9_000_000, period_bids=500, dropout_p=0.4))
        paths = run_ablation(spec)
        assert sha256(paths["ablation"]) == "0b58f22b62ebe60908ece1605e62a8d6fafc4a3ee45d45a49d81097a4e1ccb4c"
        assert sha256(paths["manifest"]) == "fbefb80f041c3119b3bdfe962a983b23b6c7f1c88bdde26e45563bfc9dd795cd"

    def test_sweep_with_repeated_level(self):
        # a repeated level stays two summary rows
        paths = sweep_sparsity(self.dense_spec("pinned/sweep", MLP_PID, trials=2),
                               [0.5, 0.0, 0.5])
        assert sha256(paths["sweep"]) == "43f7f84f27713845cf20c3ff376c1b7922d3292933f0a5acf0e21f9b6ec82de6"
        assert sha256(paths["trials"]) == "e32f2c54fa3b1e605427c95eb2c221526379d3466579e5b3863f854ae9d10ebf"
        assert sha256(paths["manifest"]) == "5bdc8fb38590c3f74b6e8690d081005bad0305c69ecb1dc108bf16b9e2ee3369"


class TestFinePeriodBytePins:
    """sha256 of run outputs at 10 bids per period, where the per-period
    path (replay kernel, controller step, trace cost) dominates.  The
    trace carries u, both errors and j at full repr precision.  Recorded
    before the per-period path was reworked; the 3M budget is crossed
    inside a 10-row batch by every controller, 10**12 never binds."""

    @pytest.mark.parametrize("budget, metrics_pin, trace_pin", [
        (3_000_000,
         "f35d190416c27f241ca9f54ddbc43a87c24f4de5e9ddf41d3ad5a96e7e3cf482",
         "08247901976a40c5f43aa86f3e6d32a96bec8bc522d431ab7a387b967d40a2ae"),
        (10**12,
         "1c5bbd5a06161126390fbf92575ee5c92a1b571eee03c33908e88e8a211bf642",
         "388f3616be7356f113d6c7be049dc6cc38ad75acfc3aaa55443bf7bfa15af74c"),
    ])
    def test_ten_bid_periods(self, tmp_path, budget, metrics_pin, trace_pin):
        controllers = (ControllerSpec(kind="mlp", params={"feature_set": "full"}),
                       ControllerSpec(kind="pid"), ControllerSpec(kind="fixed"))
        spec = small_spec(tmp_path / "out", controllers,
                          constraints=ppc_constraints(4400, budget=budget, ppc_expected=15),
                          sim=SimConfig(budget=budget, period_bids=10, dropout_p=0.2),
                          synth=SynthConfig(n_records=5000, seed=11, **DENSE_ENV), trials=2)
        paths = run_experiment(spec)
        assert sha256(paths["metrics"]) == metrics_pin
        assert sha256(paths["trace"]) == trace_pin


class TestCliBytePins:
    """sha256 of every file that flag-built CLI runs write, manifests
    included, recorded while the CLI still built specs from its flags
    itself.  The sweep uses the default levels, whose ``0.1 * k`` reprs
    appear in its manifest."""

    @pytest.mark.parametrize("name, argv, pins", [
        ("preset-multi",
         ["run", "--preset", "adequate", "--synthetic", "2000", "--multi",
          "--ppc-expected", "15", "--controller", "fixed"],
         {"metrics.csv": "007b0dea10ece8f98199ed5dc48a0541af5595bb5433543a886b1b8f5dd29821",
          "trace.csv": "2b66b8716cd1858d9078162b792295b2c6d15cbeea8a61dda40156ca1e5717b0",
          "manifest.json": "6f0d4e7f333678d070a85c8c6ea364a7991f7b6af9437992490555f541cfee06"}),
        ("wall-clock-dropout",
         ["run", "--synthetic", "3000", "--synth-seed", "4", "--budget", "10000000",
          "--ppc-target", "4400", "--ppc-expected", "15", "--period-ms", "5000",
          "--dropout", "0.3", "--trials", "2"],
         {"metrics.csv": "0e3c81984ca34c9ee67ad159ff5a41a26514c20b0da7b153f1b3cddd99a09990",
          "trace.csv": "6dad892433e6e334ce00eedf7bb999cf46e1f8a298a3f5f37b4e32dd7644b753",
          "manifest.json": "fe24c42f001bdd606d91a4c3619cabe9d5c28ac62d3fd7f3d5b08702304c9dcd"}),
        ("sweep-default-levels",
         ["sweep-sparsity", "--synthetic", "1000", "--budget", "500000",
          "--ppc-target", "4400", "--trials", "2"],
         {"sweep.csv": "5131cacc40434ed32f9de2759fca098a1e76a0221632b75b3d4b4e022dd73c91",
          "sweep_trials.csv": "928c81f3dab2194a394767b57f79e546753f9f2dcee8bfdfd7a87bf6a3d3cd91",
          "sweep_manifest.json":
              "12f2a1bd14f761ce6c4f8ec4b74366a56fd5f6519f5e4a1190759a9d5c74a38f"}),
        ("ablation",
         ["ablation", "--synthetic", "2000", "--budget", "5000000", "--ppc-target", "4400",
          "--ppc-expected", "15", "--dropout", "0.2"],
         {"ablation.csv": "9bbf7b7abadba212ab718a7387b5a70e1abe2722487fef4284263fd583addaa7",
          "ablation_manifest.json":
              "2322275217392562cc7a56e2d932287972170086178a40e3af4c9b81a113fbdd"}),
    ])
    def test_flag_built_outputs(self, tmp_path, monkeypatch, name, argv, pins):
        monkeypatch.chdir(tmp_path)
        out = Path("pinned/cli") / name
        assert main(argv + ["--out", str(out)]) == 0
        assert {p.name: sha256(p) for p in out.iterdir()} == pins


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
        assert int(none_row[2]) == result.feedback.impressions
        assert int(none_row[4]) == result.feedback.conversions
        assert int(none_row[5]) == result.feedback.cost

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


class CountingController:
    """A built controller whose begin_period and end_period calls are counted."""

    def __init__(self, inner, counts: dict):
        self.inner, self.counts = inner, counts

    def begin_period(self) -> float:
        self.counts["begin_period"] += 1
        return self.inner.begin_period()

    def end_period(self, *args) -> None:
        self.counts["end_period"] += 1
        self.inner.end_period(*args)


class TestCallPoints:
    """The per-period call points a tracer wraps after import (run_period,
    BidLog.segment and the built controllers' begin_period/end_period) are
    each called once per period of every campaign, so a replay loop that
    binds one of them early cannot hide its calls."""

    @pytest.mark.parametrize("argv", [
        ["run", "--synthetic", "3000", "--controller", "mlp", "--controller", "pid",
         "--controller", "fixed", "--budget", "400000", "--ppc-target", "1800",
         "--period-bids", "50"],
        ["sweep-sparsity", "--synthetic", "2000", "--p-list", "0.2,0.7", "--trials", "3",
         "--budget", "300000", "--ppc-target", "1800", "--period-bids", "40"],
        ["ablation", "--synthetic", "2000", "--trials", "2", "--dropout", "0.3",
         "--budget", "10000000", "--ppc-target", "1800", "--period-bids", "25"],
    ], ids=["run", "sweep-sparsity", "ablation"])
    def test_each_call_point_once_per_period(self, tmp_path, monkeypatch, argv):
        counts = dict.fromkeys(("run_period", "segment", "begin_period", "end_period"), 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(auction, "run_period", counting("run_period", auction.run_period))
        monkeypatch.setattr(BidLog, "segment", counting("segment", BidLog.segment))
        built = harness.build_controller
        monkeypatch.setattr(harness, "build_controller",
                            lambda *args: CountingController(built(*args), counts))
        campaigns = []
        replay = harness.run_campaign

        def run_campaign_counted(*args):
            before = dict(counts)
            result = replay(*args)
            campaigns.append(({k: counts[k] - before[k] for k in counts}, len(result.trace)))
            return result

        monkeypatch.setattr(harness, "run_campaign", run_campaign_counted)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(campaigns) > 1
        for calls, periods in campaigns:
            assert periods > 0
            assert calls == dict.fromkeys(counts, periods)


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
        # a flag left out takes SynthConfig's default
        expected = io.StringIO()
        serialize_canonical(generate_synthetic(SynthConfig(n_records=100, seed=3)), expected)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        assert len(BidLog.from_csv(out)) == 100

    @pytest.mark.parametrize("flag, value, message", [
        ("--pctr-noise", "nan", "gen-synthetic: 'pctr_noise' must be finite, got nan"),
        ("--price-log-sigma", "nan", "gen-synthetic: 'price_log_sigma' must be finite, got nan"),
    ])
    def test_gen_synthetic_non_finite_flag_is_one_line_error(self, tmp_path, capsys,
                                                             flag, value, message):
        # --pctr-noise nan used to exit 0 and write predictions of nan
        out = tmp_path / "log.csv"
        rc = main(["gen-synthetic", "--n", "100", flag, value, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: ConfigurationError: {message}\n"
        assert not out.exists()

    def test_convert_ipinyou_cli(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("10\t0.01\t0.02\t70\t0\t0\n20\t0.03\t0.04\t80\t1\t1\n")
        out = tmp_path / "canonical.csv"
        rc = main(["convert-ipinyou", "--in", str(raw), "--out", str(out),
                   "--col-ts", "0", "--col-pctr", "1", "--col-pcvr", "2",
                   "--col-price", "3", "--col-click", "4", "--col-conversion", "5"])
        assert rc == 0
        assert out.read_text().splitlines()[1] == "10,0.01,0.02,70,0,0"

    @pytest.mark.parametrize("previous", [None, b"old bytes\n"], ids=["absent", "present"])
    def test_failed_convert_leaves_out_as_it_was(self, tmp_path, capsys, previous):
        # --out used to keep the header and the rows before the bad one, a valid log
        raw = tmp_path / "raw.tsv"
        raw.write_text("10\t0.01\t0.02\t70\t0\t0\n20\t0.03\t0.04\t80\t1\t1\n"
                       "30\t0.05\t0.06\t-5\t0\t0\n")
        out = tmp_path / "canonical.csv"
        if previous is not None:
            out.write_bytes(previous)
        rc = main(["convert-ipinyou", "--in", str(raw), "--out", str(out),
                   "--col-ts", "0", "--col-pctr", "1", "--col-pcvr", "2",
                   "--col-price", "3", "--col-click", "4", "--col-conversion", "5"])
        assert rc == 2
        assert capsys.readouterr().err == "error: MalformedRow: line 3: negative market price -5\n"
        assert (out.read_bytes() if out.exists() else None) == previous
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["raw.tsv"] + ["canonical.csv"] * (previous is not None))

    def test_log_whose_prices_could_wrap_the_cost_is_one_line_error(self, tmp_path, capsys):
        # used to exit 0 with three wins and a cost of -3446744073709551616
        log = tmp_path / "big.csv"
        log.write_text("ts,pctr,pcvr,market_price,click,conversion\n"
                       + "".join(f"{ts},1.0,1.0,5000000000000000000,1,1\n" for ts in range(3)))
        rc = main(["run", "--log", str(log), "--budget", "9000000000000000000",
                   "--ppc-target", "1800", "--ppc-expected", "9000000000000000000",
                   "--controller", "fixed", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: ConfigurationError: market prices could total more than 2**63 - 1: "
            "3 rows, the largest 5000000000000000000\n")
        assert not (tmp_path / "out").exists()

    def test_config_nested_past_the_recursion_limit_is_one_line_error(self, tmp_path, capsys):
        # json.load used to raise RecursionError
        config = tmp_path / "deep.json"
        config.write_text("[" * 200_000 + "]" * 200_000)
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigurationError: config {config}: not a JSON document: ")
        assert err.count("\n") == 1

    # 10**15 rows are past the address space, so the allocation is refused
    # before any memory is touched
    @pytest.mark.parametrize("argv", [
        ["run", "--synthetic", str(10**15), "--budget", "1000", "--ppc-target", "100"],
        ["gen-synthetic", "--n", str(10**15)],
    ], ids=["run", "gen-synthetic"])
    def test_log_too_large_to_allocate_is_one_line_error(self, tmp_path, capsys, argv):
        # numpy's _ArrayMemoryError used to end in a traceback
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: Unable to allocate ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # int() and float() read each of these; numpy's columnar reader reads none
    FIELD_TEXTS = pytest.mark.parametrize("column, text", [
        (0, "1_000"), (3, "1_0"), (1, "0.1_0"), (4, "\u0661"), (5, "\uff11"),
    ], ids=["ts-underscores", "price-underscore", "pctr-underscore", "arabic-indic-digit",
            "fullwidth-digit"])

    @staticmethod
    def rows_with(column: int, text: str, delimiter: str) -> str:
        """Two log rows, the second with ``text`` in ``column``."""
        rows = [["10", "0.01", "0.02", "70", "0", "0"], ["20", "0.03", "0.04", "80", "1", "1"]]
        rows[1][column] = text
        return "".join(delimiter.join(row) + "\n" for row in rows)

    @FIELD_TEXTS
    def test_run_rejects_log_field_the_columnar_reader_rejects(self, tmp_path, capsys,
                                                               column, text):
        # such a file used to load through the streaming fallback and run
        log = tmp_path / "log.csv"
        log.write_text("ts,pctr,pcvr,market_price,click,conversion\n"
                       + self.rows_with(column, text, ","), encoding="utf-8")
        rc = main(["run", "--log", str(log), "--budget", "50000", "--ppc-target", "1800",
                   "--controller", "fixed", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: MalformedRow: line 3: unparseable field "
                                           f"{text!r}: not ASCII, or holds '_'\n")
        assert not (tmp_path / "out").exists()

    @FIELD_TEXTS
    def test_convert_ipinyou_rejects_field_the_columnar_reader_rejects(self, tmp_path, capsys,
                                                                       column, text):
        # such a field used to be copied verbatim into the canonical file
        raw = tmp_path / "raw.tsv"
        raw.write_text(self.rows_with(column, text, "\t"), encoding="utf-8")
        rc = main(["convert-ipinyou", "--in", str(raw), "--out", str(tmp_path / "log.csv"),
                   "--col-ts", "0", "--col-pctr", "1", "--col-pcvr", "2",
                   "--col-price", "3", "--col-click", "4", "--col-conversion", "5"])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: MalformedRow: line 2: unparseable field "
                                           f"{text!r}: not ASCII, or holds '_'\n")

    def test_convert_ipinyou_empty_delimiter_is_one_line_error(self, tmp_path, capsys):
        # used to end in a ValueError: empty separator traceback
        raw = tmp_path / "raw.tsv"
        raw.write_text("10\t0.01\t0.02\t70\t0\t0\n")
        out = tmp_path / "canonical.csv"
        rc = main(["convert-ipinyou", "--in", str(raw), "--out", str(out), "--delimiter", "",
                   "--col-ts", "0", "--col-pctr", "1", "--col-pcvr", "2",
                   "--col-price", "3", "--col-click", "4", "--col-conversion", "5"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: ConfigurationError: "
                                           "--delimiter must not be empty\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("pad", ["\xa0", "\x1f"], ids=["no-break-space", "unit-separator"])
    def test_padded_field_in_log_is_one_line_error(self, tmp_path, capsys, pad):
        # numpy's reader used to strip the pad, and the run wrote its outputs
        log = tmp_path / "log.csv"
        log.write_text(f"ts,pctr,pcvr,market_price,click,conversion\n10,0.5{pad},0.5,100,1,1\n",
                       encoding="utf-8")
        rc = main(["run", "--log", str(log), "--budget", "1000", "--ppc-target", "100",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedRow: line 2: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, line", [
        (b"ts,pctr,pcvr,market_price,click,conversion\n1,0.01,0.02,70,0,0\n"
         b"2,0.0\xff1,0.02,70,0,0\n", 3),
        (b"ts,pctr\xff,pcvr,market_price,click,conversion\n1,0.01,0.02,70,0,0\n", 1),
    ], ids=["data-row", "header"])
    def test_non_utf8_log_is_one_line_error(self, tmp_path, capsys, text, line):
        log = tmp_path / "log.csv"
        log.write_bytes(text)
        rc = main(["run", "--log", str(log), "--budget", "1000", "--ppc-target", "100",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedRow: line {line}: ") and err.count("\n") == 1

    def test_wall_clock_log_of_too_many_windows_is_one_line_error(self, tmp_path, monkeypatch,
                                                                  capsys):
        # 4.4e9 empty 15-minute windows used to be walked one by one
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("rtblab.harness.build_controller", lambda *args: StopAt(10_000))
        log = tmp_path / "two.csv"
        log.write_text("ts,pctr,pcvr,market_price,click,conversion\n"
                       "0,0.5,0.5,10,0,0\n4000000000000000,0.5,0.5,10,0,0\n")
        rc = main(["run", "--log", str(log), "--budget", "100", "--ppc-target", "100",
                   "--period-ms", "900000", "--controller", "fixed"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigurationError: the log's 4000000000000000 ms "
                                       "span cuts into 4444444445 windows")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two.csv"]

    def test_non_utf8_convert_input_is_one_line_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_bytes(b"10\t0.01\t0.02\t70\t0\t0\n20\t0.0\xff\t0.04\t80\t1\t1\n")
        rc = main(["convert-ipinyou", "--in", str(raw), "--out", str(tmp_path / "c.csv"),
                   "--col-ts", "0", "--col-pctr", "1", "--col-pcvr", "2",
                   "--col-price", "3", "--col-click", "4", "--col-conversion", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedRow: line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, doc, message", [
        ("sweep-sparsity", {"p_list": 0.5}, "config: 'p_list' must be a list, got float"),
        ("run", [1], "must be a JSON object"),
        ("run", {**VALID_CONFIG, "log": 3}, "config section 'log': expected an object, got int"),
        ("run", {**VALID_CONFIG, "sim": [1]}, "config section 'sim': expected an object, got list"),
        ("run", {"sim": {"budget": 1}}, "config: missing field 'log'"),
        ("run", {**VALID_CONFIG, "sim": {"budget": "x"}},
         "config section 'sim': 'budget' must be an integer, got 'x'"),
        ("run", {**VALID_CONFIG, "controllers": 7}, "config: 'controllers' must be a list, got int"),
        ("run", {**VALID_CONFIG, "trials": "two"}, "config: 'trials' must be an integer, got 'two'"),
        ("run", {**VALID_CONFIG, "log": {"synthetic": {"n_rows": 5}}},
         "config section 'log': unknown key 'n_rows'"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp", "params": {"hiden_dim": 4}}]},
         "error: ConfigurationError: controller 'mlp': unknown key 'hiden_dim'; known keys: "
         "hidden_dim, learning_rate, grad_window, control_weight, u_max, feature_set, "
         "budget_error_mode, rng_seed\n"),  # the whole line: it names its place once
        ("run", {**VALID_CONFIG, "constraints": {"ppc_expected": 1800,
                                                 "kpis": [{"kind": "nope", "target": 1}]}},
         "config section 'constraints': 'nope' is not a valid KpiKind"),
        ("run", {**VALID_CONFIG, "controllers": [{"name": "a"}]},
         "config controller 0: missing field 'kind'"),
        ("run", {**VALID_CONFIG, "log": {"path": 7}}, "log path and out_dir must be strings"),
        ("run", {**VALID_CONFIG, "out_dir": 7}, "log path and out_dir must be strings"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp", "params": {"rng_seed": "x"}}]},
         "controller 'mlp': 'rng_seed' must be an integer, got 'x'"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp", "params": {"rng_seed": True}}]},
         "controller 'mlp': 'rng_seed' must be an integer, got True"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp", "params": {"grad_window": True}}]},
         "controller 'mlp': 'grad_window' must be an integer, got True"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp",
                                                  "params": {"learning_rate": float("nan")}}]},
         "controller 'mlp': 'learning_rate' must be finite, got nan"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "pid", "params": {"kp": float("inf")}}]},
         "controller 'pid': 'kp' must be finite, got inf"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "pid", "params": {"rng_seed": 1}}]},
         "controller 'pid': unknown key 'rng_seed'"),
        ("ablation", {**VALID_CONFIG, "controllers": [{"kind": "mlp",
                                                       "params": {"feature_set": "most"}}]},
         "controller 'mlp': 'most' is not a valid FeatureSet"),
        ("run", {**VALID_CONFIG, "sim": {"budget": 50_000, "period_bid": 10}},
         "config section 'sim': unknown key 'period_bid'"),
        ("run", {**VALID_CONFIG, "trails": 5}, "config: unknown key 'trails'"),
        ("run", {**VALID_CONFIG, "trails": 5, "seed": 1}, "config: unknown keys 'trails', 'seed'"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp", "parms": {}}]},
         "config controller 0: unknown key 'parms'"),
        ("run", {**VALID_CONFIG, "constraints": {
            "ppc_expected": 1800, "kpis": [{"kind": "ppc_target", "target": 1800, "weight": 2}]}},
         "config section 'constraints': unknown key 'weight'"),
        ("run", {**VALID_CONFIG, "constraints": {**VALID_CONFIG["constraints"], "ppc": 1}},
         "config section 'constraints': unknown key 'ppc'"),
        ("run", {**VALID_CONFIG, "log": {"synthetic": {"n_records": 400}, "pth": "x"}},
         "config section 'log': unknown key 'pth'"),
        ("sweep-sparsity", {"command": "sweep-sparsity", "spec": VALID_CONFIG, "p_lst": [0.5]},
         "manifest: unknown key 'p_lst'"),
        ("run", {**VALID_CONFIG, "sim": {"budget": 50_000, "dropout_seed": 12345}},
         "sim.dropout_seed must be 0: the dropout mask of each trial is seeded by "
         "(base_seed, trial)"),
        ("sweep-sparsity", {**VALID_CONFIG, "p_list": [True, "0.5"]},
         "config: 'p_list' must be a number, got True"),
        ("sweep-sparsity", {**VALID_CONFIG, "p_list": []},
         "a sweep needs at least one dropout level"),
        ("run", {**VALID_CONFIG, "p_list": [0.5]}, "config: unknown key 'p_list'"),
        ("run", {"command": "run", "spec": VALID_CONFIG, "p_list": [0.5]},
         "manifest: unknown key 'p_list'"),
        ("sweep-sparsity", {"command": "sweep-sparsity", "spec": {**VALID_CONFIG, "p_list": [0.5]}},
         "config: unknown key 'p_list'"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp", "params": {"rng_seed": -1}}]},
         "controller 'mlp': rng_seed must be >= 0, got -1"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp",
                                                  "params": {"grad_window": 10**20}}]},
         "controller 'mlp': 'grad_window' must fit a signed 64-bit integer"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "pid", "params": {"u_init": 0}}]},
         "controller 'pid': u_init must be positive and finite, got 0.0"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "fixed", "name": 7}]},
         "config controller 0: controller name must be a string, got 7"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "fixed", "name": "a\rb"}]},
         "config controller 0: controller name 'a\\rb' holds a carriage return"),
        ("run", {**VALID_CONFIG, "sim": {"budget": 50_000, "period_ms": 5000}},
         "config section 'sim': period_ms is unused in count mode; leave it at its default 900000"),
        ("run", {**VALID_CONFIG, "sim": {"budget": 50_000, "period_mode": "wall_clock",
                                         "period_ms": 5000, "period_bids": 7}},
         "config section 'sim': period_bids is unused in wall_clock mode; "
         "leave it at its default 1000"),
        ("run", {**VALID_CONFIG, "controllers": [{"kind": "mlp",
                                                  "params": {"budget_error_mode": "paced"}}]},
         "controller 'mlp': budget_error_mode 'paced' needs a budget constraint to pace"),
        # checked when the spec is built, so before a log that is not there
        ("run", {**VALID_CONFIG, "log": {"path": "missing.csv"},
                 "controllers": [{"kind": "mlp", "params": {"budget_error_mode": "paced"}}]},
         "controller 'mlp': budget_error_mode 'paced' needs a budget constraint to pace"),
        ("run", {**VALID_CONFIG, "log": {"path": "missing.csv"},
                 "controllers": [{"kind": "pid", "name": "tracker"}],
                 "constraints": {"ppc_expected": 1800,
                                 "kpis": [{"kind": "budget", "target": 50_000}]}},
         "controller 'tracker': PID controller needs a PPC_TARGET constraint to track"),
        ("ablation", {**VALID_CONFIG, "controllers": [{"kind": "mlp",
                                                       "params": {"feature_set": "full"}}]},
         "ablation sets the mlp's feature_set itself; remove feature_set from its params"),
        ("sweep-sparsity", {**VALID_CONFIG, "sim": {"budget": 50_000, "dropout_p": 0.7}},
         "a sweep's dropout levels replace sim.dropout_p (--dropout)"),
        ("run", {**VALID_CONFIG, "constraints": {
            "ppc_expected": 1800, "kpis": {"kind": "ppc_target", "target": 1800}}},
         "config section 'constraints': 'kpis' must be a list, got dict"),
        ("run", {**VALID_CONFIG, "constraints": {"ppc_expected": 1800, "kpis": 5}},
         "config section 'constraints': 'kpis' must be a list, got int"),
        ("run", {**VALID_CONFIG, "constraints": {"kpis": VALID_CONFIG["constraints"]["kpis"]}},
         "config section 'constraints': missing field 'ppc_expected'"),
        ("run", {"command": "run", "spec": [1]}, "config: expected an object, got list"),
    ], ids=["p_list-not-list", "top-level-not-object", "log-not-object", "sim-not-object",
            "log-missing", "budget-not-int", "controllers-not-list", "trials-not-int",
            "unknown-synthetic-key", "unknown-controller-param", "unknown-kpi-kind",
            "controller-without-kind", "log-path-not-string", "out-dir-not-string",
            "rng-seed-not-int", "rng-seed-bool", "grad-window-bool", "learning-rate-nan",
            "kp-infinity", "pid-rng-seed", "unknown-feature-set", "unknown-sim-key",
            "unknown-top-level-key", "unknown-top-level-keys", "unknown-controller-key",
            "unknown-kpi-key", "unknown-constraints-key", "unknown-log-key",
            "unknown-manifest-key", "nonzero-dropout-seed", "p_list-bool-and-string",
            "p_list-empty", "p_list-given-to-run", "p_list-in-run-manifest",
            "p_list-inside-manifest-spec", "rng-seed-negative", "grad-window-huge-int",
            "u-init-zero", "name-not-string", "name-with-carriage-return",
            "period-ms-in-count-mode", "period-bids-in-wall-clock-mode", "paced-without-budget",
            "paced-without-budget-missing-log", "pid-without-ppc-target-missing-log",
            "feature-set-in-ablation", "dropout-in-sweep", "kpis-object", "kpis-int",
            "ppc-expected-missing", "manifest-spec-not-object"])
    def test_config_of_wrong_shape_is_one_line_error(self, tmp_path, monkeypatch, capsys,
                                                     command, doc, message):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        rc = main([command, "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, field, value, message", [
        ("sim", "budget", 1000.9, "config section 'sim': 'budget' must be an integer, got 1000.9"),
        ("sim", "period_bids", 2.7, "config section 'sim': 'period_bids' must be an integer"),
        ("sim", "period_ms", 5000.0, "config section 'sim': 'period_ms' must be an integer"),
        ("sim", "dropout_p", True, "config section 'sim': 'dropout_p' must be a number, got True"),
        (None, "trials", True, "config: 'trials' must be an integer, got True"),
        (None, "base_seed", 1.5, "config: 'base_seed' must be an integer, got 1.5"),
        ("synthetic", "n_records", 100.5,
         "config section 'log': 'n_records' must be an integer, got 100.5"),
        ("synthetic", "seed", "3", "config section 'log': 'seed' must be an integer, got '3'"),
        ("synthetic", "ctr_true", False, "config section 'log': 'ctr_true' must be a number"),
        ("constraints", "ppc_expected", True,
         "config section 'constraints': 'ppc_expected' must be an integer, got True"),
        ("kpi", "target", 1800.0,
         "config section 'constraints': 'target' must be an integer, got 1800.0"),
        ("kpi", "error_weight", "2", "config section 'constraints': 'error_weight' must be a number"),
        ("kpi", "error_weight", 10**400, "config section 'constraints': int too large"),
        ("kpi", "error_weight", float("nan"),
         "config section 'constraints': 'error_weight' must be finite, got nan"),
        ("synthetic", "price_log_mean", float("nan"),
         "config section 'log': 'price_log_mean' must be finite, got nan"),
        ("controller", "u_const", float("nan"),
         "controller 'fixed': 'u_const' must be finite, got nan"),
        ("controller", "u_const", True,
         "controller 'fixed': 'u_const' must be a number, got True"),
        (None, "base_seed", -1, "base_seed must be >= 0, got -1"),
        ("synthetic", "seed", -1, "config section 'log': seed must be >= 0, got -1"),
        ("sim", "dropout_seed", -1, "config section 'sim': dropout_seed must be >= 0, got -1"),
        ("sim", "budget", 10**400,
         "config section 'sim': 'budget' must fit a signed 64-bit integer"),
        ("constraints", "ppc_expected", 10**400,
         "config section 'constraints': 'ppc_expected' must fit a signed 64-bit integer"),
        ("kpi", "target", 2**63,
         "config section 'constraints': 'target' must fit a signed 64-bit integer"),
        ("synthetic", "n_records", -2**63 - 1,
         "config section 'log': 'n_records' must fit a signed 64-bit integer"),
    ], ids=["budget-float", "period_bids-float", "period_ms-float", "dropout_p-bool",
            "trials-bool", "base_seed-float", "n_records-float", "synth-seed-string",
            "ctr_true-bool", "ppc_expected-bool", "target-float", "error_weight-string",
            "error_weight-huge-int", "error_weight-nan", "price_log_mean-nan",
            "u_const-nan", "u_const-bool", "base_seed-negative", "synth-seed-negative",
            "dropout_seed-negative", "budget-huge-int", "ppc_expected-huge-int",
            "target-2**63", "n_records-below-int64"])
    def test_config_number_of_wrong_type_is_one_line_error(self, tmp_path, monkeypatch, capsys,
                                                          section, field, value, message):
        # each of these used to run (cast by int()/float()) or end in a traceback
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(VALID_CONFIG))
        {None: doc, "sim": doc["sim"], "synthetic": doc["log"]["synthetic"],
         "constraints": doc["constraints"], "kpi": doc["constraints"]["kpis"][0],
         "controller": doc["controllers"][0].setdefault("params", {})}[section][field] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "ablation"])
    def test_sweep_manifest_under_another_command_is_one_line_error(self, tmp_path, capsys,
                                                                    command):
        # a sweep manifest used to run its spec once, its p_list ignored
        spec = small_spec(tmp_path / "a", (ControllerSpec(kind="mlp"),), trials=2)
        paths = sweep_sparsity(spec, [0.25, 0.75])
        rc = main([command, "--config", str(paths["manifest"]), "--out", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert f"a manifest of command 'sweep-sparsity' cannot be run by '{command}'" in err
        assert not (tmp_path / "b").exists()

    def test_python_dash_m_runs_from_a_source_checkout(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "rtblab", "--help"], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: rtblab")

    @pytest.mark.parametrize("flag", [
        ["--log", "log.csv"], ["--synthetic", "400"], ["--synth-seed", "0"],
        ["--controller", "pid"], ["--preset", "tight"], ["--budget", "5"],
        ["--ppc-target", "1800"], ["--ppc-expected", "15"], ["--multi"],
        ["--period-bids", "50"], ["--period-ms", "5000"], ["--dropout", "0"], ["--seed", "0"],
    ], ids=lambda flag: flag[0])
    def test_spec_flag_with_config_is_one_line_error(self, tmp_path, monkeypatch, capsys, flag):
        # --config describes the whole spec; a spec flag next to it used to be dropped
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(VALID_CONFIG))
        rc = main(["run", "--config", str(config), *flag, "--out", "given"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert f"{flag[0]} cannot be given with --config" in err
        assert not (tmp_path / "given").exists() and not (tmp_path / "out").exists()

    def test_sweep_dropout_flag_is_one_line_error(self, tmp_path, capsys):
        # the levels replace --dropout, which used to be ignored without a word
        rc = main(["sweep-sparsity", "--synthetic", "400", "--budget", "50000",
                   "--ppc-target", "1800", "--dropout", "0.7", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert "replace sim.dropout_p (--dropout)" in err
        assert not (tmp_path / "out").exists()

    def test_period_bids_with_period_ms_is_one_line_error(self, tmp_path, capsys):
        rc = main(["run", "--synthetic", "400", "--budget", "50000", "--ppc-target", "1800",
                   "--period-bids", "50", "--period-ms", "5000", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert "--period-bids" in err and "--period-ms" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seed", "-1"], "base_seed must be >= 0, got -1"),
        (["run", "--synth-seed", "-1"], "config section 'log': seed must be >= 0, got -1"),
        (["run", "--ppc-expected", str(10**400)],
         "config section 'constraints': 'ppc_expected' must fit a signed 64-bit integer"),
        (["run", "--budget", str(10**400)],
         "config section 'sim': 'budget' must fit a signed 64-bit integer"),
        (["gen-synthetic", "--seed", "-1"], "gen-synthetic: seed must be >= 0, got -1"),
    ], ids=["seed", "synth-seed", "ppc-expected", "budget", "gen-synthetic-seed"])
    def test_out_of_range_integer_flag_is_one_line_error(self, tmp_path, monkeypatch, capsys,
                                                         argv, message):
        # a negative seed used to end in a ValueError traceback, a 400-digit
        # --ppc-expected in an OverflowError, and a 400-digit budget ran
        monkeypatch.chdir(tmp_path)
        base = (["gen-synthetic", "--n", "100", "--out", "log.csv"] if argv[0] == "gen-synthetic"
                else ["run", "--synthetic", "400", "--budget", "50000", "--ppc-target", "1800"])
        rc = main(base + argv[1:])
        assert rc == 2
        assert capsys.readouterr().err == f"error: ConfigurationError: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, rc, message", [
        (["--synthetic", "400", "--ppc-target", "1800"], 2,
         "ConfigurationError: need --budget and --ppc-target (or --preset / --config)"),
        (["--synthetic", "400", "--log", "log.csv", "--budget", "1000", "--ppc-target", "1800"], 2,
         "ConfigurationError: specify exactly one of --log / --synthetic"),
        (["--log", "a_dir", "--budget", "1000", "--ppc-target", "1800"], 1,
         "IsADirectoryError: [Errno 21] Is a directory: 'a_dir'"),
        (["--synthetic", "400", "--budget", "1000", "--ppc-target", "1800", "--out", "a_file"], 1,
         "FileExistsError: [Errno 17] File exists: 'a_file'"),
    ], ids=["no-budget", "log-and-synthetic", "log-is-directory", "out-is-file"])
    def test_run_flag_errors(self, tmp_path, monkeypatch, capsys, argv, rc, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("")
        assert main(["run", *argv]) == rc
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file"]

    @pytest.mark.parametrize("written", ["underscore", "full-width"])
    @pytest.mark.parametrize("argv, flag, kind", [
        (["run", *_SPEC_FLAGS], "--seed", int),
        (["run", *_SPEC_FLAGS], "--dropout", float),
        (["sweep-sparsity", *_SPEC_FLAGS, "--trials", "1"], "--p-list", float),
        (["gen-synthetic", "--out", "log.csv"], "--n", int),
        (["gen-synthetic", "--n", "10", "--out", "log.csv"], "--ctr", float),
        (["convert-ipinyou", "--in", "raw.tsv", "--out", "log.csv", "--col-pctr", "1",
          "--col-pcvr", "2", "--col-price", "3", "--col-click", "4", "--col-conversion", "5"],
         "--col-ts", int),
    ], ids=["int-spec-flag", "float-spec-flag", "p-list", "gen-synthetic-n",
            "gen-synthetic-ctr", "col-flag"])
    def test_numeric_flag_is_read_as_a_log_field(self, tmp_path, monkeypatch, capsys,
                                                 argv, flag, kind, written):
        # int() and float() also read '_' separators and non-ASCII digits, so
        # "--seed 1_0" used to run with seed 10, as "１０" did
        monkeypatch.chdir(tmp_path)
        (tmp_path / "raw.tsv").write_text("\t".join(["0"] * 11) + "\n")
        digits = {"underscore": "1_0", "full-width": "１０"}[written]
        value = digits if kind is int else "0." + digits
        assert main([*argv, flag, value]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: ConfigurationError: argument {flag}: "
                                  f"invalid {kind.__name__} value: {value!r}\n")
        assert os.listdir(tmp_path) == ["raw.tsv"]

    @pytest.mark.parametrize("argv, message", [
        (["run", "--synthetic", "100", "--budget", "x", "--ppc-target", "1800"],
         "argument --budget: invalid int value: 'x'"),
        (["run", *_SPEC_FLAGS, "--controller", "nope"],
         "argument --controller: invalid choice: 'nope'"),
        (["run", *_SPEC_FLAGS, "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["gen-synthetic", "--out", "log.csv"], "the following arguments are required: --n"),
    ], ids=["bad-int", "bad-choice", "unknown-flag", "no-subcommand", "missing-required"])
    def test_usage_error_is_one_line(self, tmp_path, monkeypatch, capsys, argv, message):
        # each used to print argparse's usage block above its own error line
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: ConfigurationError: {message}")
        assert os.listdir(tmp_path) == []

    def test_controller_names_are_quoted_in_csvs(self, tmp_path):
        # "a,b" used to write an 8-field row under the 7-column header, and a
        # newline split its row in two
        names = ("a,b", 'say "hi"', "two\nlines")
        controllers = [ControllerSpec(kind=kind, name=name)
                       for kind, name in zip(("fixed", "pid", "mlp"), names)]
        paths = run_experiment(small_spec(tmp_path / "a", controllers))
        for key, width in (("metrics", 7), ("trace", 9)):
            with open(paths[key], encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert len(header) == width and all(len(row) == width for row in rows)
            assert {row[0] for row in rows} == set(names)
        rc = main(["run", "--config", str(paths["manifest"]), "--out", str(tmp_path / "b")])
        assert rc == 0
        for name in ("metrics.csv", "trace.csv"):
            assert (tmp_path / "b" / name).read_bytes() == paths[name[:-4]].read_bytes()

    def test_config_with_out_trials_and_p_list(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**VALID_CONFIG, "p_list": [0.1, 0.2, 0.3]}))
        assert main(["sweep-sparsity", "--config", str(config), "--out", "given",
                     "--trials", "3", "--p-list", "0.5"]) == 0
        manifest = json.loads(read(tmp_path / "given" / "sweep_manifest.json"))
        assert manifest["p_list"] == [0.5]
        assert manifest["spec"]["trials"] == 3 and manifest["spec"]["out_dir"] == "given"
        assert not (tmp_path / "out").exists()

    def test_valid_config_base_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(VALID_CONFIG))
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_repeated_controller_name_is_one_line_error(self, tmp_path, capsys):
        rc = main(["sweep-sparsity", "--synthetic", "2000", "--controller", "mlp",
                   "--controller", "mlp", "--budget", "5000", "--ppc-target", "1800",
                   "--trials", "3", "--p-list", "0.5", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: ") and err.count("\n") == 1
        assert "controller name 'mlp' is used more than once" in err
        assert "distinct name" in err
        assert not (tmp_path / "out").exists()

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

    def test_empty_p_list_flag_is_one_line_error(self, tmp_path, capsys):
        # an empty token used to be dropped: "0.1,,0.2" ran two levels
        for text in (",", "0.1,,0.2", "0.1,"):
            rc = main(["sweep-sparsity", "--synthetic", "400", "--budget", "50000",
                       "--ppc-target", "1800", "--trials", "1", "--p-list", text,
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err == ("error: ConfigurationError: argument --p-list: "
                           "invalid float value: ''\n")
            assert not (tmp_path / "out").exists()

    def test_config_file_runs(self, tmp_path):
        spec = small_spec(tmp_path / "out", (ControllerSpec(kind="fixed"),))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec_to_dict(spec)))
        rc = main(["run", "--config", str(config)])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_manifest_reruns_byte_identical(self, tmp_path):
        for dropout_p in (0.0, 0.3):
            a, b = tmp_path / f"a{dropout_p}", tmp_path / f"b{dropout_p}"
            spec = small_spec(a, (ControllerSpec(kind="mlp"),),
                              sim=SimConfig(budget=100_000, period_bids=100, dropout_p=dropout_p))
            paths = run_experiment(spec)
            rc = main(["run", "--config", str(paths["manifest"]), "--out", str(b)])
            assert rc == 0
            assert read(paths["metrics"]) == read(b / "metrics.csv")
            assert read(paths["trace"]) == read(b / "trace.csv")

    @pytest.mark.parametrize("command, driver, controller, levels", [
        ("run", run_experiment, ControllerSpec(kind="mlp", params={"feature_set": FeatureSet.PRIOR}),
         ()),
        ("sweep-sparsity", sweep_sparsity, ControllerSpec(kind="pid"), ([np.int64(0), 0.5],)),
        ("ablation", run_ablation, ControllerSpec(kind="mlp"), ()),
    ], ids=["run", "sweep-sparsity", "ablation"])
    def test_library_spec_writes_the_manifest_it_reruns_as(self, tmp_path, command, driver,
                                                            controller, levels):
        # the enum and np.int64 used to fail mid-manifest after every campaign
        # ran; the ints in float fields were written as ints, and re-run as floats
        a, b = tmp_path / "a", tmp_path / "b"
        spec = small_spec(a, (controller,), trials=2,
                          constraints=ppc_constraints(1800, ppc_expected=1800, ppc_weight=1),
                          sim=SimConfig(budget=np.int64(100_000), period_bids=100, dropout_p=0))
        paths = driver(spec, *levels)
        manifest = json.loads(read(paths["manifest"]))
        assert manifest["spec"]["sim"]["dropout_p"] == 0.0
        assert manifest["spec"]["constraints"]["kpis"][0]["error_weight"] == 1.0
        if command == "run":  # an enum in params is written as its value
            assert manifest["spec"]["controllers"][0]["params"] == {"feature_set": "prior"}
        assert main([command, "--config", str(paths["manifest"]), "--out", str(b)]) == 0
        for path in paths.values():
            assert read(b / path.name).replace(str(b), str(a)) == read(path)

    def test_sweep_manifest_rerun_restores_p_list(self, tmp_path):
        # a library sweep of a spec with sim.dropout_p 0.3 (its levels replace
        # it) wrote a manifest whose re-run used to be refused
        for dropout_p in (0.0, 0.3):
            a, b = tmp_path / f"a{dropout_p}", tmp_path / f"b{dropout_p}"
            spec = small_spec(a, (ControllerSpec(kind="mlp"),), trials=2,
                              sim=SimConfig(budget=100_000, period_bids=100, dropout_p=dropout_p))
            paths = sweep_sparsity(spec, [0.25, 0.75])
            rc = main(["sweep-sparsity", "--config", str(paths["manifest"]), "--out", str(b)])
            assert rc == 0
            assert read(paths["sweep"]) == read(b / "sweep.csv")
            assert read(paths["trials"]) == read(b / "sweep_trials.csv")

    def test_config_sweep_without_trials_runs_the_sweep_default(self, tmp_path, monkeypatch,
                                                                capsys):
        # it used to run the spec's default of 1 trial, while --help said 100
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**VALID_CONFIG, "p_list": [0.5]}))
        assert main(["sweep-sparsity", "--config", str(config)]) == 0
        assert len(read(tmp_path / "out" / "sweep_trials.csv").splitlines()) == 1 + 100
        assert read(tmp_path / "out" / "sweep.csv").splitlines()[1].split(",")[2] == "100"
        with pytest.raises(SystemExit):
            main(["sweep-sparsity", "--help"])
        assert "repeated trials (default 100)" in " ".join(capsys.readouterr().out.split())

    def test_run_help_reads_its_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for name, preset in PRESETS.items():
            assert f"{name} (budget {preset['budget']}, PPC {preset['ppc']})" in out
        for what, default in [("synthetic log seed", SynthConfig.seed),
                              ("opportunities per control period", SimConfig.period_bids),
                              ("probability of dropping each record", SimConfig.dropout_p),
                              ("base seed", ExperimentSpec.base_seed)]:
            assert f"{what} (default {default})" in out

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


FLOAT_FIELDS = [(cls, name) for cls in (KpiConstraint, SimConfig, SynthConfig, PidConfig,
                                         MlpControllerConfig, FixedBidController)
                for name, kind in get_type_hints(cls).items() if kind is float]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_config_float_field_must_be_finite(cls, name, value):
    # a Python caller bypasses the reader's finiteness check; NaN used to
    # pass every comparison in __post_init__
    required = {KpiConstraint: {"kind": KpiKind.PPC_TARGET, "target": 1800},
                SimConfig: {"budget": 1000}}.get(cls, {})
    with pytest.raises(ConfigurationError):
        cls(**required, **{name: value})


@pytest.mark.parametrize("build, message", [
    (lambda out: ControllerSpec(kind="nope"),
     "unknown controller kind 'nope', expected one of ('mlp', 'pid', 'fixed')"),
    (lambda out: small_spec(out, synth=None),
     "specify exactly one log source (log_path or synth)"),
    (lambda out: small_spec(out, controllers=()), "need at least one controller"),
    (lambda out: small_spec(out, trials=0), "trials must be >= 1"),
    (lambda out: small_spec(out, base_seed=-1), "base_seed must be >= 0, got -1"),
    (lambda out: spec_from_dict({**VALID_CONFIG, "controllers": [7]}),
     "config controller 0: expected an object, got int"),
    (lambda out: sweep_sparsity(small_spec(out), [1.5]), "dropout_p must lie in [0, 1], got 1.5"),
    (lambda out: sweep_sparsity(small_spec(out), [0.2, "0.5"]),
     "config: 'p_list' must be a number, got '0.5'"),
    # a bool level used to run as 0.0 or 1.0
    (lambda out: sweep_sparsity(small_spec(out), [True]),
     "config: 'p_list' must be a number, got True"),
    # the levels are checked before the log is read
    (lambda out: sweep_sparsity(small_spec(out, log_path=str(out.parent / "missing.csv"),
                                            synth=None), [0.5, 1.5]),
     "dropout_p must lie in [0, 1], got 1.5"),
    # each spec below ran, then wrote a manifest that a --config re-run refuses
    (lambda out: run_experiment(small_spec(out, sim=SimConfig(budget=100_000.5))),
     "config section 'sim': 'budget' must be an integer, got 100000.5"),
    (lambda out: run_experiment(small_spec(out, trials=True)),
     "config: 'trials' must be an integer, got True"),
    (lambda out: run_ablation(small_spec(out, (ControllerSpec(kind="mlp"),),
                                         sim=SimConfig(budget=100_000, dropout_p=True))),
     "config section 'sim': 'dropout_p' must be a number, got True"),
    # it used to replay every campaign, then fail mid-manifest
    (lambda out: sweep_sparsity(small_spec(out, sim=SimConfig(budget=Decimal(100_000))), [0.5]),
     "manifest: Object of type Decimal is not JSON serializable"),
], ids=["unknown-kind", "no-log-source", "no-controllers", "zero-trials", "negative-base-seed",
        "controller-not-object", "dropout-level-above-one", "dropout-level-text",
        "dropout-level-bool", "dropout-level-before-missing-log", "budget-fraction",
        "trials-bool", "dropout-bool", "value-json-cannot-hold"])
def test_harness_rejects_bad_spec(tmp_path, build, message):
    with pytest.raises(ConfigurationError) as exc:
        build(tmp_path / "out")
    assert str(exc.value) == message
    assert not (tmp_path / "out").exists()


def test_readme_library_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("PeriodFeedback(")


def test_all_names_exactly_the_public_bindings():
    # a name dropped from the imports must leave __all__ too, and the reverse
    import rtblab
    bound = set()
    for node in ast.parse(Path(rtblab.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    assert sorted(rtblab.__all__) == sorted(name for name in bound if not name.startswith("_"))


def readme_cli_commands() -> list[list[str]]:
    """The argv of every ``rtblab`` command in README's CLI code block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rtblab ")]


class TestReadmeCli:
    COMMANDS = readme_cli_commands()

    def test_every_subcommand_has_an_example(self):
        assert {argv[0] for argv in self.COMMANDS} == {
            "gen-synthetic", "run", "sweep-sparsity", "ablation", "convert-ipinyou"}

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_example_parses_and_builds_its_spec(self, argv, monkeypatch, tmp_path):
        built = []

        def record(spec, *levels):
            built.append(spec)
            return {}

        def generate(config):
            built.append(config)
            return generate_synthetic(SynthConfig(n_records=0))
        for driver in ("run_experiment", "sweep_sparsity", "run_ablation"):
            monkeypatch.setattr(cli, driver, record)
        monkeypatch.setattr(cli, "generate_synthetic", generate)
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(argv)
        if argv[0] == "convert-ipinyou":
            return  # parsed only: running it reads a real file
        assert args.func(args) == 0
        if argv[0] == "gen-synthetic":
            # every flag the example leaves out takes SynthConfig's default
            assert built == [SynthConfig(n_records=100000, ctr_true=0.05, cvr_true=0.2, seed=7)]
        else:
            assert len(built) == 1 and isinstance(built[0], ExperimentSpec)
