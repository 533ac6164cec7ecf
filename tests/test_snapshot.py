"""``bench/snapshot.py`` run on canned benchmark results: ``run_once``,
``export_tree`` and ``git`` are replaced, so no process is started."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "snapshot.py"
_spec = importlib.util.spec_from_file_location("snapshot", _PATH)
snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot)

BASELINE_HASH, HEAD_HASH = "a" * 40, "b" * 40
WORKLOADS = [w["name"] for w in json.loads(
    (snapshot.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def canned_metrics(side: str, seed: int) -> dict:
    """Per seed 10-19: the current side wins 6 pairs on op_s_p50 (lower is
    better) and rows_per_s (higher is better), ties 2 and loses 2; every
    peak_rss_mb pair is a tie."""
    k = seed - 10
    if side == "baseline":
        return {"op_s_p50": 2.0, "rows_per_s": 100.0, "peak_rss_mb": 50.0}
    return {"op_s_p50": 1.0 if k < 6 else 2.0 if k < 8 else 3.0,
            "rows_per_s": 150.0 if k < 6 else 100.0 if k < 8 else 50.0,
            "peak_rss_mb": 50.0}


@pytest.fixture
def fake(monkeypatch, tmp_path):
    """Canned stand-ins; returns the list of run_once calls, as (side,
    workload, seed, trace)."""
    baseline_tree = tmp_path / "baseline-tree"
    sides = {snapshot.ROOT: "current", baseline_tree: "baseline"}
    calls = []

    def run_once(tree, workload, seed, seconds, trace):
        side = sides[tree]
        calls.append((side, workload, seed, trace))
        metrics = canned_metrics(side, seed)
        if trace:
            metrics["data.parse_s"] = 0.1
        return {"correct": True, "failed": 0, "metrics": metrics, "env": {"side": side}}

    def git(*cmd):
        if cmd[:2] == ("rev-parse", "--verify"):
            return BASELINE_HASH if cmd[-1] == "good^{commit}" else ""
        return HEAD_HASH if cmd == ("rev-parse", "HEAD") else ""

    def export_tree(commit):
        assert commit == BASELINE_HASH
        return baseline_tree

    def no_process(*args, **kwargs):
        raise AssertionError(f"a process was started: {args}")

    monkeypatch.setattr(snapshot, "run_once", run_once)
    monkeypatch.setattr(snapshot, "git", git)
    monkeypatch.setattr(snapshot, "export_tree", export_tree)
    monkeypatch.setattr(snapshot.subprocess, "run", no_process)
    return calls


def snap(tmp_path, *args) -> dict:
    out = tmp_path / "bench.json"
    assert snapshot.main(["--out", str(out), *args]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_paired_snapshot(fake, tmp_path):
    out = snap(tmp_path, "--baseline-rev", "good")
    assert sorted(out["workloads"]) == sorted(WORKLOADS)
    assert out["trees"] == {"current": {"commit": HEAD_HASH, "modified": False},
                            "baseline": {"commit": BASELINE_HASH}}
    assert out["env"] == {"current": {"side": "current"}, "baseline": {"side": "baseline"}}
    for workload, entry in out["workloads"].items():
        firsts = [pair["first"] for pair in entry["pairs"]]
        assert firsts == ["baseline", "current"] * 5
        untraced = [(side, seed) for side, w, seed, trace in fake if w == workload and not trace]
        assert untraced[::2] == [(first, seed) for first, seed in zip(firsts, snapshot.SEEDS)]
        assert entry["pairs_won"] == {
            "op_s_p50": {"current": 6, "baseline": 2, "ties": 2},
            "rows_per_s": {"current": 6, "baseline": 2, "ties": 2},
            "peak_rss_mb": {"current": 0, "baseline": 0, "ties": 10}}
        assert entry["median_change"] == pytest.approx(
            {"op_s_p50": -0.5, "rows_per_s": 0.5, "peak_rss_mb": 0.0})
        assert entry["current"]["summary"]["op_s_p50"]["median"] == 1.0
        assert entry["current"]["correct"] and entry["current"]["failed"] == 0
        assert entry["traced"]["current"]["data.parse_s"] == 0.1
        assert set(entry["traced"]) == {"seed", "runs", "current", "baseline"}


def test_snapshot_without_a_baseline_has_only_the_current_side(fake, tmp_path):
    out = snap(tmp_path)
    assert sorted(out["workloads"]) == sorted(WORKLOADS)
    assert set(out["trees"]) == set(out["env"]) == {"current"}
    assert {side for side, *_ in fake} == {"current"}
    for entry in out["workloads"].values():
        assert set(entry) == {"current", "pairs", "traced"}
        assert [set(pair) for pair in entry["pairs"]] == [{"seed", "first", "current"}] * 10
        assert set(entry["traced"]) == {"seed", "runs", "current"}


def test_an_unknown_baseline_rev_exits_before_any_run(fake, tmp_path):
    with pytest.raises(SystemExit) as exc:
        snapshot.main(["--out", str(tmp_path / "bench.json"), "--baseline-rev", "nope"])
    assert str(exc.value) == "--baseline-rev 'nope' names no commit"
    assert fake == [] and not (tmp_path / "bench.json").exists()
