"""Write a BENCH snapshot: the benchmark's end-to-end metrics over a fixed
seed set, optionally paired against a baseline tree, plus one traced seed.

    python3 bench/snapshot.py --out BENCH_23.json --baseline-rev b90a301

Each run is one ``perfbench/run.py`` process, started in the tree it
measures, for every workload of ``BENCHMARK.json`` at its ``run_seconds``
and every seed of ``SEEDS``.  With a baseline, every seed is one pair: the baseline and the
current tree run back to back, and the side that runs first alternates
from pair to pair, so a slow or fast spell of the host lands on both sides
alike.  The file holds the ``env`` block of each side, every run's
metrics, each metric's median and interquartile range per side, the pairs
each side won, and the per-layer metrics of the first seed, traced, per side
(the median of a few interleaved traced runs).  It measures and gates nothing.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"  # exported baseline trees
# one run (or pair) per seed, for every workload
SEEDS = tuple(range(10, 20))
# traced runs per side of the first seed, interleaved; a single traced run
# spreads too widely on a shared host, so each per-layer metric is their median
TRACE_RUNS = 3


def export_tree(commit: str) -> Path:
    """The committed files of ``commit``, a full hash, unpacked under
    ``.bench_build/<commit>``; a hash names one tree, so an earlier export
    of it is reused."""
    dest = BUILD / commit
    if not (dest / "perfbench" / "run.py").is_file():
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        with tempfile.TemporaryFile() as archive:
            subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=archive,
                           check=True)
            archive.seek(0)
            with tarfile.open(fileobj=archive) as tar:
                if hasattr(tarfile, "data_filter"):
                    tar.extractall(dest, filter="data")
                else:
                    tar.extractall(dest)
    return dest


def git(*cmd: str) -> str:
    """Standard output of one git command in this checkout; "" when it fails."""
    proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its last output line, plus its ``env`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "env": env}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], names: list[str]) -> dict:
    return {name: spread([r["metrics"][name] for r in runs]) for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline-rev", help="a git revision to export and pair against")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    trace_seed = SEEDS[0]
    trees = {"current": ROOT}
    if args.baseline_rev:
        # resolved once: a ref such as HEAD or a branch may move between runs
        baseline = git("rev-parse", "--verify", "--quiet", args.baseline_rev + "^{commit}")
        if not baseline:
            raise SystemExit(f"--baseline-rev {args.baseline_rev!r} names no commit")
        trees["baseline"] = export_tree(baseline)

    out = {"command": ["python3", "bench/snapshot.py", *(argv if argv is not None
                                                          else sys.argv[1:])],
           "seconds": seconds, "seeds": list(SEEDS), "env": {}, "workloads": {},
           # the commit each side's files come from; the current side's files
           # may be modified from it
           "trees": {"current": {"commit": git("rev-parse", "HEAD") or "unknown",
                                 "modified": bool(git("status", "--porcelain",
                                                      "--untracked-files=no"))}}}
    if args.baseline_rev:
        out["trees"]["baseline"] = {"commit": baseline}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        pairs = []
        for i, seed in enumerate(SEEDS):
            order = list(trees) if i % 2 else list(reversed(trees))
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(trees[side], workload, seed, seconds, trace=0)
                out["env"].setdefault(side, run.pop("env"))
                runs[side].append(run)
                pair[side] = run["metrics"]
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
            pairs.append(pair)
        names = [n for n in better if n in runs["current"][0]["metrics"]]
        entry = {side: {"correct": all(r["correct"] for r in rs),
                        "failed": sum(r["failed"] for r in rs),
                        "summary": summarize(rs, names)} for side, rs in runs.items()}
        if "baseline" in trees:
            wins = {}
            for name in names:
                sign = 1 if better[name] == "higher" else -1
                diffs = [sign * (p["current"][name] - p["baseline"][name]) for p in pairs]
                wins[name] = {"current": sum(d > 0 for d in diffs),
                              "baseline": sum(d < 0 for d in diffs),
                              "ties": sum(d == 0 for d in diffs)}
            entry["pairs_won"] = wins
            entry["median_change"] = {
                name: entry["current"]["summary"][name]["median"]
                / entry["baseline"]["summary"][name]["median"] - 1.0
                for name in names if entry["baseline"]["summary"][name]["median"]}
        entry["pairs"] = pairs  # with no baseline, each holds the current side's run alone
        traced: dict[str, list[dict]] = {side: [] for side in trees}
        for i in range(TRACE_RUNS):
            for side in (list(trees) if i % 2 else list(reversed(trees))):
                traced[side].append(run_once(trees[side], workload, trace_seed, seconds, trace=1))
                print(f"{workload} traced seed {trace_seed} {side}: "
                      f"correct={traced[side][-1]['correct']}", flush=True)
        entry["traced"] = {"seed": trace_seed, "runs": TRACE_RUNS}
        for side, rs in traced.items():
            entry["traced"][side] = {
                "correct": all(r["correct"] for r in rs),
                **{name: statistics.median(r["metrics"][name] for r in rs)
                   for name in rs[0]["metrics"]}}
        out["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
