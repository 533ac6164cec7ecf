"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload csv-run --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``rtblab`` from
``src/`` only.  Every process it starts is fresh and single-threaded
(BLAS threads pinned to 1 in the child's environment only):

- ``setups`` set-up-only processes time set-up from process start to
  ``ready``; ``setup_s`` is their median;
- one measuring process sets up again, then runs ops for ``--seconds``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Lines before it describe the environment and the checks.  Scratch files
go under ``.perfbench_out/`` in the checkout and are removed; the traced
run leaves its spans there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
# Set in each child's environment only, never in this process's.
CHILD_ENV = {
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                              "BLIS_NUM_THREADS")},
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool,
               spans_out: Path | None = None) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from start to ``ready``, its result).

    The worker's standard output carries only the ``ready`` line; its
    result goes to a file, so nothing it prints later can fill the pipe.
    """
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    result = work / "result.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                with selectors.DefaultSelector() as sel:
                    sel.register(proc.stdout, selectors.EVENT_READ)
                    if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
                        raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("worker did not finish before the deadline") from None
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(f"worker exited with code {proc.returncode}")
        if setup_only:
            return setup_s, None
        return setup_s, json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def git_commit() -> str:
    """HEAD of the checkout read from ``.git``; ``unknown`` outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "process": "fresh single-threaded process per set-up sample and per measuring run",
        "child_env": CHILD_ENV,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rtblab benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rtblab" / "__init__.py").is_file():
        print(f"error: no rtblab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.csv" if args.trace else None
    try:
        setups = [run_worker(args, deadline, setup_only=True)[0]
                  for _ in range(workload.setups - 1)]
        setup_s, res = run_worker(args, deadline, setup_only=False, spans_out=spans_out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    ops = res["ops"] + res.get("traced_ops", []) + res.get("counting_ops", [])
    failed = sum(1 for o in ops if o["problems"])
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(res["numpy"]), sort_keys=True))
    print(f"ops attempted={len(ops)} failed={failed} ops_failed_frac={failed / len(ops):.4f}")
    if res["reference"]:
        print(f"reference outputs recorded for seed {args.seed}: byte-compared")
    else:
        print(f"no reference outputs for seed {args.seed}: only the row invariant and "
              "op-to-op checks ran")
    for i, o in enumerate(ops):
        for problem in o["problems"]:
            print(f"op {i} FAILED: {problem}")
    for name, why in sorted(res["unmeasured"].items()):
        print(f"unmeasured: {name}: {why}")

    if args.trace:
        metrics = {name: metric(res["layers"][name], unit)
                   for name, (unit, _) in PER_LAYER.items()}
        for name, v in res["layers"].items():
            print(f"  {name:42s} {v:.6g}")
        if spans_out is not None:
            print(f"spans written to {spans_out.relative_to(ROOT)}")
    else:
        p50 = res["op_s_p50"]
        periods = res["periods_per_op"]
        campaigns = res["campaigns_per_op"]
        if not periods:
            print(f"error: cannot count the periods per op of seed {args.seed}, which has "
                  f"no reference: {res['periods_uncounted']}", file=sys.stderr)
            return 1
        if res.get("counting_ops"):
            print("periods per op counted in one extra, untimed op (no reference for this seed)")
        times = [o["seconds"] for o in res["ops"]]
        print(f"op_s_p50 {p50:.4f} s over {len(times)} ops: "
              + ", ".join(f"{t:.3f}" for t in times) + " s")
        print("set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + " s")
        print(f"per op: {workload.log_rows} log rows, {campaigns:g} campaigns, {periods:g} periods")
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "op_s_p50": metric(p50, "s"),
            "rows_per_s": metric(workload.log_rows / p50, "1/s"),
            "campaigns_per_s": metric(campaigns / p50, "1/s"),
            "periods_per_s": metric(periods / p50, "1/s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
