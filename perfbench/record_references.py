"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py --seeds 0-19

For each workload and seed, runs one op of the program in this checkout
with the campaign call point wrapped, checks the row invariants, and
stores in ``perfbench/references.json`` the sha256 of every checked output
file and the number of periods the op replayed (entries for other seeds
are kept).  Record references only from a commit whose outputs are known
to be right: every later run of the benchmark is judged against them.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from outputs import REFERENCES, load_references  # noqa: E402
from worker import OpRunner, count_periods, import_program, limits, prepare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,5,7")
    args = parser.parse_args(argv)
    rtblab, _ = import_program()
    refs = load_references()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            work = Path(tempfile.mkdtemp(prefix="refs-", dir=out_root))
            try:
                cfg = prepare(workload, seed, work, rtblab.cli.main)
                runner = OpRunner(workload, cfg, work, rtblab.cli.main,
                                  limits(rtblab, workload, seed), None)
                op, periods, why = count_periods(runner)
                if op["problems"] or periods is None:
                    print(f"{name} seed {seed}: not recorded: {op['problems'] or why}",
                          file=sys.stderr)
                    return 1
                refs.setdefault(name, {})[str(seed)] = {"files": runner.first,
                                                        "periods_per_op": periods}
                print(f"{name} seed {seed}: {op['seconds']:.2f} s, {periods} periods", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            with open(REFERENCES, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
