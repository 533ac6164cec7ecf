"""Correctness checks on the files one op writes.

An op passes when, for each checked file (``metrics.csv``, ``sweep.csv``,
``sweep_trials.csv``, ``ablation.csv``):

- its bytes match the reference recorded for the seed, when one ships;
- its bytes match what the run's first op wrote;
- every result row stays within the log it replayed (``Limits``):
  ``cost <= budget + max market price`` (the one win that crosses the
  budget is kept, and it costs at most the dearest record),
  ``cost <= total market price of the log`` (each record is won at most
  once and a win pays its market price), and
  ``conv <= clk <= imp <= log rows``.  The first cost check cannot fail
  where the budget never binds; the other two can.

``trace.csv`` and the manifests are left out on purpose: planned changes
add trace columns and manifest keys without changing any result.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Limits:
    """Bounds that every result row of one workload and seed must stay within."""
    cost_cap: int       # budget + dearest market price of the log
    total_price: int    # sum of the log's market prices
    log_rows: int


def load_references(path: Path = REFERENCES) -> dict:
    """``{workload: {seed: {"files": {file: sha256}, "periods_per_op": n}}}``.

    Empty when the file is absent.
    """
    if not path.is_file():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


COUNT_COLUMNS = ("imp", "clk", "conv", "cost")


def row_violations(path: Path, limits: Limits, shown: int = 3) -> list[str]:
    """Rows of a result CSV outside ``limits`` or whose counts cannot be read.

    Files without a ``cost`` column (``sweep.csv`` holds only summaries)
    are not row-checked.  The first ``shown`` offending rows are listed,
    then a count of the rest.
    """
    problems = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(fh)
        if rows.fieldnames is None or "cost" not in rows.fieldnames:
            return []
        for line_no, row in enumerate(rows, start=2):
            where = f"{path.name} line {line_no}"
            try:
                imp, clk, conv, cost = (int(row[c]) for c in COUNT_COLUMNS)
            except (KeyError, TypeError, ValueError):
                problems.append(f"{where}: unreadable {'/'.join(COUNT_COLUMNS)}")
                continue
            if cost > limits.cost_cap:
                problems.append(f"{where}: cost {cost} > budget + max price {limits.cost_cap}")
            if cost > limits.total_price:
                problems.append(f"{where}: cost {cost} > total market price {limits.total_price}")
            if not conv <= clk <= imp <= limits.log_rows:
                problems.append(f"{where}: conv {conv}, clk {clk}, imp {imp} break "
                                f"conv <= clk <= imp <= {limits.log_rows} log rows")
    if len(problems) > shown:
        problems[shown:] = [f"{path.name}: {len(problems) - shown} more rows fail the row checks"]
    return problems


def check_op(out_dir: Path, files, limits: Limits, first: dict | None,
             reference: dict | None) -> tuple[dict, list[str]]:
    """Check one op's outputs; returns their digests and the problems found.

    ``reference`` and ``first`` map file names to sha256 digests.
    """
    digests: dict[str, str] = {}
    problems: list[str] = []
    for name in files:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        digests[name] = digest(path)
        problems.extend(row_violations(path, limits))
        if reference is not None and reference.get(name) != digests[name]:
            problems.append(f"{name} differs from the reference for this seed")
        if first is not None and first.get(name) != digests[name]:
            problems.append(f"{name} differs from the first op of this run")
    return digests, problems
