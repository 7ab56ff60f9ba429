"""Output checks for the benchmark's CLI runs.

For a seed with stored hashes (``reference.json``, made at ``--threads 1``)
every CSV must match byte for byte.  For every seed the CSVs must also have
the expected shape: one summary row per group with time shares summing to 1,
finite non-negative rates, a trace that crosses the budget on its last task,
and one regret row per budget plus the slope row.  Each check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

SUMMARY_HEADER = [
    "policy", "alpha", "budget", "v", "trials", "group", "label",
    "mean_time_share", "se_time_share", "mean_reward_rate", "se_reward_rate",
    "utility", "regret",
]
REGRET_HEADER = ["budget", "v", "regret", "stderr", "slope_fit"]
SHARE_SUM_TOL = 1e-9


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_files(config: dict) -> list[str]:
    """The CSVs a simulate or regret command writes for this config."""
    exp = config["experiment"]
    if exp["kind"] == "regret":
        return ["regret.csv"]
    if exp["policy"] == "online" and config.get("trace", False):
        return ["summary.csv", "trace.csv"]
    return ["summary.csv"]


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _finite(cells, minimum=-math.inf) -> bool:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        return False
    return all(math.isfinite(v) and v >= minimum for v in values)


def check_summary(path: str, config: dict) -> list[str]:
    header, rows = _read(path)
    if header != SUMMARY_HEADER:
        return [f"{path}: header {header}"]
    K = len(config["groups"])
    if len(rows) != K or any(len(r) != len(header) for r in rows):
        return [f"{path}: expected {K} rows of {len(header)} cells"]
    problems = []
    if [r[5] for r in rows] != [str(k + 1) for k in range(K)]:
        problems.append(f"{path}: group column")
    if any(r[4] != str(config["experiment"]["trials"]) for r in rows):
        problems.append(f"{path}: trials column")
    if not all(_finite(r[7:11], 0.0) and _finite(r[11:13]) for r in rows):
        problems.append(f"{path}: shares and rates must be finite and >= 0")
    elif abs(sum(float(r[7]) for r in rows) - 1.0) > SHARE_SUM_TOL:
        problems.append(f"{path}: time shares do not sum to 1")
    return problems


def check_trace(path: str, config: dict) -> list[str]:
    header, rows = _read(path)
    K = len(config["groups"])
    if len(header) != 5 + 2 * K or header[:5] != ["task", "group", "deadline", "elapsed", "reward"]:
        return [f"{path}: header {header}"]
    if not rows or any(len(r) != len(header) for r in rows):
        return [f"{path}: expected rows of {len(header)} cells"]
    problems = []
    if [r[0] for r in rows] != [str(n + 1) for n in range(len(rows))]:
        problems.append(f"{path}: task column")
    if not all(_finite(r[1:], 0.0) for r in rows):
        problems.append(f"{path}: values must be finite and >= 0")
        return problems
    deadlines = {float(t) for t in config["deadlines"]}
    if any(float(r[2]) not in deadlines or not 1 <= int(r[1]) <= K for r in rows):
        problems.append(f"{path}: group or deadline outside the config")
    budget = float(config["experiment"]["budget"])
    elapsed = [float(r[3]) for r in rows]
    total = math.fsum(elapsed)
    slack = 1e-9 * budget
    if not (total > budget - slack and total - elapsed[-1] <= budget + slack):
        problems.append(f"{path}: the last task does not cross the budget")
    return problems


def check_regret(path: str, config: dict) -> list[str]:
    header, rows = _read(path)
    grid = config["experiment"]["budget_grid"]
    if header != REGRET_HEADER:
        return [f"{path}: header {header}"]
    if len(rows) != len(grid) + 1 or any(len(r) != len(header) for r in rows):
        return [f"{path}: expected {len(grid) + 1} rows of {len(header)} cells"]
    problems = []
    points, slope_row = rows[:-1], rows[-1]
    if not all(_finite(r[:2], 0.0) and _finite(r[2:3]) and _finite(r[3:4], 0.0)
               and r[4] == "" for r in points):
        problems.append(f"{path}: budget rows must be finite, v and stderr >= 0")
    elif [float(r[0]) for r in points] != [float(b) for b in grid]:
        problems.append(f"{path}: budget column")
    if slope_row[:4] != ["", "", "", ""] or not _finite(slope_row[4:]):
        problems.append(f"{path}: slope row")
    return problems


CHECKS = {"summary.csv": check_summary, "trace.csv": check_trace, "regret.csv": check_regret}


def check_outputs(out_dir: str, config: dict, expected: dict | None) -> tuple[dict, list[str]]:
    """Hashes of the command's CSVs and the problems found in them.

    ``expected`` maps file name to sha256 for a seed with stored hashes, or is
    None for a seed without them.
    """
    digests, problems = {}, []
    for name in output_files(config):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
            continue
        digests[name] = sha256(path)
        if expected is not None and digests[name] != expected.get(name):
            problems.append(f"{name}: sha256 differs from the reference")
        problems += CHECKS[name](path, config)
    return digests, problems
