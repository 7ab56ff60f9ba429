"""Collect the benchmark records of a parent and a changed checkout into one
BENCH_<n>.json.

    python tools/bench_record.py --parent PARENT/perfbench/out --change perfbench/out \\
        --seeds 1 2 3 --tier1 tier1.log --out BENCH_16.json

Each directory is a checkout's ``perfbench/out``, holding
``<workload>/seed<N>/record.json`` from
``perfbench/run.py --workload W --seed N --seconds S``.  Run the two sides in
alternating pairs on the same seeds.  For every workload in
``BENCHMARK.json`` that is recorded on both sides at some of the seeds, the file holds each side's end-to-end metrics per seed
and their medians, the change's median over the parent's, and each side's
per-layer table as medians over the seeds (one traced run per seed).  For each
end-to-end metric it also holds what a claimed gain is judged by: the number
of seed-matched pairs, how many of them the change won in the metric's better
direction (``better`` in BENCHMARK.json; a tie is no win), and the parent's
interquartile range over those seeds.
``--tier1`` is the output of ``pytest -q --durations=N``, whose pass, failure
and error counts, wall time and ``test_07`` time are recorded.  The source
line counts (all lines, and code lines: those holding a token other than a
comment, outside docstrings), the Python and numpy versions, numpy's SIMD
dispatch and whether ``PYTHONDONTWRITEBYTECODE`` is set (to a non-empty value,
as Python reads it) are this checkout's and this host's.  When the checkout
two levels above ``--parent`` (``PARENT`` in ``PARENT/perfbench/out``) holds
``src/fairtime``, its line counts are recorded too, as ``parent_src_lines``
and ``parent_src_code_lines``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import sys
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"  # its workloads and metrics are the ones recorded


def record_path(out_dir: Path, workload: str, seed: int) -> Path:
    return out_dir / workload / f"seed{seed}" / "record.json"


def side(out_dir: Path, workload: str, seeds: list[int]) -> dict:
    """One side's records of a workload: per-seed end-to-end metrics, their
    medians, and the per-layer medians."""
    records = [json.loads(record_path(out_dir, workload, seed).read_text()) for seed in seeds]

    def medians(table: str) -> dict:
        return {name: statistics.median(r[table][name] for r in records) for name in records[0][table]}

    return {
        "end_to_end": {str(seed): r["end_to_end"] for seed, r in zip(seeds, records)},
        "end_to_end_median": medians("end_to_end"),
        "per_layer_median": medians("per_layer"),
        "failed_runs": sum(r["failed"] for r in records),
        "attempted_runs": sum(r["attempted"] for r in records),
    }


def iqr(values: list[float]) -> float:
    """The distance between the first and third quartiles, interpolated
    linearly between order statistics (numpy's default percentile)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def claim_rule(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per end-to-end metric: the seed-matched pairs, the change's wins among
    them in the metric's better direction, and the parent's IQR."""
    records = [(parent["end_to_end"][seed], change["end_to_end"][seed]) for seed in parent["end_to_end"]]
    rule = {}
    for name, direction in better.items():
        pairs = [(p[name], c[name]) for p, c in records if name in p and name in c]
        if not pairs:
            continue
        wins = sum(c > p if direction == "higher" else c < p for p, c in pairs)
        rule[name] = {"pairs": len(pairs), "change_wins": wins, "parent_iqr": iqr([p for p, _ in pairs])}
    return rule


def tier1(log: Path) -> dict:
    """Pass, failure and error counts (0 when the summary omits one), wall
    time and test_07's time from a pytest log, whose last summary line reads
    like ``2 failed, 511 passed, 1 error in 70.12s``."""
    text = log.read_text()
    summary = re.findall(r"^=*\s*((?:\d+ \w+(?:, )?)+) in ([\d.]+)s", text, re.M)
    counts = {"errors" if word == "error" else word: int(n)
              for n, word in re.findall(r"(\d+) (\w+)", summary[-1][0] if summary else "")}
    test_07 = re.findall(r"([\d.]+)s call\s+\S*test_07_\w+", text)
    return {
        **{key: counts.get(key, 0) if summary else None for key in ("passed", "failed", "errors")},
        "wall_s": float(summary[-1][1]) if summary else None,
        "test_07_s": float(test_07[0]) if test_07 else None,
    }


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, a newline or an indent,
    less the lines of docstrings (a string that is the first statement of a
    module, class or function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        # an empty module (one of comments only, say) has no first statement
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
               tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def src_counts(root: Path) -> tuple[dict, dict]:
    """All lines and code lines of each module of ``root/src/fairtime``, each
    with its total."""
    sources = {p.name: p.read_text() for p in sorted((root / "src" / "fairtime").glob("*.py"))}
    lines = {name: len(text.splitlines()) for name, text in sources.items()}
    code = {name: code_lines(text) for name, text in sources.items()}
    return {**lines, "total": sum(lines.values())}, {**code, "total": sum(code.values())}


def host() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        # a non-empty value stops every benchmark process, which inherits it,
        # from writing bytecode, so each one compiles fairtime at import
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout's perfbench/out")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout's perfbench/out")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--tier1", type=Path, help="pytest -q --durations=N output of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads(BENCHMARK.read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    workloads = {}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        seeds = [seed for seed in args.seeds
                 if all(record_path(d, workload, seed).is_file() for d in (args.parent, args.change))]
        if not seeds:
            continue
        parent, change = (side(d, workload, seeds) for d in (args.parent, args.change))
        ratio = {name: change["end_to_end_median"][name] / value
                 for name, value in parent["end_to_end_median"].items() if value}
        workloads[workload] = {"seeds": seeds, "parent": parent, "change": change, "change_over_parent": ratio,
                               "claim_rule": claim_rule(parent, change, better)}
    if not workloads:
        print(f"error: no workload has a record on both sides for seeds {args.seeds}", file=sys.stderr)
        return 1
    lines, code = src_counts(ROOT)
    bench = {
        "workloads": workloads,
        "tier1": tier1(args.tier1) if args.tier1 else None,
        "src_lines": lines,
        "src_code_lines": code,
    }
    parent_root = args.parent.resolve().parents[1]
    if (parent_root / "src" / "fairtime").is_dir():
        bench["parent_src_lines"], bench["parent_src_code_lines"] = src_counts(parent_root)
    bench["host"] = host()
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
