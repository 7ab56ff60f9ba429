"""Rewrite reference.json: sha256 of every workload's CSVs at --threads 1.

    python3 perfbench/make_reference.py [SEED ...]

Seeds default to the configs' own seed, 20240501, and 0 to 63.  The benchmark
counts any run whose CSVs differ from these hashes as failed, so rerun this
only in a change that means to alter fairtime's output, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import run

DEFAULT_SEEDS = [20240501, *range(64)]


def main(seeds: list[int]) -> int:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    work_dir = run.OUT / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    for workload, (command, _) in run.WORKLOADS.items():
        config_path = run.HERE / "workloads" / f"{workload}.json"
        config = json.loads(config_path.read_text())
        for seed in seeds:
            argv = [sys.executable, "-m", "fairtime.cli", command, str(config_path),
                    "--out-dir", str(work_dir / "csv"), "--seed", str(seed), "--threads", "1"]
            _, digests, problems = run.run_checked(
                argv, work_dir / "csv", work_dir / "cli.log", env, config, None)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = digests
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or DEFAULT_SEEDS))
