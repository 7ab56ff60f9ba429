"""Frozen digests of every CSV file the command line writes.

Each digest is the sha256 of one CSV file's bytes.  The grid runs the three
bundled ``configs/*.json`` and the three ``perfbench/workloads/*.json``
through ``cli.main`` in-process with ``--trials 2``: the ``offline`` and
``moments`` subcommands and each config's own experiment (``simulate`` or
``regret``), at the config seed and at seed 3.  Every case runs at
``--threads`` 1 and 2 and both runs must match the same digest, since CSV
bodies do not depend on the thread count.

These digests hold below AVX-512 as well: numpy's baseline loops round some
pow, exp and log results differently from its AVX-512 ones, but the CSV
writer prints 12 significant digits, so that difference does not reach the
files.  They were frozen from the dispatch code that chained ``isinstance``
tests over the distribution families.

``python tests/test_cli_digests.py --force`` rewrites
``data/cli_digests.json`` from the installed package; without ``--force`` it
refuses to overwrite the file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fairtime.cli import main
from helpers import freeze

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data" / "cli_digests.json"
CONFIGS = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/workloads/*.json"))
SEEDS = (None, 3)


def cases():
    for path in CONFIGS:
        kind = json.loads(path.read_text())["experiment"]["kind"]
        for command in dict.fromkeys(("offline", "moments", kind)):
            for seed in SEEDS:
                yield path, command, seed


def case_prefix(path, command, seed) -> str:
    return f"{path.parent.name}/{path.stem}/{command}/seed{'-config' if seed is None else seed}"


def csv_digests(path, command, seed, threads) -> dict[str, str]:
    """Run one command in a fresh directory; sha256 of each CSV it writes."""
    argv = [command, str(path), "--trials", "2", "--threads", str(threads)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    with tempfile.TemporaryDirectory() as out_dir:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out-dir", out_dir])
        assert code == 0, argv
        prefix = case_prefix(path, command, seed)
        return {f"{prefix}/{csv.name}": hashlib.sha256(csv.read_bytes()).hexdigest()
                for csv in sorted(Path(out_dir).glob("*.csv"))}


def digest_table() -> dict[str, str]:
    table = {}
    for case in cases():
        table.update(csv_digests(*case, threads=1))
    return table


@pytest.mark.parametrize("threads", [1, 2])
def test_cli_csvs_match_frozen_digests(threads):
    frozen = json.loads(DATA.read_text())
    assert len(frozen) == 36
    got = {}
    for case in cases():
        got.update(csv_digests(*case, threads=threads))
    assert sorted(got) == sorted(frozen)
    assert [key for key in got if got[key] != frozen[key]] == []


if __name__ == "__main__":
    sys.exit(freeze(DATA, digest_table))
