"""Frozen digests of the command line's stdout.

Each digest is the sha256 of everything one command prints to stdout, with
its ``--out-dir`` path replaced by ``<out>``.  The runs are those of
``test_cli_digests.py``: the three bundled ``configs/*.json`` and the three
``perfbench/workloads/*.json`` through ``cli.main`` in-process with
``--trials 2``, the ``offline`` and ``moments`` subcommands and each
config's own experiment, at the config seed and at seed 3, each at
``--threads`` 1 and 2 against one digest.

The summary prints at most 10 significant digits, and these digests hold at
numpy's AVX-512 dispatch and with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``.  They were
frozen from the command line that printed each command's rows in one loop
and built its CSV rows in another.

``python tests/test_cli_stdout_digests.py --force`` rewrites
``data/cli_stdout_digests.json`` from the installed package; without
``--force`` it refuses to overwrite the file.
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
from test_cli_digests import case_prefix, cases

DATA = Path(__file__).parent / "data" / "cli_stdout_digests.json"


def stdout_digest(path, command, seed, threads) -> str:
    """Run one command in a fresh directory; sha256 of its normalised stdout."""
    argv = [command, str(path), "--trials", "2", "--threads", str(threads)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--out-dir", out_dir])
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().replace(out_dir, "<out>").encode()).hexdigest()


def digest_table(threads=1) -> dict[str, str]:
    return {case_prefix(*case): stdout_digest(*case, threads=threads) for case in cases()}


@pytest.mark.parametrize("threads", [1, 2])
def test_cli_stdout_matches_frozen_digests(threads):
    frozen = json.loads(DATA.read_text())
    assert len(frozen) == 34
    got = digest_table(threads)
    assert sorted(got) == sorted(frozen)
    assert [key for key in got if got[key] != frozen[key]] == []


if __name__ == "__main__":
    sys.exit(freeze(DATA, digest_table))
