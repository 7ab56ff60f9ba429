"""Frozen per-episode digests of the stationary randomized policy (SRP) engine.

Each digest is the sha256 of one ``run_episode`` result, as in
``test_episode_digests.py``: the task count, the float64 bytes of the
per-group totals, rates and shares, and the utility.  Half the cases discard
the crossing task (``truncate_last``), so the digest pins the last task too.

The grid covers K in {1, 2, 5, 8} groups of every completion and reward
family with unequal weights, a uniform, a skewed and a degenerate selection
(all mass on the last group, so every other group's selection interval is
empty), one fixed deadline per group, and seeds 0-3.  Every budget runs past
two 512-stage draw blocks, which the test asserts, so block boundaries and
the shared per-group stage draws are pinned as well.

``python tests/test_srp_digests.py --force`` rewrites
``data/srp_episode_digests.json`` from the installed engine; without
``--force`` it refuses to overwrite the file.

numpy's baseline loops for pow, exp and log round some results differently
from its AVX-512 ones, so the X86_V3 dispatch has its own file,
``data/srp_episode_digests_x86_v3.json``, written by the same command with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` set.  The
in-process tests read it when its recorded dispatch is the running process's;
one more test computes the table in a subprocess under that variable.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import (
    DIGEST_HOSTS,
    check_digests_at_x86_v3,
    dispatch_file,
    episode_digest,
    family_srp_episode,
    freeze,
    numpy_host,
    this_host,
    writer_file,
)

DATA = Path(__file__).parent / "data" / "srp_episode_digests.json"

BUDGET = 4000.0
BLOCK = 512


def cases():
    for k in (1, 2, 5, 8):
        for kind in ("uniform", "skewed", "degenerate"):
            for truncate in (False, True):
                for seed in range(4):
                    yield k, kind, truncate, seed


def case_id(k, kind, truncate, seed) -> str:
    return f"k{k}-{kind}-truncate{int(truncate)}-seed{seed}"


def episode(k, kind, truncate, seed):
    return family_srp_episode(k, kind, truncate, seed, BUDGET)


def digest_table() -> dict:
    return {case_id(*case): episode_digest(episode(*case)) for case in cases()}


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_srp_episodes_match_frozen_digests(k):
    data = dispatch_file(DATA)
    frozen = json.loads(data.read_text())
    mismatched, shortest = [], None
    for case in cases():
        if case[0] != k:
            continue
        res = episode(*case)
        shortest = res.n_tasks if shortest is None else min(shortest, res.n_tasks)
        if episode_digest(res) != frozen[case_id(*case)]:
            mismatched.append(case_id(*case))
    assert mismatched == [], numpy_host(data)
    # every episode drew past its second 512-stage block
    assert shortest > 2 * BLOCK


def test_digest_writer_overwrites_only_with_force(tmp_path, monkeypatch):
    path = tmp_path / "digests.json"
    path.write_text("{}\n")
    monkeypatch.setattr("sys.argv", ["writer"])
    assert freeze(path, lambda: {"case": "digest"}) == 1
    assert path.read_text() == "{}\n"
    monkeypatch.setattr("sys.argv", ["writer", "--force"])
    assert freeze(path, lambda: {"case": "digest"}) == 0
    assert json.loads(path.read_text()) == {"case": "digest"}
    hosts = json.loads((tmp_path / DIGEST_HOSTS).read_text())
    assert hosts == {"digests.json": {"verified_on": this_host()}}
    assert f"digests.json verified on: {this_host()}" in numpy_host(path)


def test_every_digest_file_has_a_recorded_host():
    data = DATA.parent
    hosts = json.loads((data / DIGEST_HOSTS).read_text())
    assert sorted(hosts) == sorted(p.name for p in data.glob("*_digests*.json"))
    assert all(set(entry["verified_on"]) == {"numpy", "simd_dispatch"} for entry in hosts.values())


def test_srp_episodes_match_frozen_digests_at_x86_v3():
    check_digests_at_x86_v3("test_srp_digests", DATA)


if __name__ == "__main__":
    sys.exit(freeze(writer_file(DATA), digest_table))
