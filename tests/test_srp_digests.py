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

``python tests/test_srp_digests.py`` rewrites ``data/srp_episode_digests.json``
from the installed engine.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import episode_digest, family_srp_episode

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


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_srp_episodes_match_frozen_digests(k):
    frozen = json.loads(DATA.read_text())
    mismatched, shortest = [], None
    for case in cases():
        if case[0] != k:
            continue
        res = episode(*case)
        shortest = res.n_tasks if shortest is None else min(shortest, res.n_tasks)
        if episode_digest(res) != frozen[case_id(*case)]:
            mismatched.append(case_id(*case))
    assert mismatched == []
    # every episode drew past its second 512-stage block
    assert shortest > 2 * BLOCK


if __name__ == "__main__":
    table = {case_id(*case): episode_digest(episode(*case)) for case in cases()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
