"""Frozen digests of long online episodes.

``test_episode_digests.py`` pins hundreds of episodes, but its delay-1 and
delay-3 budgets end after 10-31 tasks, barely past the cold start.  These
cases run at budget 4000, about 1400-2200 tasks each, so the queues, targets
and decisions of a long run are pinned too: K in {2, 8} groups of every
completion and reward family with unequal weights, alpha in {0, 0.5, 1, 2}
and mixed alphas, feedback delay in {1, 3}, and empirical and fixed
target-rate caps.  Seed 0 traces every task; seed 1 drops the crossing task.

Episodes and digests come from ``helpers``, the same as the short episodes.
``python tests/test_long_episode_digests.py`` rewrites
``data/long_episode_digests.json`` from the installed engine.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import episode_digest, family_episode

DATA = Path(__file__).parent / "data" / "long_episode_digests.json"

BUDGET = 4000.0


def cases():
    for delay in (1, 3):
        for k in (2, 8):
            for alpha in (0.0, 0.5, 1.0, 2.0, "mixed"):
                for cap in (None, 0.8):
                    for seed in (0, 1):
                        yield delay, k, alpha, cap, seed


def case_id(delay, k, alpha, cap, seed) -> str:
    return f"delay{delay}-k{k}-alpha{alpha}-cap{cap}-seed{seed}"


def episode(delay, k, alpha, cap, seed):
    return family_episode(k, alpha, delay, cap, seed, BUDGET)


@pytest.mark.parametrize("k", (2, 8))
def test_long_online_episodes_match_frozen_digests(k):
    frozen = json.loads(DATA.read_text())
    mismatched, shortest = [], None
    for case in cases():
        if case[1] != k:
            continue
        res = episode(*case)
        shortest = res.n_tasks if shortest is None else min(shortest, res.n_tasks)
        if episode_digest(res) != frozen[case_id(*case)]:
            mismatched.append(case_id(*case))
    assert mismatched == []
    # every episode ran well past its cold start and several sample chunks
    assert shortest > 1000


if __name__ == "__main__":
    table = {case_id(*case): episode_digest(episode(*case)) for case in cases()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
