"""Frozen per-episode digests of the online engine.

Each digest is the sha256 of one ``run_episode`` result: the task count, the
float64 bytes of the per-group totals, rates and shares, the utility, and,
when the episode collects a trace, every traced task with its queue and
target vectors.  Half the cases discard the crossing task (``truncate_last``),
which subtracts the last task's time and reward from its group's totals, so
the digest pins the last task as well.

The grid covers K in {1, 2, 5, 8} groups of every completion and reward
family with unequal weights, alpha in {0, 0.5, 1, 2} and mixed alphas,
feedback delay in {1, 3, 300, 600}, empirical and fixed target-rate caps, and
trace on and off.  The delay-300 and delay-600 budgets run past 256 released
stages, so the release index crosses a sample-chunk boundary.

The digests in ``data/episode_digests.json`` were written by the engine that
served one full-information stage at a time; any engine must reproduce them
bit for bit.  ``python tests/test_episode_digests.py --force`` rewrites the
file from the installed engine; without ``--force`` it refuses to overwrite it.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import episode_digest, family_episode, freeze, numpy_host

DATA = Path(__file__).parent / "data" / "episode_digests.json"

BUDGETS = {1: 40.0, 3: 40.0, 300: 2000.0, 600: 3000.0}


def cases():
    for delay in BUDGETS:
        for k in (1, 2, 5, 8):
            for alpha in (0.0, 0.5, 1.0, 2.0, "mixed"):
                for cap in (None, 0.8):
                    for seed in (0, 1):
                        yield delay, k, alpha, cap, seed


def case_id(delay, k, alpha, cap, seed) -> str:
    return f"delay{delay}-k{k}-alpha{alpha}-cap{cap}-seed{seed}"


def episode(delay, k, alpha, cap, seed):
    return family_episode(k, alpha, delay, cap, seed, BUDGETS[delay])


@pytest.mark.parametrize("delay", list(BUDGETS))
def test_online_episodes_match_frozen_digests(delay):
    frozen = json.loads(DATA.read_text())
    mismatched, deepest = [], 0
    for case in cases():
        if case[0] != delay:
            continue
        res = episode(*case)
        deepest = max(deepest, res.n_tasks - delay)
        if episode_digest(res) != frozen[case_id(*case)]:
            mismatched.append(case_id(*case))
    assert mismatched == [], numpy_host(DATA)
    if delay > 256:
        # some episode released more than one 256-stage chunk of samples
        assert deepest > 256


if __name__ == "__main__":
    sys.exit(freeze(DATA, lambda: {case_id(*case): episode_digest(episode(*case)) for case in cases()}))
