"""The SRP engine against the plain block-by-block reference in
``reference.py``, bit for bit, standalone and inside ``monte_carlo``.

The grid covers K in {1, 2, 5, 8} groups of every completion and reward
family, a uniform, a skewed and a degenerate selection, the crossing task
kept and discarded, seeds 0-2, and budgets from below one task (0.5) to
about 40 512-stage blocks (40000), so rounds of one block, of several blocks
and of the largest size are all reached: 288 episodes.
"""

import pytest

from fairtime import DeadlineSet, monte_carlo, run_episode, sim
from helpers import DEADLINE_GRID, family_srp_case
from reference import srp_episode

BUDGETS = (0.5, 30.0, 4000.0, 40000.0)
SEEDS = (0, 1, 2)


def totals(res):
    return res.n_tasks, res.per_group_time.tobytes(), res.per_group_reward.tobytes()


def reference_totals(policy, groups, budget, seed, truncate):
    n, time_tot, reward_tot = srp_episode(groups, policy.selection, policy.deadlines, budget, seed, truncate)
    return n, time_tot.tobytes(), reward_tot.tobytes()


@pytest.mark.parametrize("kind", ["uniform", "skewed", "degenerate"])
@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_srp_episodes_match_reference(k, kind):
    groups, utilities, policy = family_srp_case(k, kind)
    mismatched = []
    for truncate in (False, True):
        for budget in BUDGETS:
            for seed in SEEDS:
                res = run_episode(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, seed,
                                  truncate_last=truncate)
                if totals(res) != reference_totals(policy, groups, budget, seed, truncate):
                    mismatched.append((truncate, budget, seed))
    assert mismatched == []


@pytest.mark.parametrize("k, kind, truncate", [(8, "skewed", True), (5, "degenerate", False), (2, "uniform", True)])
def test_monte_carlo_srp_episodes_match_reference(k, kind, truncate, monkeypatch):
    groups, utilities, policy = family_srp_case(k, kind)
    inside = []

    def recorded(*args, **kwargs):
        inside.append(run_episode(*args, **kwargs))
        return inside[-1]

    monkeypatch.setattr(sim, "run_episode", recorded)
    # seeds 2^32 - 2 .. 2^32 + 1 have one and two 32-bit words
    base_seed, trials, budget = 2**32 - 2, 4, 4000.0
    monte_carlo(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, trials, base_seed,
                truncate_last=truncate, opt_utility_rate=0.0)
    assert [totals(res) for res in inside] == [
        reference_totals(policy, groups, budget, base_seed + i, truncate) for i in range(trials)
    ]
