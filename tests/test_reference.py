"""The engines against the plain one-step-at-a-time references in
``reference.py``, bit for bit, standalone and inside ``monte_carlo``.

SRP: K in {1, 2, 5, 8} groups of every completion and reward family, a
uniform, a skewed and a degenerate selection, the crossing task kept and
discarded, seeds 0-2, and budgets from below one task (0.5) to about 40
512-stage blocks (40000), so rounds of one block, of several blocks and of
the largest size are all reached: 288 episodes.  Beside the totals, the
running totals before and after the crossing task that ``sim._run_srp``
returns must equal the reference's, since the engine's block-by-block
rounding of the running total shows in no total.

Online: K in {1, 2, 5, 8} family groups, alpha 0, 0.5, 1, 2 and mixed,
delay 1, 3 and 5, the empirical and a fixed cap of 0.8, and the crossing
task kept and discarded, at budgets 30 and 300 with every task's decision,
queues and targets traced (480 episodes); at budget 4000 once per K and
alpha, the delay, cap and ``truncate_last`` taking each value in turn (20
episodes); feedback delays 257 and 600, one and two 256-stage chunks behind
the decisions, traced once per K with the alpha, cap and ``truncate_last``
taking values in turn, at budgets that release two chunks or more (8
episodes); and the episodes inside one ``monte_carlo`` run from seed
2^32 - 2 at K = 8, mixed alphas and delay 3.

Both: random environments and policies from ``helpers.episodes``, the
strategy of the episode properties, online episodes traced.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtime import DeadlineSet, SrpPolicy, monte_carlo, run_episode, sim
from helpers import DEADLINE_GRID, episodes, family_online_case, family_srp_case
from reference import CHUNK, online_episode, srp_episode

BUDGETS = (0.5, 30.0, 4000.0, 40000.0)
SEEDS = (0, 1, 2)
ALPHAS = (0.0, 0.5, 1.0, 2.0, "mixed")
DELAYS = (1, 3, 5)
CAPS = (None, 0.8)


def totals(res):
    return res.n_tasks, res.per_group_time.tobytes(), res.per_group_reward.tobytes()


def reference_totals(policy, groups, budget, seed, truncate):
    n, time_tot, reward_tot, _, _ = srp_episode(groups, policy.selection, policy.deadlines, budget, seed, truncate)
    return n, time_tot.tobytes(), reward_tot.tobytes()


def record_episodes(monkeypatch):
    """The results of every ``run_episode`` call that ``monte_carlo`` makes."""
    inside = []

    def recorded(*args, **kwargs):
        inside.append(run_episode(*args, **kwargs))
        return inside[-1]

    monkeypatch.setattr(sim, "run_episode", recorded)
    return inside


@pytest.mark.parametrize("kind", ["uniform", "skewed", "degenerate"])
@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_srp_episodes_match_reference(k, kind, monkeypatch):
    groups, utilities, policy = family_srp_case(k, kind)
    brackets = []
    engine = sim._run_srp

    def bracketed(*args):
        result = engine(*args)
        brackets.append(np.array(result[3:5], dtype=np.float64).tobytes())
        return result

    monkeypatch.setattr(sim, "_run_srp", bracketed)
    mismatched = []
    for truncate in (False, True):
        for budget in BUDGETS:
            for seed in SEEDS:
                res = run_episode(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, seed,
                                  truncate_last=truncate)
                n, time_tot, reward_tot, before, after = srp_episode(
                    groups, policy.selection, policy.deadlines, budget, seed, truncate)
                if totals(res) != (n, time_tot.tobytes(), reward_tot.tobytes()):
                    mismatched.append((truncate, budget, seed))
                if brackets[-1] != np.array([before, after], dtype=np.float64).tobytes():
                    mismatched.append((truncate, budget, seed, "bracket"))
    assert mismatched == []


@pytest.mark.parametrize("k, kind, truncate", [(8, "skewed", True), (5, "degenerate", False), (2, "uniform", True)])
def test_monte_carlo_srp_episodes_match_reference(k, kind, truncate, monkeypatch):
    groups, utilities, policy = family_srp_case(k, kind)
    inside = record_episodes(monkeypatch)
    # seeds 2^32 - 2 .. 2^32 + 1 have one and two 32-bit words
    base_seed, trials, budget = 2**32 - 2, 4, 4000.0
    monte_carlo(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, trials, base_seed,
                truncate_last=truncate, opt_utility_rate=0.0)
    assert [totals(res) for res in inside] == [
        reference_totals(policy, groups, budget, base_seed + i, truncate) for i in range(trials)
    ]


def online_mismatch(groups, utilities, policy, budget, seed, truncate, traced, menu=DEADLINE_GRID):
    """How ``run_episode`` and ``online_episode`` differ on one online case:
    "totals", the first task whose trace differs, or None."""
    res = run_episode(groups, DeadlineSet(menu), utilities, policy, budget, seed,
                      truncate_last=truncate, collect_trace=traced)
    n, time_tot, reward_tot, trace = online_episode(
        groups, utilities, menu, policy, budget, seed, truncate)
    if totals(res) != (n, time_tot.tobytes(), reward_tot.tobytes()):
        return "totals"
    K = len(groups)
    for row, (group, deadline, queues, targets) in zip(() if res.trace is None else res.trace, trace):
        if (row[1], row[2], row[5:5 + K].tobytes(), row[5 + K:].tobytes()) != (
                group, deadline, queues.tobytes(), targets.tobytes()):
            return int(row[0])
    return None


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_online_episodes_match_reference(k):
    mismatched = []
    cases = itertools.product(ALPHAS, DELAYS, CAPS, (30.0, 300.0), (False, True))
    for seed, (alpha, delay, cap, budget, truncate) in enumerate(cases):
        where = online_mismatch(*family_online_case(k, alpha, delay, cap), budget, seed, truncate, traced=True)
        if where is not None:
            mismatched.append((alpha, delay, cap, budget, truncate, where))
    assert mismatched == []


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_long_online_episodes_match_reference(k):
    mismatched = []
    for i, alpha in enumerate(ALPHAS):
        delay, cap, truncate = DELAYS[(i + k) % 3], CAPS[i % 2], (i + k) % 2 == 1
        where = online_mismatch(*family_online_case(k, alpha, delay, cap), 4000.0, seed=i, truncate=truncate,
                                traced=False)
        if where is not None:
            mismatched.append((alpha, delay, cap, truncate, where))
    assert mismatched == []


@pytest.mark.parametrize("delay, budget", [(257, 3000.0), (600, 5000.0)])
def test_online_episodes_delayed_past_a_chunk_match_reference(delay, budget):
    # the learner holds several ingested blocks and reads each released stage
    # from the end of the block it last folded
    mismatched = []
    for i, (k, alpha) in enumerate(zip((1, 2, 5, 8), (0.5, 2.0, "mixed", 1.0))):
        case = family_online_case(k, alpha, delay, CAPS[i % 2])
        res = run_episode(case[0], DeadlineSet(DEADLINE_GRID), *case[1:], budget, seed=i)
        assert res.n_tasks > delay + 2 * CHUNK
        where = online_mismatch(*case, budget, seed=i, truncate=i % 2 == 1, traced=True)
        if where is not None:
            mismatched.append((k, alpha, where))
    assert mismatched == []


def test_monte_carlo_online_episodes_match_reference(monkeypatch):
    groups, utilities, policy = family_online_case(8, "mixed", 3, None)
    inside = record_episodes(monkeypatch)
    # seeds 2^32 - 2 .. 2^32 + 1 have one and two 32-bit words
    base_seed, trials, budget = 2**32 - 2, 4, 300.0
    monte_carlo(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, trials, base_seed,
                opt_utility_rate=0.0)
    expected = []
    for i in range(trials):
        n, time_tot, reward_tot, _ = online_episode(
            groups, utilities, DEADLINE_GRID, policy, budget, base_seed + i)
        expected.append((n, time_tot.tobytes(), reward_tot.tobytes()))
    assert [totals(res) for res in inside] == expected


@settings(max_examples=200, deadline=None, database=None)
@given(episodes(), st.integers(0, 2**32))
def test_random_episodes_match_reference(episode, seed):
    groups, deadlines, utilities, policy, budget, truncate = episode
    if isinstance(policy, SrpPolicy):
        res = run_episode(groups, deadlines, utilities, policy, budget, seed, truncate_last=truncate)
        assert totals(res) == reference_totals(policy, groups, budget, seed, truncate)
    else:
        where = online_mismatch(groups, utilities, policy, budget, seed, truncate, traced=True,
                                menu=deadlines.deadlines)
        assert where is None
