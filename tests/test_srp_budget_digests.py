"""Frozen SRP digests across budgets, and the SRP engine's round structure.

The stationary randomized policy (SRP) engine draws its stages in 512-stage
blocks and does the episode arithmetic once per round of blocks.  The
digests, hashed as in ``test_srp_digests.py``, cover K in {1, 2, 5, 8} groups
of every family, a uniform, a skewed and a degenerate selection, seeds 0-1,
``truncate_last`` on and off, and three budgets: one below the first task's
time, one that ends inside the first block, and one that runs past the most
blocks a round holds.  They were written by the engine that did the
arithmetic block by block; the size of a round must not change a bit.

``python tests/test_srp_budget_digests.py`` rewrites
``data/srp_budget_digests.json`` from the installed engine.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    GroupModel,
    SrpPolicy,
    UtilitySpec,
    run_episode,
    sim,
    solve,
)
from helpers import episode_digest, family_srp_episode, two_group_env, uniform_utilities

DATA = Path(__file__).parent / "data" / "srp_budget_digests.json"

BUDGETS = {"below_one_task": 1e-3, "first_block": 100.0, "past_round_cap": 30000.0}
BLOCK = 512


def cases():
    for k in (1, 2, 5, 8):
        for kind in ("uniform", "skewed", "degenerate"):
            for truncate in (False, True):
                for seed in (0, 1):
                    for budget in BUDGETS:
                        yield k, kind, truncate, seed, budget


def case_id(k, kind, truncate, seed, budget) -> str:
    return f"k{k}-{kind}-truncate{int(truncate)}-seed{seed}-{budget}"


def episode(k, kind, truncate, seed, budget):
    return family_srp_episode(k, kind, truncate, seed, BUDGETS[budget])


def count_rounds(monkeypatch) -> list[int]:
    """Record the block count of every SRP round from now on."""
    rounds = []
    size = sim._round_blocks

    def counted(*args):
        rounds.append(size(*args))
        return rounds[-1]

    monkeypatch.setattr(sim, "_round_blocks", counted)
    return rounds


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_srp_budget_episodes_match_frozen_digests(k, monkeypatch):
    frozen = json.loads(DATA.read_text())
    rounds = count_rounds(monkeypatch)
    mismatched, multi_round = [], []
    for case in cases():
        if case[0] != k:
            continue
        _, _, truncate, _, budget = case
        rounds.clear()
        res = episode(*case)
        if episode_digest(res) != frozen[case_id(*case)]:
            mismatched.append(case_id(*case))
        if len(rounds) > 1:
            multi_round.append(case_id(*case))
        if budget == "below_one_task":
            assert res.n_tasks == (0 if truncate else 1)
        elif budget == "first_block":
            assert res.n_tasks < BLOCK
        else:
            assert res.n_tasks > sim._ROUND_BLOCKS * BLOCK
    assert mismatched == []
    # only the budget past the round cap needs a second round
    assert multi_round == [case_id(*c) for c in cases() if c[0] == k and c[-1] == "past_round_cap"]


@pytest.mark.parametrize("variant", ["one_block_rounds", "rounds_too_short", "rounds_too_long"])
def test_round_size_changes_no_bit(variant, monkeypatch):
    # the frozen digests are the default engine's results (checked above)
    if variant == "one_block_rounds":  # the block-by-block structure
        monkeypatch.setattr(sim, "_ROUND_BLOCKS", 1)
    else:  # a per-task time estimate 1000x too large or too small
        scale = 1e3 if variant == "rounds_too_short" else 1e-3
        estimate = sim._srp_time_per_task
        monkeypatch.setattr(sim, "_srp_time_per_task", lambda *args: scale * estimate(*args))
    frozen = json.loads(DATA.read_text())
    mismatched = [case_id(*case) for case in cases() if episode_digest(episode(*case)) != frozen[case_id(*case)]]
    assert mismatched == []


def test_benchmark_sized_srp_trial_runs_at_most_two_rounds(monkeypatch):
    # the oracle SRP on the two-group Pareto environment at budget 4000 runs
    # about 1735 tasks: four blocks, sized into one round
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    policy = SrpPolicy.from_solution(solve(groups, deadlines, us))
    rounds = count_rounds(monkeypatch)
    for seed in range(20):
        rounds.clear()
        run_episode(groups, deadlines, us, policy, 4000.0, seed)
        assert 1 <= len(rounds) <= 2
        assert sum(rounds) >= 4


def test_crossing_follows_block_by_block_running_totals():
    # every task takes 0.1, so the running totals are known without the
    # streams: block j adds the cumsum of its own 512 stages to the total
    # before it.  At the stages chosen here one cumsum across blocks rounds
    # above that total, so a budget equal to it would end one task early.
    groups = [GroupModel(Deterministic(0.1), Constant(1.0))]
    policy = SrpPolicy(selection=(1.0,), deadlines=(1.0,))
    within = np.cumsum(np.full(BLOCK, 0.1))
    running = [0.0 + within]
    for _ in range(3):
        running.append(running[-1][-1] + within)
    running = np.concatenate(running)
    across = np.cumsum(np.full(running.size, 0.1))
    # stage m (0-based) is the last that fits; the bracket check needs the
    # total without the crossing task m + 1 to stay within the budget
    stages = [m for m in range(BLOCK, running.size - 1)
              if across[m] > running[m] and running[m + 1] - 0.1 <= running[m]]
    assert len(stages) > 10
    for m in stages[::len(stages) // 10]:
        res = run_episode(groups, DeadlineSet((1.0,)), [UtilitySpec(0.0)], policy, float(running[m]), 0)
        assert res.n_tasks == m + 2


@pytest.mark.parametrize("blocks", [1, 3, 16])
def test_one_choice_draw_per_round_equals_one_per_block(blocks):
    whole, by_block = sim._policy_stream(7, 2), sim._policy_stream(7, 2)
    round_draw = whole.random(blocks * BLOCK)
    block_draws = np.concatenate([by_block.random(BLOCK) for _ in range(blocks)])
    assert round_draw.tobytes() == block_draws.tobytes()
    assert whole.random() == by_block.random()


if __name__ == "__main__":
    table = {case_id(*case): episode_digest(episode(*case)) for case in cases()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
