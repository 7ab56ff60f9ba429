"""Frozen SRP digests across budgets, and the SRP engine's round structure.

The stationary randomized policy (SRP) engine draws its stages in 512-stage
blocks and does the episode arithmetic once per round of blocks.  The
digests, hashed as in ``test_srp_digests.py``, cover K in {1, 2, 5, 8} groups
of every family, a uniform, a skewed and a degenerate selection, seeds 0-1,
``truncate_last`` on and off, and three budgets: one below the first task's
time, one that ends inside the first block, and one that runs past the most
blocks a round holds.  They were written by the engine that did the
arithmetic block by block; the size of a round must not change a bit.

``python tests/test_srp_budget_digests.py --force`` rewrites
``data/srp_budget_digests.json`` from the installed engine; without
``--force`` it refuses to overwrite the file.

numpy's baseline loops for pow, exp and log round some results differently
from its AVX-512 ones, so the X86_V3 dispatch has its own file,
``data/srp_budget_digests_x86_v3.json``, written by the same command with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` set.  The
in-process tests read it when its recorded dispatch is the running process's;
one more test computes the table in a subprocess under that variable.
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
    Empirical,
    Exponential,
    GroupModel,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    SrpPolicy,
    UtilitySpec,
    run_episode,
    sim,
    solve,
)
from fairtime.distributions import base_rewards, draws_concatenate, sample_completions
from helpers import (
    FAMILY_GROUPS,
    check_digests_at_x86_v3,
    dispatch_file,
    episode_digest,
    family_srp_episode,
    freeze,
    numpy_host,
    numpy_streams,
    two_group_env,
    uniform_utilities,
    writer_file,
)

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


def digest_table() -> dict:
    return {case_id(*case): episode_digest(episode(*case)) for case in cases()}


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
    data = dispatch_file(DATA)
    frozen = json.loads(data.read_text())
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
    assert mismatched == [], numpy_host(data)
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
    data = dispatch_file(DATA)
    frozen = json.loads(data.read_text())
    mismatched = [case_id(*case) for case in cases() if episode_digest(episode(*case)) != frozen[case_id(*case)]]
    assert mismatched == [], numpy_host(data)


def test_srp_budget_episodes_match_frozen_digests_at_x86_v3():
    check_digests_at_x86_v3("test_srp_budget_digests", DATA)


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
    # stage m (0-based) is the last that fits
    stages = [m for m in range(BLOCK, running.size - 1) if across[m] > running[m]]
    assert len(stages) > 10
    for m in stages[::len(stages) // 10]:
        res = run_episode(groups, DeadlineSet((1.0,)), [UtilitySpec(0.0)], policy, float(running[m]), 0)
        assert res.n_tasks == m + 2


@pytest.mark.parametrize("blocks", [1, 3, 16])
def test_one_choice_draw_per_round_equals_one_per_block(blocks):
    whole, by_block = numpy_streams(7, 3)[2], numpy_streams(7, 3)[2]
    round_draw = whole.random(blocks * BLOCK)
    block_draws = np.concatenate([by_block.random(BLOCK) for _ in range(blocks)])
    assert round_draw.tobytes() == block_draws.tobytes()
    assert whole.random() == by_block.random()


COMPLETIONS = [Pareto(1.0, 1.2), Exponential(0.5), Deterministic(3.0), Empirical((0.5, 1.0, 2.0, 4.0, 8.0, 16.0))]
REWARDS = [PowerOfTime(0.5), Constant(1.0), ScaledUniform(0.5, 1.5)]
# a ScaledUniform reward is drawn after the completions of the same call
INTERLEAVED = {(Pareto, ScaledUniform), (Exponential, ScaledUniform), (Empirical, ScaledUniform)}


def draw_in_calls(group, sizes):
    """The group's stages drawn from substream (7, 0) in calls of the given
    sizes, and the stream's next integers and double."""
    rng = numpy_streams(7, 1)[0]
    x, r = [], []
    for size in sizes:
        x.append(sample_completions(group.completion, rng, size))
        r.append(base_rewards(group.reward, x[-1], rng))
    return np.concatenate(x).tobytes(), np.concatenate(r).tobytes(), rng.integers(0, 6, 3).tobytes(), rng.random()


@pytest.mark.parametrize("reward", REWARDS, ids=lambda spec: type(spec).__name__)
@pytest.mark.parametrize("completion", COMPLETIONS, ids=lambda spec: type(spec).__name__)
def test_one_call_per_round_equals_one_per_block_where_the_draws_concatenate(completion, reward):
    group = GroupModel(completion, reward)
    assert draws_concatenate(group) == ((type(completion), type(reward)) not in INTERLEAVED)
    for blocks in (1, 3, 16):
        same = draw_in_calls(group, [blocks * BLOCK]) == draw_in_calls(group, [BLOCK] * blocks)
        assert same == (draws_concatenate(group) or blocks == 1)


def test_empirical_draws_concatenate_at_odd_sizes():
    # integers takes 32-bit half-words; after an odd count the spare half
    # waits in the bit generator, so the next call starts with it.  Draws of
    # 512 stages use whole words unless a draw is rejected (about 1e-9 each),
    # so the frozen digests could not tell a per-call buffer apart
    rng = numpy_streams(7, 1)[0]
    rng.integers(0, 6, 3)
    assert rng.bit_generator.state["has_uint32"] == 1
    group = GroupModel(Empirical((0.5, 1.0, 2.0, 4.0, 8.0, 16.0)), PowerOfTime(0.5))
    assert draw_in_calls(group, [7]) == draw_in_calls(group, [3, 4]) == draw_in_calls(group, [1, 1, 5])


def test_srp_round_calls_each_sampler_once_unless_rewards_interleave(monkeypatch):
    # a budget-1500 episode on the first 8 FAMILY_GROUPS runs one round of
    # several blocks; only the two groups whose ScaledUniform rewards follow
    # drawn completions draw block by block
    groups = [g for g, _ in FAMILY_GROUPS]
    per_block = {"pareto_uniform", "exp_uniform"}
    calls = []

    def counted(spec, rng, size):
        calls.append((spec, size))
        return sample_completions(spec, rng, size)

    monkeypatch.setattr(sim, "sample_completions", counted)
    rounds = count_rounds(monkeypatch)
    family_srp_episode(8, "uniform", False, 0, 1500.0)
    assert len(rounds) == 1 and rounds[0] > 1
    expected = [(g.completion, rounds[0] * BLOCK) for g in groups if g.label not in per_block]
    expected += [(g.completion, BLOCK) for g in groups if g.label in per_block] * rounds[0]
    assert sorted(calls, key=repr) == sorted(expected, key=repr)


if __name__ == "__main__":
    sys.exit(freeze(writer_file(DATA), digest_table))
