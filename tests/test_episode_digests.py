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
bit for bit.  ``python tests/test_episode_digests.py`` rewrites the file
from the installed engine.
"""

import hashlib
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
    LearnerParams,
    OnlinePolicy,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    UtilitySpec,
    run_episode,
)

DATA = Path(__file__).parent / "data" / "episode_digests.json"

GROUPS = [
    (GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "pareto_pow"), 1.0),
    (GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2), "pareto_pow_light"), 2.0),
    (GroupModel(Exponential(0.5), PowerOfTime(0.8), "exp_pow"), 1.5),
    (GroupModel(Exponential(1.0), Constant(1.0), "exp_const"), 0.5),
    (GroupModel(Deterministic(3.0), ScaledUniform(0.5, 1.5), "det_uniform"), 1.0),
    (GroupModel(Empirical((0.5, 1.0, 2.0, 4.0, 8.0, 16.0)), PowerOfTime(0.5), "emp_pow"), 0.75),
    (GroupModel(Pareto(2.0, 2.5), ScaledUniform(0.0, 2.0), "pareto_uniform"), 1.25),
    (GroupModel(Exponential(0.25), ScaledUniform(1.0, 3.0), "exp_uniform"), 0.8),
]
DEADLINES = DeadlineSet((1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0))
MIXED_ALPHAS = (2.0, 0.0, 1.0, 0.5)
BUDGETS = {1: 40.0, 3: 40.0, 300: 2000.0, 600: 3000.0}
V = 5.0


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
    alphas = [MIXED_ALPHAS[i % 4] if alpha == "mixed" else alpha for i in range(k)]
    utilities = [UtilitySpec(a, w) for a, (_, w) in zip(alphas, GROUPS)]
    policy = OnlinePolicy(LearnerParams(v=V, delay=delay, target_rate_cap=cap))
    # seed 0 traces every task; seed 1 drops the crossing task instead
    return run_episode(
        [g for g, _ in GROUPS[:k]], DEADLINES, utilities, policy, BUDGETS[delay], seed,
        truncate_last=seed == 1, collect_trace=seed == 0,
    )


def digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.int64(res.n_tasks).tobytes())
    for arr in (res.per_group_time, res.per_group_reward, res.reward_rates, res.time_shares):
        h.update(np.asarray(arr, dtype=np.float64).tobytes())
    h.update(np.float64(res.utility).tobytes() + bytes([res.floored]))
    for row in res.trace or ():
        h.update(np.array([row["task"], row["group"]], dtype=np.int64).tobytes())
        h.update(np.array([row["deadline"], row["elapsed"], row["reward"]], dtype=np.float64).tobytes())
        h.update(np.asarray(row["queues"], dtype=np.float64).tobytes())
        h.update(np.asarray(row["targets"], dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("delay", list(BUDGETS))
def test_online_episodes_match_frozen_digests(delay):
    frozen = json.loads(DATA.read_text())
    mismatched, deepest = [], 0
    for case in cases():
        if case[0] != delay:
            continue
        res = episode(*case)
        deepest = max(deepest, res.n_tasks - delay)
        if digest(res) != frozen[case_id(*case)]:
            mismatched.append(case_id(*case))
    assert mismatched == []
    if delay > 256:
        # some episode released more than one 256-stage chunk of samples
        assert deepest > 256


if __name__ == "__main__":
    table = {case_id(*case): digest(episode(*case)) for case in cases()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
