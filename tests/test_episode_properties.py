"""Invariants of ``run_episode`` over random environments and policies.

``helpers.episodes`` draws them: every completion and reward family, 1 to 8
groups with unequal weights, mixed alphas including 0, feedback delays 1 to
5, a fixed or empirical target cap, budgets from below one task to about
300, SRP policies on the deadline menu and ``truncate_last`` on and off.
Whatever the draw, the episode must return (its first-passage bracket
held), with finite nonnegative rates and time shares that sum to 1 or are
all 0; an online trace has a row per task run and finite nonnegative
queues.  Beyond the two-group Pareto environment, an SRP's Monte Carlo
reward rates match ``srp_group_rates`` within their standard errors and the
first-passage bias.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    GroupModel,
    LearnerParams,
    PowerOfTime,
    ScaledUniform,
    SrpPolicy,
    UtilitySpec,
    monte_carlo,
    run_episode,
    srp_group_rates,
)
from helpers import DEADLINE_GRID, FAMILY_GROUPS, episodes


@settings(max_examples=200, deadline=None, database=None)
@given(episodes(), st.integers(0, 2**32))
def test_episode_invariants(episode, seed):
    groups, deadlines, utilities, policy, budget, truncate = episode
    online = isinstance(policy, LearnerParams)
    res = run_episode(groups, deadlines, utilities, policy, budget, seed,
                      truncate_last=truncate, collect_trace=online)
    assert res.n_tasks >= 0
    assert np.isfinite(res.reward_rates).all() and (res.reward_rates >= 0).all()
    assert np.isfinite(res.time_shares).all() and (res.time_shares >= 0).all()
    total = math.fsum(res.time_shares)
    assert abs(total - 1.0) <= 1e-12 or not res.time_shares.any()
    if online:
        assert len(res.trace) == res.n_tasks + truncate
        queues = res.trace[:, 5:5 + len(groups)]
        assert np.isfinite(queues).all() and (queues >= 0).all()


# regret_k8_delay3's 8 groups (every family, the quadrature path, unequal
# weights at alpha 2), and 3 groups pairing the other completions and rewards
SRP_RATE_ENVS = {
    "family8": ([g for g, _ in FAMILY_GROUPS], [UtilitySpec(2.0, w) for _, w in FAMILY_GROUPS]),
    "mix3": ([GroupModel(Exponential(0.7), ScaledUniform(0.5, 2.0), "exp_uniform"),
              GroupModel(Empirical((0.3, 1.0, 2.5, 6.0, 12.0)), Constant(1.5), "emp_const"),
              GroupModel(Deterministic(4.0), PowerOfTime(0.7), "det_pow")],
             [UtilitySpec(1.0, w) for w in (1.0, 2.0, 0.5)]),
}


@pytest.mark.parametrize("env", SRP_RATE_ENVS)
def test_srp_rates_match_long_run_rates(env):
    """By Wald's identity each group's expected reward rate is
    rho_k (1 + E[overshoot] / B), and the crossing task overshoots the
    budget by at most the policy's largest deadline."""
    groups, utilities = SRP_RATE_ENVS[env]
    deadlines = DeadlineSet(DEADLINE_GRID)
    budget = 2000.0
    r = np.random.default_rng(505)
    for i in range(3):
        selection = tuple(map(float, r.dirichlet(np.ones(len(groups)))))
        policy = SrpPolicy(selection, tuple(map(float, r.choice(DEADLINE_GRID, len(groups)))))
        rho = srp_group_rates(policy.matrix(deadlines), groups, deadlines)
        mc = monte_carlo(groups, deadlines, utilities, policy, budget, 200, 1000 * i)
        # compared, never divided: a group that earns nothing has rho = se = 0
        bound = 4 * mc.se_reward_rates + rho * max(policy.deadlines) / budget
        assert (np.abs(mc.mean_reward_rates - rho) <= bound).all(), (policy, mc.mean_reward_rates, rho)
