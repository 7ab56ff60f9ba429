"""Shared fixtures: the two-group Pareto environment and its exact moments.

The frozen constants below were computed independently with 30-digit
arithmetic from the closed forms
    E[min(X,t)]        = s + s**g (s**(1-g) - t**(1-g)) / (g-1)
    E[X**b 1{X<=t}]    = g s**b / (g-b) * (1 - (t/s)**(b-g))
for Pareto(scale s, shape g) completion and X**b rewards.
"""

import hashlib

import numpy as np

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
    SrpPolicy,
    UtilitySpec,
    run_episode,
)

DEADLINE_GRID = (1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0)


def two_group_env():
    groups = [
        GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "group1"),
        GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2), "group2"),
    ]
    return groups, DeadlineSet(DEADLINE_GRID)


# one group of every completion and reward family, with unequal weights;
# the frozen episode digests take the first k of these
FAMILY_GROUPS = [
    (GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "pareto_pow"), 1.0),
    (GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2), "pareto_pow_light"), 2.0),
    (GroupModel(Exponential(0.5), PowerOfTime(0.8), "exp_pow"), 1.5),
    (GroupModel(Exponential(1.0), Constant(1.0), "exp_const"), 0.5),
    (GroupModel(Deterministic(3.0), ScaledUniform(0.5, 1.5), "det_uniform"), 1.0),
    (GroupModel(Empirical((0.5, 1.0, 2.0, 4.0, 8.0, 16.0)), PowerOfTime(0.5), "emp_pow"), 0.75),
    (GroupModel(Pareto(2.0, 2.5), ScaledUniform(0.0, 2.0), "pareto_uniform"), 1.25),
    (GroupModel(Exponential(0.25), ScaledUniform(1.0, 3.0), "exp_uniform"), 0.8),
]


MIXED_ALPHAS = (2.0, 0.0, 1.0, 0.5)


def family_episode(k, alpha, delay, cap, seed, budget):
    """One online episode on the first k FAMILY_GROUPS with their weights at
    v = 5, as the frozen digests run it: alpha is one value or "mixed"
    (MIXED_ALPHAS in turn); seed 0 traces every task, seed 1 drops the
    crossing task."""
    alphas = [MIXED_ALPHAS[i % 4] if alpha == "mixed" else alpha for i in range(k)]
    utilities = [UtilitySpec(a, w) for a, (_, w) in zip(alphas, FAMILY_GROUPS)]
    policy = OnlinePolicy(LearnerParams(v=5.0, delay=delay, target_rate_cap=cap))
    return run_episode(
        [g for g, _ in FAMILY_GROUPS[:k]], DeadlineSet(DEADLINE_GRID), utilities, policy, budget, seed,
        truncate_last=seed == 1, collect_trace=seed == 0,
    )


def srp_selection(kind: str, k: int) -> tuple[float, ...]:
    """A uniform, a skewed, or a degenerate selection over k groups; the
    degenerate one puts all mass on the last group, so every other group's
    selection interval is empty."""
    if kind == "uniform":
        return (1.0 / k,) * k
    if kind == "skewed":
        w = [(i + 1) ** 2 for i in range(k)]
        return tuple(x / sum(w) for x in w)
    return (0.0,) * (k - 1) + (1.0,)


def family_srp_episode(k, kind, truncate, seed, budget):
    """One SRP episode on the first k FAMILY_GROUPS with their weights at
    alpha 1, as the frozen SRP digests run it."""
    groups = [g for g, _ in FAMILY_GROUPS[:k]]
    utilities = [UtilitySpec(1.0, w) for _, w in FAMILY_GROUPS[:k]]
    # deadlines 2, 7, 1.5, 5, 20, 4, 15, 3: spread over the menu, below and
    # above each family's typical completion
    deadlines = tuple(DEADLINE_GRID[(4 * i + 1) % len(DEADLINE_GRID)] for i in range(k))
    policy = SrpPolicy(selection=srp_selection(kind, k), deadlines=deadlines)
    return run_episode(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, seed, truncate_last=truncate)


def episode_digest(res) -> str:
    """sha256 of one ``run_episode`` result: the task count, the float64 bytes
    of the per-group totals, rates and shares, the utility, and every traced
    task with its queue and target vectors."""
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


def uniform_utilities(alpha, k=2):
    return [UtilitySpec(alpha=alpha, weight=1.0) for _ in range(k)]


# group 1 = Pareto(1, 1.2) with X**0.6 rewards
MU1_AT_5 = 2.3761016816115224       # E[min(X, 5)]
TH1_AT_5 = 1.2385384245136486       # E[X**0.6 1{X<=5}]
T1_STAR = 7.0
R1_STAR = 0.52747695421614766
MU1_STAR = 2.6119454329975953
TH1_STAR = 1.3777410215763486

# group 2 = Pareto(1, 1.4) with X**0.2 rewards
TH2_AT_4 = 0.94562466738390027      # E[X**0.2 1{X<=4}]
T2_STAR = 4.0
R2_STAR = 0.45812328486220448
MU2_STAR = 2.0641270562537063
TH2_STAR = 0.94562466738390027

# optimal time shares and duals on the deadline grid above
PHI_ALPHA_HALF = (0.53518346820755478, 0.46481653179244522)
LAM_ALPHA_HALF = 0.9927740120885277
OPT_ALPHA_HALF = 1.9855480241770554
SEL_ALPHA_1 = (0.44142323734254153, 0.55857676265745847)
OPT_ALPHA_1 = -2.8065614145647446
PHI_ALPHA_2 = (0.48238643542273064, 0.51761356457726936)


def random_positive_instance(rng, k=None, alphas=(0.3, 0.5, 1.0, 2.0, 4.0)):
    """Synthetic per-group stats + utilities for solver cross-checks."""
    from fairtime import GroupStats

    k = k if k is not None else int(rng.integers(2, 6))
    alpha = float(rng.choice(alphas))
    stats = [
        GroupStats(
            group=i,
            label=f"g{i}",
            deadline=float(rng.uniform(1, 10)),
            rate=float(rng.uniform(0.05, 2.0)),
            mean_processing_time=float(rng.uniform(0.2, 5.0)),
            mean_reward=0.0,
        )
        for i in range(k)
    ]
    utilities = [UtilitySpec(alpha=alpha, weight=float(rng.uniform(0.2, 5.0))) for _ in range(k)]
    return alpha, utilities, stats


def alpha_fair_optimum_reference(alpha, weights, rates):
    """Test-local closed form for the optimal utility given per-group rates.

    Independent of the package's solver: direct evaluation of the KKT
    solution for  max sum w_k U(r_k phi_k)  over the simplex.
    """
    w = np.asarray(weights, dtype=float)
    r = np.asarray(rates, dtype=float)
    if alpha == 0.0:
        return float(np.max(w * r))
    if alpha == 1.0:
        phi = w / w.sum()
        return float(np.sum(w * np.log(r * phi)))
    s = np.sum(w ** (1.0 / alpha) * r ** (1.0 / alpha - 1.0))
    return float(s ** alpha / (1.0 - alpha))
