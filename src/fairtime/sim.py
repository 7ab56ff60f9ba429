"""Budget-constrained episode simulation and Monte Carlo aggregation.

An episode keeps assigning tasks until the cumulative occupied time first
exceeds the budget; the crossing task is included, time and reward (matching
the first-passage stopping rule; set ``truncate_last`` to discard it
instead).  Per-group reward rates are totals divided by the budget.

Reproducibility contract: episode ``i`` of a Monte Carlo run uses seed
``base_seed + i`` and is bit-identical whether run standalone or inside
``monte_carlo``, which runs its trials one after another in trial order in
the calling thread.  Within an episode, group ``k`` draws its task stream
from an independent substream keyed by ``(seed, k)``; the randomized policy
draws selections from substream ``(seed, K)``.  Stage n of
every group's stream is that group's latent task-n sample, so the sample
matrix is independent of the policy's choices; the online engine draws it
256 stages at a time and hands each chunk to the learner whole.

The randomized-policy engine draws stages in 512-stage blocks, one call per
group per block in block order, and does the arithmetic (selection, gather,
censoring, first passage and totals) once per round of blocks.  A round
holds enough blocks for the remaining budget at the policy's expected time
per task, at most ``_ROUND_BLOCKS``.  Running and per-group totals keep the
rounding of block-by-block sums, and the stages past the crossing task are
discarded, so the round size changes no bit of a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DeadlineSet, GroupModel, base_rewards, sample_completions, truncated_mean_time
from .learning import LearnerParams, OnlineLearner
from .offline import OfflineSolution, solve
from .utility import RATE_FLOOR, UtilitySpec, marginal, total_utility

_BLOCK = 512  # stages each group draws per call under a randomized policy
_ROUND_BLOCKS = 16  # most blocks one SRP round holds, so its arrays stay small
_CHUNK = 256  # stages the online engine draws and hands to the learner at once


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SrpPolicy:
    """Stationary randomized policy: i.i.d. group selection with a fixed
    per-group deadline."""

    selection: tuple[float, ...]
    deadlines: tuple[float, ...]
    label: str = "srp"

    def __post_init__(self):
        sel = tuple(float(p) for p in self.selection)
        if any(p < 0 for p in sel) or abs(sum(sel) - 1.0) > 1e-9:
            raise ValueError("selection must be a probability distribution over groups")
        if len(self.deadlines) != len(sel):
            raise ValueError("need one deadline per group")
        object.__setattr__(self, "selection", sel)
        object.__setattr__(self, "deadlines", tuple(float(t) for t in self.deadlines))

    @classmethod
    def from_solution(cls, solution: OfflineSolution) -> "SrpPolicy":
        return cls(
            selection=tuple(float(p) for p in solution.selection),
            deadlines=tuple(s.deadline for s in solution.stats),
            label="oracle_srp",
        )

    def matrix(self, deadlines: DeadlineSet) -> np.ndarray:
        """Distribution over groups x deadline-grid columns."""
        grid = deadlines.as_array()
        P = np.zeros((len(self.selection), len(grid)))
        for k, (p, t) in enumerate(zip(self.selection, self.deadlines)):
            cols = np.flatnonzero(grid == t)
            if len(cols) == 0:
                raise ValueError(f"policy deadline {t} for group {k} not in the deadline set")
            P[k, cols[0]] = p
        return P


@dataclass(frozen=True)
class OnlinePolicy:
    params: LearnerParams
    label: str = "online"


Policy = SrpPolicy | OnlinePolicy


@dataclass(frozen=True)
class EpisodeResult:
    n_tasks: int
    per_group_time: np.ndarray
    per_group_reward: np.ndarray
    reward_rates: np.ndarray   # per_group_reward / budget
    time_shares: np.ndarray    # per_group_time / total consumed time
    utility: float
    floored: bool
    trace: list[dict] | None = None


@dataclass(frozen=True)
class McSummary:
    trials: int
    mean_reward_rates: np.ndarray
    se_reward_rates: np.ndarray
    mean_time_shares: np.ndarray
    se_time_shares: np.ndarray
    mean_utility: float
    se_utility: float
    utility_of_mean_rates: float
    opt_utility_rate: float
    regret: float          # opt_utility_rate - utility_of_mean_rates
    regret_se: float       # delta-method propagation of the rate SEs
    floored_frac: float
    mean_tasks: float


def _group_streams(seed: int, n_groups: int) -> list[np.random.Generator]:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        for k in range(n_groups)
    ]


def _policy_stream(seed: int, n_groups: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n_groups,)))


def _draw_stages(groups, rngs, x, r):
    """Write the next n stages of every group into the (K, n) arrays x
    (completions) and r (base rewards)."""
    for k, (g, rng) in enumerate(zip(groups, rngs)):
        x[k] = sample_completions(g.completion, rng, x.shape[1])
        r[k] = base_rewards(g.reward, x[k], rng)


# ---------------------------------------------------------------------------
# episode execution
# ---------------------------------------------------------------------------

def run_episode(
    groups: list[GroupModel],
    deadlines: DeadlineSet,
    utilities: list[UtilitySpec],
    policy: Policy,
    budget: float,
    seed: int,
    *,
    truncate_last: bool = False,
    collect_trace: bool = False,
) -> EpisodeResult:
    """Run one budgeted episode under the given policy."""
    if not (budget > 0 and math.isfinite(budget)):
        raise ValueError(f"budget must be positive and finite, got {budget}")
    if isinstance(policy, SrpPolicy):
        totals = _run_srp(groups, deadlines, policy, budget, seed)
        trace = None
    elif isinstance(policy, OnlinePolicy):
        totals, trace = _run_online(
            groups, deadlines, utilities, policy.params, budget, seed, collect_trace
        )
    else:
        raise TypeError(f"unknown policy {policy!r}")
    time_tot, reward_tot, n_tasks, last_elapsed, last_group, last_reward = totals

    total_time = time_tot.sum()
    # first-passage bracket: the crossing task pushed the total past the
    # budget, and without it the total was at most the budget
    if not (total_time > budget and total_time - last_elapsed <= budget):
        raise RuntimeError(
            f"first-passage bracket violated: total {total_time!r}, last task "
            f"{last_elapsed!r}, budget {budget!r}"
        )

    if truncate_last:
        time_tot = time_tot.copy()
        reward_tot = reward_tot.copy()
        time_tot[last_group] -= last_elapsed
        reward_tot[last_group] -= last_reward
        n_tasks -= 1
        total_time = time_tot.sum()

    rates = reward_tot / budget
    shares = time_tot / total_time if total_time > 0 else np.zeros_like(time_tot)
    utility, floored = total_utility(utilities, rates)
    return EpisodeResult(
        n_tasks=n_tasks,
        per_group_time=time_tot,
        per_group_reward=reward_tot,
        reward_rates=rates,
        time_shares=shares,
        utility=utility,
        floored=floored,
        trace=trace,
    )


def _srp_time_per_task(groups, policy) -> float:
    """The policy's expected occupied time per task, sum_k p_k E[min(X_k, t_k)]."""
    return sum(
        p * truncated_mean_time(g.completion, t)
        for g, p, t in zip(groups, policy.selection, policy.deadlines)
    )


def _round_blocks(remaining: float, per_task: float) -> int:
    """Blocks in the next SRP round: enough to spend the remaining budget at
    the expected time per task, at least 1 and at most ``_ROUND_BLOCKS``."""
    blocks = remaining / (per_task * _BLOCK) if per_task > 0 else _ROUND_BLOCKS
    return max(1, math.ceil(min(blocks, _ROUND_BLOCKS)))


def _draw_chosen(groups, rngs, ks):
    """Draw len(ks) stages of every group and return each stage's completion
    and base reward in its chosen group ks.  The groups draw block by block:
    one call for the whole round would give other numbers (buffered
    integers, rewards drawn between completions)."""
    K, n = len(groups), len(ks)
    x = np.empty((K, n))
    r = np.empty((K, n))
    for j in range(0, n, _BLOCK):
        _draw_stages(groups, rngs, x[:, j:j + _BLOCK], r[:, j:j + _BLOCK])
    flat = ks * n
    flat += np.arange(n)
    return x.take(flat), r.take(flat)


def _add_block_sums(totals, bins, weights):
    """Add the weights to the (K,) totals one block after another, where bin
    k + K * j is group k in block j: each block's sum starts from 0, as a
    block-by-block bincount does, and the carry goes in as the first row of
    one cumsum, since adding the blocks' sums first would round differently."""
    K = len(totals)
    blocks = bins[-1] // K + 1
    sums = np.bincount(bins, weights=weights, minlength=blocks * K).reshape(blocks, K)
    return np.cumsum(np.concatenate((totals[None], sums)), axis=0)[-1]


def _run_srp(groups, deadlines, policy, budget, seed):
    K = len(groups)
    if len(policy.selection) != K:
        raise ValueError(f"policy has {len(policy.selection)} groups, environment has {K}")
    policy.matrix(deadlines)  # validates deadline membership
    t_assigned = np.asarray(policy.deadlines)
    bounds = np.cumsum(policy.selection)[:-1, None]  # between groups k and k + 1
    per_task = _srp_time_per_task(groups, policy)
    group_rngs = _group_streams(seed, K)
    choice_rng = _policy_stream(seed, K)

    time_tot = np.zeros(K)
    reward_tot = np.zeros(K)
    n_tasks = 0
    total = 0.0
    while True:
        nb = _round_blocks(budget - total, per_task)
        n = nb * _BLOCK
        # the choice stream draws one double per stage, so one draw for the
        # round equals one per block.  A stage's group is the number of bounds
        # at or below its draw u: searchsorted(cumsum(selection), u, "right")
        # capped at K - 1
        ks = (bounds <= choice_rng.random(n)).sum(axis=0)
        xk, rk = _draw_chosen(groups, group_rngs, ks)
        tk = t_assigned.take(ks)
        elapsed = np.minimum(xk, tk)
        # running totals: each block adds its own cumsum to the total before
        # it, since one cumsum across blocks would round differently
        cums = np.cumsum(elapsed.reshape(nb, _BLOCK), axis=1)
        start = total
        for block in cums:
            block += start
            start = block[-1]
        cums = cums.ravel()
        pos = int(np.searchsorted(cums, budget, side="right"))
        take = pos + 1 if pos < n else n
        rewards = np.where(xk[:take] <= tk[:take], rk[:take], 0.0)
        bins = np.arange(take) // _BLOCK * K
        bins += ks[:take]
        time_tot = _add_block_sums(time_tot, bins, elapsed[:take])
        reward_tot = _add_block_sums(reward_tot, bins, rewards)
        n_tasks += take
        total = cums[take - 1]
        if pos < n:
            last = take - 1
            return time_tot, reward_tot, n_tasks, elapsed[last], int(ks[last]), rewards[last]


def _run_online(groups, deadlines, utilities, params, budget, seed, collect_trace):
    K = len(groups)
    if len(utilities) != K:
        raise ValueError(f"{len(utilities)} utilities vs {K} groups")
    rngs = _group_streams(seed, K)
    learner = OnlineLearner(utilities, deadlines, params)

    time_tot = [0.0] * K  # Python floats add with the bits of float64 elements
    reward_tot = [0.0] * K
    total = 0.0
    n = 0
    trace: list[dict] | None = [] if collect_trace else None
    while total <= budget:
        # the stages do not depend on the decisions, so the learner gets a
        # whole chunk at once; it still uses stage n only from task n + delay.
        # One errstate covers the chunk's tasks; a sampling overflow still warns
        x_chunk, r_chunk = np.empty((K, _CHUNK)), np.empty((K, _CHUNK))
        _draw_stages(groups, rngs, x_chunk, r_chunk)
        learner.ingest_feedback(n + 1, x_chunk, r_chunk)
        xs, rs = x_chunk.tolist(), r_chunk.tolist()
        with np.errstate(divide="ignore", over="ignore"):
            for pos, n in enumerate(range(n + 1, n + 1 + _CHUNK)):
                k, t = learner.decide()
                x = xs[k][pos]
                elapsed = min(x, t)
                reward = rs[k][pos] if x <= t else 0.0
                targets = learner.step(k, elapsed, reward)
                time_tot[k] += elapsed
                reward_tot[k] += reward
                total += elapsed
                if trace is not None:
                    trace.append({"task": n, "group": k, "deadline": t, "elapsed": elapsed, "reward": reward,
                                  "queues": learner.queues, "targets": np.array(targets)})
                if total > budget:
                    break
    return (np.array(time_tot), np.array(reward_tot), n, elapsed, k, reward), trace


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------

def monte_carlo(
    groups: list[GroupModel],
    deadlines: DeadlineSet,
    utilities: list[UtilitySpec],
    policy: Policy,
    budget: float,
    trials: int,
    base_seed: int,
    *,
    truncate_last: bool = False,
    opt_utility_rate: float | None = None,
) -> McSummary:
    """Aggregate ``trials`` independent episodes (trial i uses seed
    base_seed + i).

    Trials run one after another in trial order, so each matches its
    standalone ``run_episode`` bit for bit.  Regret is measured
    against the offline optimum utility rate (computed here unless passed
    in), applying the utilities to the across-trial mean reward rates.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if opt_utility_rate is None:
        opt_utility_rate = solve(groups, deadlines, utilities).utility_rate

    K = len(groups)
    rates = np.empty((trials, K))
    shares = np.empty((trials, K))
    utils = np.empty(trials)
    tasks = np.empty(trials)
    floored = np.zeros(trials, dtype=bool)

    for i in range(trials):
        res = run_episode(
            groups, deadlines, utilities, policy, budget, base_seed + i,
            truncate_last=truncate_last,
        )
        rates[i] = res.reward_rates
        shares[i] = res.time_shares
        utils[i] = res.utility
        tasks[i] = res.n_tasks
        floored[i] = res.floored

    mean_rates = rates.mean(axis=0)
    se_rates = rates.std(axis=0, ddof=1) / math.sqrt(trials)
    util_of_mean, _ = total_utility(utilities, mean_rates)
    # delta method: d/dr_k U_k at the mean rates, floored like total_utility
    sens = np.array(
        [marginal(u, max(m, RATE_FLOOR) if u.alpha > 0 else m) for u, m in zip(utilities, mean_rates)]
    )
    regret_se = float(np.sqrt(((sens * se_rates) ** 2).sum()))
    return McSummary(
        trials=trials,
        mean_reward_rates=mean_rates,
        se_reward_rates=se_rates,
        mean_time_shares=shares.mean(axis=0),
        se_time_shares=shares.std(axis=0, ddof=1) / math.sqrt(trials),
        mean_utility=float(utils.mean()),
        se_utility=float(utils.std(ddof=1) / math.sqrt(trials)),
        utility_of_mean_rates=util_of_mean,
        opt_utility_rate=opt_utility_rate,
        regret=opt_utility_rate - util_of_mean,
        regret_se=regret_se,
        floored_frac=float(floored.mean()),
        mean_tasks=float(tasks.mean()),
    )


# ---------------------------------------------------------------------------
# regret curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegretPoint:
    budget: float
    v: float
    regret: float
    stderr: float
    excluded: bool  # nonpositive regret (Monte Carlo noise), left out of the fit


@dataclass(frozen=True)
class RegretCurve:
    points: tuple[RegretPoint, ...]
    slope: float  # least-squares log-log slope over included points (nan if < 2)


def default_v(budget: float) -> float:
    """Tradeoff-weight rule sqrt(budget / log(budget)) matching the regret
    guarantee's scaling; 1.0 for budgets too small for the rule."""
    if budget <= math.e:
        return 1.0
    return math.sqrt(budget / math.log(budget))


def regret_curve(
    groups: list[GroupModel],
    deadlines: DeadlineSet,
    utilities: list[UtilitySpec],
    budget_grid: list[float],
    trials: int,
    base_seed: int,
    *,
    delay: int = 1,
    target_rate_cap: float | None = None,
    v_override: float | None = None,
    truncate_last: bool = False,
) -> RegretCurve:
    """Estimate the learner's regret at each budget and fit a log-log slope.

    The grid must be strictly increasing with at least 4 points spanning at
    least 1.5 decades, so the slope fit has leverage.  Each point reuses the
    same base seed (common random numbers across budgets).
    """
    grid = [float(b) for b in budget_grid]
    if len(grid) < 4:
        raise ValueError("budget grid needs at least 4 points")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("budget grid must be strictly increasing")
    if grid[-1] / grid[0] < 10 ** 1.5:
        raise ValueError("budget grid must span at least 1.5 decades")

    opt = solve(groups, deadlines, utilities).utility_rate
    points = []
    for b in grid:
        v = v_override if v_override is not None else default_v(b)
        params = LearnerParams(v=v, delay=delay, target_rate_cap=target_rate_cap)
        mc = monte_carlo(
            groups, deadlines, utilities, OnlinePolicy(params), b, trials, base_seed,
            truncate_last=truncate_last, opt_utility_rate=opt,
        )
        points.append(
            RegretPoint(
                budget=b, v=v, regret=mc.regret, stderr=mc.regret_se,
                excluded=mc.regret <= 0.0,
            )
        )

    included = [p for p in points if not p.excluded]
    if len(included) >= 2:
        log_b = np.log([p.budget for p in included])
        log_r = np.log([p.regret for p in included])
        slope = float(np.polyfit(log_b, log_r, 1)[0])
    else:
        slope = math.nan
    return RegretCurve(points=tuple(points), slope=slope)
