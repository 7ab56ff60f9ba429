"""Budget-constrained episode simulation and Monte Carlo aggregation.

An episode keeps assigning tasks until the cumulative occupied time first
exceeds the budget; the crossing task is included, time and reward (matching
the first-passage stopping rule; set ``truncate_last`` to discard it
instead).  Per-group reward rates are totals divided by the budget.  A
policy is an ``SrpPolicy`` (stationary randomized) or the online learner's
``LearnerParams``.

Reproducibility contract: episode ``i`` of a Monte Carlo run uses seed
``base_seed + i`` and is bit-identical whether run standalone or inside
``monte_carlo``, which runs its trials one after another in trial order in
the calling thread.  Within an episode, group ``k`` draws its task stream
from an independent substream keyed by ``(seed, k)``; the randomized policy
draws selections from substream ``(seed, K)``.  Every episode's substreams
come from ``_trial_streams``, a vectorised port of numpy's
``SeedSequence(seed, spawn_key=(k,))`` (``_stream_words``): ``monte_carlo``
seeds up to ``_SEED_CHUNK`` trials in one pass, and a standalone episode is
a pass of one.  Stage n of every group's stream is that group's latent
task-n sample, so the sample matrix is independent of the policy's choices.
The online engine draws 256 stages at a time and hands each chunk to the
learner, which folds it in pieces of at most 64 KiB per (deadline, group,
stage) array; the randomized-policy engine draws in calls of 512.  Where
rewards are drawn between completions (a ScaledUniform reward after Pareto,
Exponential or Empirical completions) the call size shows in the numbers,
so such a group's latent stages from stage 257 on differ between the two
policies.  A traced online episode lists each chunk's trace rows as Python
numbers and turns them into one float64 block when the chunk ends; the
blocks are joined once at the end, so the trace costs 8 (5 + 2K) bytes a
task.

The randomized-policy engine works in rounds of 512-stage blocks.  A round
holds enough blocks for the remaining budget at the policy's expected time
per task, at most ``_ROUND_BLOCKS``.  A group draws its whole round in one
call when its samplers' calls concatenate (``draws_concatenate``) and one
call per block otherwise; either way its stream gives the numbers of one
call per block.  The arithmetic (selection, gather, censoring, first passage
and totals) runs once per round.  Running and per-group totals keep the
rounding of block-by-block sums, and the stages past the crossing task are
discarded, so the round size changes no bit of a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DeadlineSet,
    GroupModel,
    base_rewards,
    check_integer,
    check_number,
    draws_concatenate,
    sample_completions,
    truncated_mean_time,
)
from .learning import LearnerParams, OnlineLearner
from .offline import OfflineSolution, solve
from .utility import RATE_FLOOR, UtilitySpec, marginal, total_utility

_BLOCK = 512  # most stages a group draws per call where its calls do not concatenate
_ROUND_BLOCKS = 16  # most blocks one SRP round holds, so its arrays stay small
_CHUNK = 256  # stages the online engine draws and hands to the learner at once
_SEED_CHUNK = 1024  # most trials whose stream states monte_carlo computes in one pass

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx): the
# entropy hash, the output hash and the pool mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SrpPolicy:
    """Stationary randomized policy: i.i.d. group selection with a fixed
    per-group deadline."""

    selection: tuple[float, ...]
    deadlines: tuple[float, ...]

    def __post_init__(self):
        sel = tuple(check_number(p, "selection probability", strict=False) for p in self.selection)
        if not abs(sum(sel) - 1.0) <= 1e-9:
            raise ValueError(f"selection must be a probability distribution over groups, got {sel}")
        if len(self.deadlines) != len(sel):
            raise ValueError("need one deadline per group")
        object.__setattr__(self, "selection", sel)
        object.__setattr__(self, "deadlines", tuple(check_number(t, "policy deadline") for t in self.deadlines))
        # the SRP engine's per-trial constants, kept out of the fields (and so
        # out of __eq__): the bounds between groups k and k + 1 on the
        # selection draw, and each group's deadline
        object.__setattr__(self, "_bounds", np.cumsum(sel)[:-1, None])
        object.__setattr__(self, "_deadline_array", np.asarray(self.deadlines))

    @classmethod
    def from_solution(cls, solution: OfflineSolution) -> "SrpPolicy":
        return cls(solution.selection, [s.deadline for s in solution.stats])

    def columns(self, deadlines: DeadlineSet) -> list[int]:
        """Each group's deadline as its index in the deadline set."""
        cols = []
        for k, t in enumerate(self.deadlines):
            if t not in deadlines.deadlines:
                raise ValueError(f"policy deadline {t} for group {k} not in the deadline set")
            cols.append(deadlines.deadlines.index(t))
        return cols

    def matrix(self, deadlines: DeadlineSet) -> np.ndarray:
        """Distribution over groups x deadline-grid columns."""
        P = np.zeros((len(self.selection), len(deadlines)))
        P[range(len(self.selection)), self.columns(deadlines)] = self.selection
        return P


Policy = SrpPolicy | LearnerParams


@dataclass(frozen=True)
class EpisodeResult:
    """One budget-constrained episode: its tasks, per-group totals, rates and utility."""

    n_tasks: int
    per_group_time: np.ndarray
    per_group_reward: np.ndarray
    reward_rates: np.ndarray   # per_group_reward / budget
    time_shares: np.ndarray    # per_group_time / total consumed time
    utility: float
    floored: bool
    # a row per traced task: task, group (0-based), deadline, elapsed, reward,
    # the K queues after the task and the K targets of its update
    trace: np.ndarray | None = None


@dataclass(frozen=True)
class McSummary:
    """Across-trial means and standard errors of a Monte Carlo run, with its regret."""

    trials: int
    mean_reward_rates: np.ndarray
    se_reward_rates: np.ndarray
    mean_time_shares: np.ndarray
    se_time_shares: np.ndarray
    utility_of_mean_rates: float
    opt_utility_rate: float
    regret: float          # opt_utility_rate - utility_of_mean_rates
    regret_se: float       # delta-method propagation of the rate SEs
    floored_frac: float
    mean_tasks: float


def _hash_steps(init: int, mult: int, count: int):
    """SeedSequence's first ``count`` hash steps as two (count, 1, 1) uint32 arrays: step
    i xors with h_i and multiplies by h_(i+1), where h_0 = init and h_(i+1) = h_i * mult mod 2^32."""
    h = np.array([init] + [mult] * count, dtype=np.uint32).cumprod(dtype=np.uint32)[:, None, None]
    return h[:-1], h[1:]


def _stream_words(seeds, n: int) -> np.ndarray:
    """The (len(seeds), n, 4) uint64 PCG64 seed words of substreams (s, 0) ..
    (s, n - 1) of every seed s, equal to
    ``SeedSequence(s, spawn_key=(k,)).generate_state(4, np.uint64)``.

    A port of SeedSequence to uint32 arrays over seeds x keys.  The seed's
    32-bit words, zero-padded to the 4-word pool, are hashed into the pool and
    mixed; words past the fourth (seeds of 2^128 or more), then the key, are
    mixed into every pool word; the pool is hashed out into 8 words.  Each
    word is hashed for every pool word it feeds in one array operation over
    their hash steps.  Seeds are grouped by their padded word count.
    Arithmetic stays on arrays, where uint32 wraps without a warning."""
    seeds = list(seeds)
    out = np.empty((len(seeds), n, 8), dtype=np.uint32)
    keys = np.arange(n, dtype=np.uint32)

    def hashmix(value, xor, mult):
        value = (value ^ xor) * mult
        value ^= value >> 16  # in place, as a 1024-seed pass's temporaries count in peak RSS
        return value

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    # pool word src mixes into pool word dst != src at step 4 + 3 src + dst - (dst > src)
    cross = [[4 + 3 * src + dst - (dst > src) for dst in range(4)] for src in range(4)]
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(seeds):
        by_size.setdefault(max(4, -(-s.bit_length() // 32)), []).append(i)
    for size, rows in by_size.items():
        entropy = np.frombuffer(b"".join(seeds[i].to_bytes(4 * size, "little") for i in rows), "<u4")
        entropy = entropy.reshape(len(rows), size).T[:, :, None].astype(np.uint32)  # (word, seed, 1)
        # 4 steps hash the pool in, 12 mix it, then word i >= 4 takes steps 4i .. 4i + 3
        xor, mult = _hash_steps(_INIT_A, _MULT_A, 4 * size + 4)
        pool = hashmix(entropy[:4], xor[:4], mult[:4])
        for src, (cross_xor, cross_mult) in enumerate(zip(xor[cross], mult[cross])):
            mixed = mix(pool, hashmix(pool[src], cross_xor, cross_mult))
            mixed[src] = pool[src]  # a pool word does not mix into itself
            pool = mixed
        for i, word in enumerate([*entropy[4:], keys], 4):  # the key broadcasts the pool to (seed, key)
            pool = mix(pool, hashmix(word, xor[4 * i:4 * i + 4], mult[4 * i:4 * i + 4]))
        xor, mult = _hash_steps(_INIT_B, _MULT_B, 8)
        for j in (0, 4):  # the pool hashed out twice, into words 0-3 and 4-7
            out[rows, :, j:j + 4] = hashmix(pool, xor[j:j + 4], mult[j:j + 4]).transpose(1, 2, 0)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _trial_streams(base_seed: int, trials: int, n: int):
    """Yield the substreams (s, 0) .. (s, n - 1) of every seed
    s = base_seed + i, i < trials, as the generators
    ``default_rng(SeedSequence(s, spawn_key=(k,)))`` would be: one
    ``_stream_words`` pass per ``_SEED_CHUNK`` trials, and each PCG64 seeded
    with its words.  The only source of an episode's generators."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence that hands PCG64 precomputed words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words

    end = base_seed + trials
    for start in range(base_seed, end, _SEED_CHUNK):
        for words in _stream_words(range(start, min(start + _SEED_CHUNK, end)), n):
            yield [Generator(PCG64(Words(w))) for w in words]


def _draw_stages(groups, rngs, n):
    """The next n stages of every group as (K, n) arrays of completions and
    base rewards.  A group whose calls concatenate draws all n in one call;
    any other group draws them in calls of ``_BLOCK`` stages, the last one
    shorter, so the online engine's ``_CHUNK`` of 256 stages is one call."""
    x = np.empty((len(groups), n))
    r = np.empty((len(groups), n))
    for k, (g, rng) in enumerate(zip(groups, rngs)):
        step = n if draws_concatenate(g) else _BLOCK
        for j in range(0, n, step):
            xs = x[k, j:j + step]
            xs[:] = sample_completions(g.completion, rng, xs.size)
            r[k, j:j + step] = base_rewards(g.reward, xs, rng)
    return x, r


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
    rngs: list[np.random.Generator] | None = None,
) -> EpisodeResult:
    """Run one budgeted episode under the given policy: an ``SrpPolicy``, or
    a ``LearnerParams`` for the online learner.

    The episode's substreams are ``next(_trial_streams(seed, 1, n))``: n is
    K + 1 for an SRP policy, whose selections come from substream K, and K
    for the learner.  ``rngs``, when given, replace them and must have their
    bits; ``monte_carlo`` passes them precomputed.  Any other number of
    ``rngs``, or of utilities than K, raises ValueError before a draw.
    """
    check_number(budget, "budget")
    K = len(groups)
    if len(utilities) != K:
        raise ValueError(f"{len(utilities)} utilities vs {K} groups")
    streams = K + isinstance(policy, SrpPolicy)
    if rngs is None:
        rngs = next(_trial_streams(check_integer(seed, "seed", 0), 1, streams))
    elif len(rngs) != streams:
        # too few would leave stages undrawn, and an SRP policy would pick
        # groups from a group's stream
        raise ValueError(f"need {streams} generators for {K} groups, got {len(rngs)}")
    if isinstance(policy, SrpPolicy):
        totals = _run_srp(groups, deadlines, policy, budget, rngs)
        trace = None
    elif isinstance(policy, LearnerParams):
        totals, trace = _run_online(groups, deadlines, utilities, policy, budget, rngs, collect_trace)
    else:
        raise TypeError(f"unknown policy {policy!r}")
    time_tot, reward_tot, n_tasks, before, after, last_elapsed, last_group, last_reward = totals

    # first-passage bracket on the engine's running totals: the crossing task
    # pushed the total past the budget, and without it the total was at most
    # the budget
    if not (before <= budget < after):
        raise RuntimeError(
            f"first-passage bracket violated: running total {before!r} before "
            f"the last task and {after!r} after it, budget {budget!r}"
        )

    # both engines return arrays of their own, so the crossing task comes off in place
    if truncate_last:
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


def _add_block_sums(totals, bins, weights):
    """Add the weights to the (K,) totals one block after another, where bin
    k + K * j is group k in block j: each block's sum starts from 0, as a
    block-by-block bincount does, and the carry is added to the first block's
    sum before one cumsum, since adding the blocks' sums first would round
    differently."""
    K = len(totals)
    blocks = bins[-1] // K + 1
    sums = np.bincount(bins, weights=weights, minlength=blocks * K).reshape(blocks, K)
    sums[0] += totals
    return np.cumsum(sums, axis=0, out=sums)[-1]


def _run_srp(groups, deadlines, policy, budget, rngs):
    K = len(groups)
    if len(policy.selection) != K:
        raise ValueError(f"policy has {len(policy.selection)} groups, environment has {K}")
    policy.columns(deadlines)  # validates deadline membership
    t_assigned, bounds = policy._deadline_array, policy._bounds
    per_task = _srp_time_per_task(groups, policy)
    *group_rngs, choice_rng = rngs

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
        x, r = _draw_stages(groups, group_rngs, n)
        flat = ks * n  # each stage's completion and base reward in its chosen group
        flat += np.arange(n)
        xk, rk = x.take(flat), r.take(flat)
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
        before = cums[take - 2] if take > 1 else total
        total = cums[take - 1]
        if pos < n:
            last = take - 1
            return time_tot, reward_tot, n_tasks, before, total, elapsed[last], int(ks[last]), rewards[last]


def _run_online(groups, deadlines, utilities, params, budget, rngs, collect_trace):
    K = len(groups)
    learner = OnlineLearner(utilities, deadlines, params)

    time_tot = [0.0] * K  # Python floats add with the bits of float64 elements
    reward_tot = [0.0] * K
    total = 0.0
    n = 0
    # the trace: each chunk's rows, flat, become one float64 block at the
    # chunk's end, so no Python object outlives its chunk
    cells: list = []
    blocks: list[np.ndarray] = []
    while total <= budget:
        # the stages do not depend on the decisions, so the learner gets a
        # whole chunk at once; it still uses stage n only from task n + delay.
        # One errstate covers the chunk's tasks; a sampling overflow still warns
        x_chunk, r_chunk = _draw_stages(groups, rngs, _CHUNK)
        learner.ingest_feedback(x_chunk, r_chunk)
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
                before = total
                total += elapsed
                if collect_trace:
                    cells += (n, k, t, elapsed, reward, *learner._queues, *targets)
                if total > budget:
                    break
        if collect_trace:
            blocks.append(np.array(cells, dtype=np.float64).reshape(-1, 5 + 2 * K))
            cells.clear()
    trace = np.concatenate(blocks) if collect_trace else None
    return (np.array(time_tot), np.array(reward_tot), n, before, total, elapsed, k, reward), trace


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
    standalone ``run_episode`` bit for bit; their substreams come from one
    ``_stream_words`` pass per ``_SEED_CHUNK`` trials.  Regret is measured
    against the offline optimum utility rate (computed here unless passed
    in), applying the utilities to the across-trial mean reward rates.
    """
    base_seed = check_integer(base_seed, "seed", 0)
    trials = check_integer(trials, "trials", 2)
    if opt_utility_rate is None:
        opt_utility_rate = solve(groups, deadlines, utilities).utility_rate

    K = len(groups)
    rates = np.empty((trials, K))
    shares = np.empty((trials, K))
    tasks = np.empty(trials)
    floored = np.zeros(trials, dtype=bool)

    streams = _trial_streams(base_seed, trials, K + isinstance(policy, SrpPolicy))
    for i, rngs in enumerate(streams):
        res = run_episode(
            groups, deadlines, utilities, policy, budget, base_seed + i,
            truncate_last=truncate_last, rngs=rngs,
        )
        rates[i] = res.reward_rates
        shares[i] = res.time_shares
        tasks[i] = res.n_tasks
        floored[i] = res.floored

    mean_rates = rates.mean(axis=0)
    se_rates = rates.std(axis=0, ddof=1) / math.sqrt(trials)
    util_of_mean, _ = total_utility(utilities, mean_rates)
    # delta method: d/dr_k U_k at the mean rates, floored like total_utility
    sens = np.array([marginal(u, max(m, RATE_FLOOR)) for u, m in zip(utilities, mean_rates)])
    regret_se = float(np.sqrt(((sens * se_rates) ** 2).sum()))
    return McSummary(
        trials=trials,
        mean_reward_rates=mean_rates,
        se_reward_rates=se_rates,
        mean_time_shares=shares.mean(axis=0),
        se_time_shares=shares.std(axis=0, ddof=1) / math.sqrt(trials),
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
    """The learner's Monte Carlo regret at one budget of a regret curve."""

    budget: float
    v: float
    regret: float
    stderr: float
    excluded: bool  # nonpositive regret (Monte Carlo noise), left out of the fit


@dataclass(frozen=True)
class RegretCurve:
    """Regret points over a budget grid and their fitted log-log slope."""

    points: tuple[RegretPoint, ...]
    slope: float  # least-squares log-log slope over included points (nan if < 2)


def default_v(budget: float) -> float:
    """Tradeoff-weight rule sqrt(budget / log(budget)) matching the regret
    guarantee's scaling; 1.0 for budgets too small for the rule."""
    if budget <= math.e:
        return 1.0
    return math.sqrt(budget / math.log(budget))


def check_budget_grid(budget_grid: list[float]) -> tuple[float, ...]:
    """The grid as floats; raises ValueError unless it is strictly increasing
    with at least 4 positive, finite points spanning at least 1.5 decades, so
    the slope fit has leverage."""
    grid = tuple(check_number(b, "budget grid value") for b in budget_grid)
    if len(grid) < 4:
        raise ValueError("budget grid needs at least 4 points")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("budget grid must be strictly increasing")
    if grid[-1] / grid[0] < 10 ** 1.5:
        raise ValueError("budget grid must span at least 1.5 decades")
    return grid


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

    The grid must pass ``check_budget_grid``.  Each point reuses the same base
    seed (common random numbers across budgets).  The slope is the closed-form
    ordinary-least-squares fit of ``np.log`` regret on ``np.log`` budget over
    the points with positive regret, ``nan`` when fewer than 2 remain.
    """
    grid = check_budget_grid(budget_grid)
    base_seed = check_integer(base_seed, "seed", 0)
    trials = check_integer(trials, "trials", 2)
    opt = solve(groups, deadlines, utilities).utility_rate
    points = []
    for b in grid:
        v = v_override if v_override is not None else default_v(b)
        params = LearnerParams(v=v, delay=delay, target_rate_cap=target_rate_cap)
        mc = monte_carlo(
            groups, deadlines, utilities, params, b, trials, base_seed,
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
        db = log_b - log_b.mean()
        slope = float((db * (log_r - log_r.mean())).sum() / (db * db).sum())
    else:
        slope = math.nan
    return RegretCurve(points=tuple(points), slope=slope)
