"""Plain statements of the two engines, checked against them bit for bit.

``srp_episode`` runs one stationary randomized policy (SRP) episode one
512-stage block at a time.  Each block draws 512 selections from the choice
stream and 512 stages of every group in one sampler call per group.  It finds
the crossing task on the carried running total plus the block's cumulative
sums, and adds the block's per-group sums to the carried totals.  The engine
instead batches blocks into rounds, and draws a round in one call where a
group's calls concatenate; both must give the same bits.

``online_episode`` runs the online learner one task at a time: running
(group, deadline) sums grown one released stage at a time, numpy's first
arg-max over the whole score grid, and the targets and queues as (K,)
arrays.  The engine folds 256-stage blocks at once and decides on Python
floats; both must give the same bits.

The references share only the samplers and ``helpers.numpy_streams``
(numpy's own SeedSequence) with the package.  They run on the host that runs
the test, so unlike the frozen digests, which hold only under the SIMD
dispatch they were frozen at, they check the engines on any host.
"""

import numpy as np

from fairtime.distributions import base_rewards, sample_completions
from helpers import numpy_streams

BLOCK = 512
CHUNK = 256  # stages the online engine draws per group and call


def srp_episode(groups, selection, deadlines, budget, seed, truncate_last=False):
    """(task count, per-group time, per-group reward, running total before
    the crossing task, running total after it) of one SRP episode.

    Stage n of the episode picks group k with probability ``selection[k]``
    from the choice stream ``(seed, K)``, and takes stage n of that group's
    stream ``(seed, k)``.  It occupies min(x, t_k) and earns its reward if
    x <= t_k.  The episode ends with the first task whose running total
    exceeds the budget, which counts unless ``truncate_last``."""
    K = len(groups)
    *group_rngs, choice_rng = numpy_streams(seed, K + 1)
    bounds = np.cumsum(selection)[:-1]  # group k covers [bounds[k - 1], bounds[k])
    t = np.asarray(deadlines, dtype=float)
    stage = np.arange(BLOCK)
    time_tot, reward_tot = np.zeros(K), np.zeros(K)
    n_tasks, total = 0, 0.0
    while True:
        ks = np.searchsorted(bounds, choice_rng.random(BLOCK), side="right")
        x, r = np.empty((K, BLOCK)), np.empty((K, BLOCK))
        for k, (g, rng) in enumerate(zip(groups, group_rngs)):
            x[k] = sample_completions(g.completion, rng, BLOCK)
            r[k] = base_rewards(g.reward, x[k], rng)
        x, r, tk = x[ks, stage], r[ks, stage], t[ks]
        elapsed = np.minimum(x, tk)
        reward = np.where(x <= tk, r, 0.0)
        running = total + np.cumsum(elapsed)
        crossed = np.flatnonzero(running > budget)
        take = crossed[0] + 1 if crossed.size else BLOCK
        time_tot += np.bincount(ks[:take], weights=elapsed[:take], minlength=K)
        reward_tot += np.bincount(ks[:take], weights=reward[:take], minlength=K)
        n_tasks += take
        if crossed.size:
            last = take - 1
            before = running[last - 1] if last else total
            if truncate_last:
                time_tot[ks[last]] -= elapsed[last]
                reward_tot[ks[last]] -= reward[last]
                n_tasks -= 1
            return n_tasks, time_tot, reward_tot, before, running[last]
        total = running[-1]


def online_episode(groups, utilities, deadlines, params, budget, seed, truncate_last=False):
    """(task count, per-group time, per-group reward, trace) of one episode
    of the online learner; the trace lists every task's (group, deadline,
    queues after the task, targets of its update).

    Group k's stream ``(seed, k)`` gives stage n of the group, its latent
    task-n sample.  The first max(delay, K) tasks go round-robin to the
    groups at the largest deadline; stage n is usable from task n + delay.
    Past the cold start, task n goes to the first arg-max of queue_k * rate
    over the (group, deadline) grid of the usable stages' rates (the weights
    replace the queues when every group is linear).  Each task's update adds
    target_k * elapsed to every queue and takes the reward off the chosen
    one, at least 0; the targets are 0 when every group is linear, and
    otherwise (w v / Q)^(1/alpha) capped at the group's best rate (1.0 before
    any stage is usable) or at the fixed cap, a linear group's being its cap
    while Q < w v and 0 after."""
    K, grid = len(groups), np.asarray(deadlines, dtype=float)
    rngs = numpy_streams(seed, K)
    alphas = np.array([u.alpha for u in utilities])
    weights = np.array([u.weight for u in utilities])
    wv = weights * params.v
    linear = alphas == 0.0
    inv_alpha = np.array([1.0 / a if a > 0 else 1.0 for a in alphas])
    fixed_cap = params.target_rate_cap
    caps = np.full(K, 1.0 if fixed_cap is None else fixed_cap)
    queues = np.ones(K)
    xs, rs = [], []  # every drawn stage, as (K,) arrays
    busy_sums, reward_sums = np.zeros((K, grid.size)), np.zeros((K, grid.size))
    released = 0
    time_tot, reward_tot = np.zeros(K), np.zeros(K)
    total, n, trace = 0.0, 0, []
    while total <= budget:
        n += 1
        if n > len(xs):
            x = [sample_completions(g.completion, rng, CHUNK) for g, rng in zip(groups, rngs)]
            r = [base_rewards(g.reward, xk, rng) for g, xk, rng in zip(groups, x, rngs)]
            xs += list(np.array(x).T)
            rs += list(np.array(r).T)
        with np.errstate(divide="ignore", over="ignore"):
            while released < n - params.delay:
                x, r = xs[released][:, None], rs[released][:, None]
                busy_sums = busy_sums + np.minimum(x, grid)
                reward_sums = reward_sums + np.where(x <= grid, r, 0.0)
                released += 1
            rates = reward_sums / busy_sums if released else None
            if released and fixed_cap is None:
                caps = rates.max(axis=1)
            if n <= max(params.delay, K):
                k, l = (n - 1) % K, grid.size - 1
            else:
                multipliers = weights if linear.all() else queues
                k, l = divmod(int(np.argmax(rates * multipliers[:, None])), grid.size)
            if linear.all():
                targets = np.zeros(K)
            else:
                targets = np.minimum(np.power(wv / queues, inv_alpha), caps)
                targets[linear] = np.where(queues < wv, caps, 0.0)[linear]
            x = xs[n - 1][k]
            elapsed = min(x, grid[l])
            reward = rs[n - 1][k] if x <= grid[l] else 0.0
            queues = queues + targets * elapsed
            queues[k] = np.maximum(queues[k] - reward, 0.0)
        time_tot[k] += elapsed
        reward_tot[k] += reward
        total += elapsed
        trace.append((k, grid[l], queues, targets))
    if truncate_last:
        time_tot[k] -= elapsed
        reward_tot[k] -= reward
        n -= 1
    return n, time_tot, reward_tot, trace
