"""A plain statement of the SRP engine, checked against it bit for bit.

``srp_episode`` runs one stationary randomized policy (SRP) episode one
512-stage block at a time.  Each block draws 512 selections from the choice
stream and 512 stages of every group in one sampler call per group.  It finds
the crossing task on the carried running total plus the block's cumulative
sums, and adds the block's per-group sums to the carried totals.  The engine
instead batches blocks into rounds, and draws a round in one call where a
group's calls concatenate; both must give the same bits.

The reference shares only ``sim._streams`` and the samplers with the
package.  It runs on the host that runs the test, so unlike the frozen
digests, which hold only under the SIMD dispatch they were frozen at, it
checks the engine on any host.
"""

import numpy as np

from fairtime.distributions import base_rewards, sample_completions
from fairtime.sim import _streams

BLOCK = 512


def srp_episode(groups, selection, deadlines, budget, seed, truncate_last=False):
    """(task count, per-group time, per-group reward) of one SRP episode.

    Stage n of the episode picks group k with probability ``selection[k]``
    from the choice stream ``(seed, K)``, and takes stage n of that group's
    stream ``(seed, k)``.  It occupies min(x, t_k) and earns its reward if
    x <= t_k.  The episode ends with the first task whose running total
    exceeds the budget, which counts unless ``truncate_last``."""
    K = len(groups)
    *group_rngs, choice_rng = _streams(seed, K + 1)
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
            if truncate_last:
                last = take - 1
                time_tot[ks[last]] -= elapsed[last]
                reward_tot[ks[last]] -= reward[last]
                n_tasks -= 1
            return n_tasks, time_tot, reward_tot
        total = running[-1]
