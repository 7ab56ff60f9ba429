"""Online dual-ascent learner for fair budgeted task allocation.

The learner keeps one nonnegative virtual queue per group measuring how far
that group's collected reward lags behind a per-group target rate.  Each
task it picks the (group, deadline) pair maximizing

    queue_k * (empirical reward / empirical processing time)(k, t),

so a group whose queue has grown (it has been treated unfairly so far) wins
the arg-max even if its raw rate is lower.  After the chosen task finishes,
having occupied the server for ``elapsed`` time and paid ``reward``, every
queue is updated with

    Q_k <- max(0, Q_k + target_k * elapsed - reward * 1{k chosen}),

where the target rate  target_k = (U_k')^{-1}(Q_k / v)  couples the queue to
the utility's marginal: v trades utility against queue growth (large v chases
utility harder but lets queues, and hence transient unfairness, grow).

Feedback is full-information and delayed: the (completion, base reward) pair
of every group for task n only becomes usable when deciding task n + delay.
A released sample is folded into running (group, deadline) sums of censored
busy time and censored reward, which are the learner's sufficient
statistics: all deadlines share the same sample set and no per-deadline
exploration is needed.

When every utility is linear (alpha = 0 across the board) the queue
machinery buys nothing: the objective is a plain weighted sum of rates, so
the learner greedily maximizes the empirical weighted rate w_k * rate(k, t)
and the queues are left idle.  Queue-driven dynamics with the capped
subgradient target (see ``target_rates``) would instead park every queue
near v * w and keep granting the slower groups a Theta(1/v) share forever.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .distributions import DeadlineSet
from .utility import UtilitySpec

# Target-rate cap used before any feedback has been released (the empirical
# cap needs at least one sample).
FALLBACK_RATE_CAP = 1.0


@dataclass(frozen=True)
class LearnerParams:
    """Tuning knobs for the online learner.

    v: utility-vs-queue tradeoff weight in the dual update (> 0).
    delay: feedback delay in tasks (>= 1).
    target_rate_cap: fixed cap on the per-group target rates; None means
        "cap at the group's current empirical best rate", which keeps the
        targets finite when a queue hits zero and the inverse marginal
        diverges.
    """

    v: float
    delay: int = 1
    target_rate_cap: float | None = None

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError(f"v must be > 0, got {self.v}")
        if not (isinstance(self.delay, int) and self.delay >= 1):
            raise ValueError(f"delay must be an integer >= 1, got {self.delay}")
        if self.target_rate_cap is not None and not self.target_rate_cap > 0:
            raise ValueError(f"target_rate_cap must be > 0, got {self.target_rate_cap}")


class OnlineLearner:
    """Mutable per-episode learner state.

    Owned by a single episode.  Stage indices are 1-based: the first decided
    task is task 1, and its feedback vector is ingested as stage 1.
    """

    def __init__(
        self,
        utilities: list[UtilitySpec],
        deadlines: DeadlineSet,
        params: LearnerParams,
    ):
        if len(utilities) == 0:
            raise ValueError("need at least one group")
        self.params = params
        self.deadline_grid = deadlines.as_array()
        self.n_groups = len(utilities)
        self._alphas = np.array([u.alpha for u in utilities])
        self._weights = np.array([u.weight for u in utilities])
        self._inv_alpha = np.where(self._alphas > 0, 1.0 / np.maximum(self._alphas, 1e-300), 1.0)
        self._greedy = bool((self._alphas == 0.0).all())
        # queues start at 1 so the inverse marginal is finite from the start
        self.queues = np.ones(self.n_groups)
        self.tasks_done = 0
        # first max(delay, K) tasks cycle the groups round-robin at the
        # largest deadline (least censoring, most informative samples)
        self.cold_start_tasks = max(params.delay, self.n_groups)
        self._pending: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._ingested = 0
        self._released = 0
        L = len(self.deadline_grid)
        self._busy_sums = np.zeros((self.n_groups, L))
        self._reward_sums = np.zeros((self.n_groups, L))
        # empirical reward per busy time, _reward_sums / _busy_sums; None
        # until the first sample is released
        self._rates: np.ndarray | None = None

    # -- feedback ----------------------------------------------------------

    def ingest_feedback(self, stage: int, completions, base_rewards) -> None:
        """Buffer the full-information vector of task ``stage``.

        The vector holds every group's latent (completion, base reward) for
        that task; it is folded into the estimators once ``delay`` further
        tasks have been decided.  Stages must arrive in order.
        """
        if stage != self._ingested + 1:
            raise ValueError(f"feedback for stage {stage} out of order (expected {self._ingested + 1})")
        x = np.asarray(completions, dtype=float)
        r = np.asarray(base_rewards, dtype=float)
        if x.shape != (self.n_groups,) or r.shape != (self.n_groups,):
            raise ValueError(f"feedback vectors must have shape ({self.n_groups},)")
        self._pending.append((x, r))
        self._ingested += 1

    def _release_due(self) -> None:
        # usable when deciding task m: stages <= m - delay
        target = self.tasks_done + 1 - self.params.delay
        while self._released < target and self._pending:
            x, r = self._pending.popleft()
            self._busy_sums += np.minimum(x[:, None], self.deadline_grid[None, :])
            self._reward_sums += r[:, None] * (x[:, None] <= self.deadline_grid[None, :])
            self._released += 1
        if self._released:
            self._rates = self._reward_sums / self._busy_sums

    @property
    def released_samples(self) -> int:
        return self._released

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical means over the released samples on the (group, deadline)
        grid: (mean of min(completion, t), mean censored reward at t)."""
        if self._released == 0:
            raise ValueError("no samples released yet")
        return self._busy_sums / self._released, self._reward_sums / self._released

    # -- decisions ---------------------------------------------------------

    def decide(self) -> tuple[int, float]:
        """Pick (group index, deadline) for the next task.

        Cold start: round-robin over groups at the largest deadline.  After
        that, the queue-weighted empirical rate arg-max (utility weights
        replace the queues when all utilities are linear); ties break to the
        smallest group index, then the smallest deadline.
        """
        self._release_due()
        task = self.tasks_done + 1
        if task <= self.cold_start_tasks:
            return (task - 1) % self.n_groups, float(self.deadline_grid[-1])
        multipliers = self._weights if self._greedy else self.queues
        scores = self._rates * multipliers[:, None]
        flat = int(np.argmax(scores))
        k, l = divmod(flat, len(self.deadline_grid))
        return k, float(self.deadline_grid[l])

    def _rate_caps(self) -> np.ndarray:
        if self.params.target_rate_cap is not None:
            return np.full(self.n_groups, self.params.target_rate_cap)
        if self._rates is None:
            return np.full(self.n_groups, FALLBACK_RATE_CAP)
        return self._rates.max(axis=1)

    def target_rates(self) -> np.ndarray:
        """Per-group target reward rates (U')^{-1}(Q/v), capped.

        The cap (empirical best rate, or the configured fixed value) keeps
        the target finite when a queue reaches 0; targets above a group's
        achievable rate are infeasible anyway.  Linear utilities (alpha = 0)
        have no unique inverse marginal: the maximizing subgradient choice is
        the cap while Q/v < w and zero after.  In the all-linear greedy mode
        there is no fairness debt to track, so all targets are zero.
        """
        if self._greedy:
            return np.zeros(self.n_groups)
        caps = self._rate_caps()
        with np.errstate(divide="ignore", over="ignore"):
            raw = (self._weights * self.params.v / self.queues) ** self._inv_alpha
        rates = np.minimum(raw, caps)
        linear = self._alphas == 0.0
        if linear.any():
            rates = np.where(
                linear, caps * (self.queues < self.params.v * self._weights), rates
            )
        return rates

    def update_queues(
        self,
        chosen: int,
        elapsed: float,
        reward: float,
        targets: np.ndarray | None = None,
    ) -> None:
        """Dual update after the chosen task ran for ``elapsed`` time and
        paid ``reward`` (zero if interrupted); advances the task counter."""
        if elapsed < 0:
            raise ValueError(f"elapsed time must be >= 0, got {elapsed}")
        if reward < 0:
            raise ValueError(f"reward must be >= 0, got {reward}")
        if targets is None:
            targets = self.target_rates()
        self.queues = self.queues + targets * elapsed
        self.queues[chosen] -= reward
        np.maximum(self.queues, 0.0, out=self.queues)
        self.tasks_done += 1
