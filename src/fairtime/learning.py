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
The learner's sufficient statistics are running (group, deadline) sums of
censored busy time and censored reward: all deadlines share the same sample
set and no per-deadline exploration is needed.  These sums, and the rates
reward_sums / busy_sums, never depend on the learner's decisions, so they
are computed a block of stages at a time, with one cumulative sum, and each
decision reads the row of the last released stage.

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
        self._deadlines = self.deadline_grid.tolist()
        self.n_groups = len(utilities)
        self._alphas = np.array([u.alpha for u in utilities])
        self._weights = np.array([u.weight for u in utilities])
        self._inv_alpha = np.where(self._alphas > 0, 1.0 / np.maximum(self._alphas, 1e-300), 1.0)
        self._linear = self._alphas == 0.0
        self._greedy = bool(self._linear.all())
        self._any_linear = bool(self._linear.any())
        self._wv = self._weights * params.v
        # queues start at 1 so the inverse marginal is finite from the start
        self.queues = np.ones(self.n_groups)
        self.tasks_done = 0
        # first max(delay, K) tasks cycle the groups round-robin at the
        # largest deadline (least censoring, most informative samples)
        self.cold_start_tasks = max(params.delay, self.n_groups)
        # ingested (K, C) feedback blocks not yet folded into the sums
        self._pending: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._ingested = 0
        self._released = 0
        self._folded = 0
        # running sums after stages _folded - C .. _folded of the last folded
        # block (row 0 carries the earlier blocks); _fold adds the per-stage
        # rates _rate_block and their row maxima _cap_block, the caps
        self._busy_sums = np.zeros((1, self.n_groups, len(self._deadlines)))
        self._reward_sums = np.zeros_like(self._busy_sums)
        # _row indexes the last released stage from the end of those blocks;
        # its rates (None until the first release) and caps are kept as views
        self._rates: np.ndarray | None = None
        cap = FALLBACK_RATE_CAP if params.target_rate_cap is None else params.target_rate_cap
        self._caps = np.full(self.n_groups, cap)

    # -- feedback ----------------------------------------------------------

    def ingest_feedback(self, stage: int, completions, base_rewards) -> None:
        """Buffer every group's latent (completion, base reward) for task
        ``stage`` as (K,) vectors, or for tasks stage .. stage + C - 1 as a
        (K, C) block.  A stage is used once ``delay`` further tasks have been
        decided; stages must arrive in order."""
        if stage != self._ingested + 1:
            raise ValueError(f"feedback for stage {stage} out of order (expected {self._ingested + 1})")
        x = np.asarray(completions, dtype=float)
        r = np.asarray(base_rewards, dtype=float)
        if x.ndim == 1 and r.ndim == 1:
            x, r = x[:, None], r[:, None]
        if x.ndim != 2 or x.shape[0] != self.n_groups or x.shape[1] == 0 or r.shape != x.shape:
            raise ValueError(
                f"feedback must be ({self.n_groups},) vectors or equal ({self.n_groups}, C >= 1) blocks")
        self._pending.append((x, r))
        self._ingested += x.shape[1]

    def _fold(self, x: np.ndarray, r: np.ndarray) -> None:
        x = x.T[:, :, None]
        busy = np.minimum(x, self.deadline_grid)
        reward = np.where(x <= self.deadline_grid, r.T[:, :, None], 0.0)
        # the carry goes in as the first row: cumsum(block) + carry would
        # round differently from adding the stages one at a time
        self._busy_sums = np.cumsum(np.concatenate((self._busy_sums[-1:], busy)), axis=0)
        self._reward_sums = np.cumsum(np.concatenate((self._reward_sums[-1:], reward)), axis=0)
        self._rate_block = self._reward_sums[1:] / self._busy_sums[1:]
        self._cap_block = self._rate_block.max(axis=2)
        self._folded += x.shape[0]

    def _release_due(self) -> None:
        # usable when deciding task m: stages <= m - delay
        released = min(self.tasks_done + 1 - self.params.delay, self._ingested)
        if released <= self._released:
            return
        while self._folded < released:
            self._fold(*self._pending.popleft())
        self._released = released
        self._row = row = released - self._folded - 1
        self._rates = self._rate_block[row]
        if self.params.target_rate_cap is None:
            self._caps = self._cap_block[row]

    @property
    def released_samples(self) -> int:
        return self._released

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical means over the released samples on the (group, deadline)
        grid: (mean of min(completion, t), mean censored reward at t)."""
        if self._released == 0:
            raise ValueError("no samples released yet")
        return self._busy_sums[self._row] / self._released, self._reward_sums[self._row] / self._released

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
            return (task - 1) % self.n_groups, self._deadlines[-1]
        multipliers = self._weights if self._greedy else self.queues
        scores = self._rates * multipliers[:, None]
        k, l = divmod(int(scores.argmax()), len(self._deadlines))
        return k, self._deadlines[l]

    def target_rates(self) -> np.ndarray:
        """Per-group target reward rates (U')^{-1}(Q/v), capped.

        The cap (empirical best rate, or the configured fixed value) keeps
        the target finite when a queue reaches 0; targets above a group's
        achievable rate are infeasible anyway.  Before the first release the
        empirical cap is ``FALLBACK_RATE_CAP``.  Linear utilities (alpha = 0)
        have no unique inverse marginal: the maximizing subgradient choice is
        the cap while Q/v < w and zero after.  In the all-linear greedy mode
        there is no fairness debt to track, so all targets are zero.
        """
        with np.errstate(divide="ignore", over="ignore"):
            return self._targets()

    def _targets(self) -> np.ndarray:
        if self._greedy:
            return np.zeros(self.n_groups)
        raw = (self._wv / self.queues) ** self._inv_alpha
        rates = np.minimum(raw, self._caps)
        if self._any_linear:
            rates = np.where(self._linear, self._caps * (self.queues < self._wv), rates)
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
        self.step(chosen, elapsed, reward, self.target_rates() if targets is None else targets)

    def step(self, chosen: int, elapsed: float, reward: float, targets=None) -> np.ndarray:
        """The engine's fused step: ``update_queues`` with the pre-update queues' targets,
        returned fresh.  It runs under the caller's errstate, ignoring divide and overflow."""
        if elapsed < 0:
            raise ValueError(f"elapsed time must be >= 0, got {elapsed}")
        if reward < 0:
            raise ValueError(f"reward must be >= 0, got {reward}")
        if targets is None:
            targets = self._targets()
        self.queues = self.queues + targets * elapsed
        self.queues[chosen] -= reward
        np.maximum(self.queues, 0.0, out=self.queues)
        self.tasks_done += 1
        return targets
