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
It arrives as (K, C) blocks of stages.  The learner's sufficient statistics
are running (group, deadline) sums of censored busy time and censored
reward: all deadlines share the same sample set and no per-deadline
exploration is needed.  These sums never depend on the learner's decisions,
so they are a function of the stages and the carried sums alone:
``fold_stages`` computes them a block at a time, as deadline-major,
stage-last (L, K, C) arrays built straight from the (K, C) block: the carry
is added into stage column 0 and one cumulative sum runs in place along the
contiguous stage axis.  Any leading axes (trials, say) ride along as
independent lanes.  The learner keeps the running sums, not their rates, and
folds each ingested block in pieces whose (L, K, piece) float64 blocks take
at most ``_FOLD_BYTES``, chaining the carry; each decision reads the stage
column of the last released stage.

The numpy work happens once per piece.  The per-task state (queues, target
caps, and the released stage's best rate, first best deadline and largest
lesser rate per group) is Python floats, whose arithmetic has the bits of
float64 elements.  The one exception is the power in the target formula:
numpy's vectorized ``pow`` (SVML on AVX-512 hosts) rounds differently from
libm's ``**`` in a few percent of inputs, so when some alpha is neither 0
nor 1 the raw targets still go through one ``np.power`` call per task.

The fold lists each stage's per-group best rate and largest lesser rate as
``np.maximum`` chains over the L (K, C) deadline slabs, and the first
deadline at the best rate as a descending chain of ``rates[l] == best``
tests, which leaves the smallest such l as argmax would.  A NaN rate makes
the best rate NaN, and ``decide`` then never reads that deadline.  The
learner calls ``fold_stages`` once per piece, when the piece's first stage
is due, and keeps the outputs ``decide`` and ``estimates`` read.

``decide`` scores each group by its multiplier times its best rate.  When
a lesser rate's score rounds to the top score too, or a score is inf or NaN,
it divides the released stage's reward sums by its busy sums (the bits of
the fold's rates) and takes numpy's first arg-max of the full score grid;
rounding is monotone, so a rounding tie resolves to the same first (group,
deadline) either way.

The dual update has one implementation, ``step``: it computes the targets
of the current queues, updates the queues with them and returns the targets
as a list of floats.  It enters no ``np.errstate`` of its own; the engine
holds one per chunk of tasks, and the public wrappers ``update_queues`` and
``target_rates`` (which returns the targets as a float64 array) each enter
one per call.  ``decide``, ``ingest_feedback``, ``target_rates`` and
``update_queues`` are the four methods ``perfbench/traced.py`` wraps by
name, so they keep their names; its wrappers pass any arguments through, so
it does not depend on their signatures.

When every utility is linear (alpha = 0 across the board) the queue
machinery buys nothing: the objective is a plain weighted sum of rates, so
the learner greedily maximizes the empirical weighted rate w_k * rate(k, t)
and the queues are left idle.  Queue-driven dynamics with the capped
subgradient target (see ``target_rates``) would instead park every queue
near v * w and keep granting the slower groups a Theta(1/v) share forever.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import mul, truediv

import numpy as np

from .distributions import DeadlineSet, check_integer, check_number
from .utility import UtilitySpec

# Target-rate cap used before any feedback has been released (the empirical
# cap needs at least one sample).
FALLBACK_RATE_CAP = 1.0

# Most bytes of one (L, K, piece) float64 block of a fold.  A fold allocates
# a few such blocks; well below glibc's 128 KiB mmap and trim thresholds, the
# heap does not shrink and regrow (minor page faults) on every fold.  At 9
# deadlines a piece is at most 455 stages at K = 2 (the online engine's
# 256-stage chunk stays whole) and 113 at K = 8.  cumsum is sequential, so
# folding in pieces with the carry chained through them gives the bits of
# one fold of the whole block.
_FOLD_BYTES = 64 * 1024


@dataclass(frozen=True)
class LearnerParams:
    """Tuning knobs for the online learner, and the online policy that
    ``run_episode`` and ``monte_carlo`` take.

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
        check_number(self.v, "v")
        # the per-task arithmetic stays on ints
        object.__setattr__(self, "delay", check_integer(self.delay, "delay", 1))
        if self.target_rate_cap is not None:
            check_number(self.target_rate_cap, "target_rate_cap")


def fold_stages(x, r, grid, busy_carry, reward_carry):
    """Fold a block of stages into running (deadline, group) sums.

    ``x`` and ``r`` are ``(..., K, C)`` completions and base rewards, ``grid``
    the L deadlines and the carries the ``(..., L, K)`` sums before the block.
    Returns the ``(..., L, K, C)`` running censored busy and reward sums after
    each stage, and per ``(..., K, C)`` stage the best rate reward / busy,
    the first deadline index at it and the largest rate below it (-inf if
    none).  Leading axes are independent lanes: each gets the bits of its own
    call.
    """
    g = grid[:, None, None]
    x = x[..., None, :, :]
    busy = np.minimum(x, g)
    reward = np.where(x <= g, r[..., None, :, :], 0.0)
    # the carry goes into the first stage: cumsum(block) + carry would
    # round differently from adding the stages one at a time
    busy[..., 0] += busy_carry
    reward[..., 0] += reward_carry
    np.cumsum(busy, axis=-1, out=busy)
    np.cumsum(reward, axis=-1, out=reward)
    rates = reward / busy
    # chains over the L (..., K, C) deadline slabs; the first deadline at the
    # best rate is the last == test to hit in a descending chain
    slabs = rates.swapaxes(0, -3)
    best = reduce(np.maximum, slabs)
    arg = np.full(best.shape, len(slabs) - 1)
    for l in range(len(slabs) - 2, -1, -1):
        np.copyto(arg, l, where=slabs[l] == best)
    below = reduce(np.maximum, np.where(slabs < best, slabs, -np.inf))
    return busy, reward, best, arg, below


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
        alphas = [float(u.alpha) for u in utilities]
        self._weights = [float(u.weight) for u in utilities]
        self._wv = [w * params.v for w in self._weights]
        self._linear_groups = [k for k, a in enumerate(alphas) if a == 0.0]
        self._greedy = len(self._linear_groups) == self.n_groups
        self._inv_alpha = np.array([1.0 / max(a, 1e-300) if a > 0 else 1.0 for a in alphas])
        # x ** 1.0 is x: the power is needed only where some 1/alpha is not 1
        self._power = bool((self._inv_alpha != 1.0).any())
        # queues start at 1 so the inverse marginal is finite from the start
        self._queues = [1.0] * self.n_groups
        self.tasks_done = 0
        # first max(delay, K) tasks cycle the groups round-robin at the
        # largest deadline (least censoring, most informative samples)
        self.cold_start_tasks = max(params.delay, self.n_groups)
        # ingested (K, <= _piece) pieces of feedback not yet folded
        self._piece = max(1, _FOLD_BYTES // (8 * len(self._deadlines) * self.n_groups))
        self._pending: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._ingested = 0
        self._released = 0
        self._folded = 0
        # (deadline, group, stage) running sums after each stage of the last
        # folded piece (one stage of zeros before the first); decide keeps,
        # as lists, their rates' maxima over the deadlines per stage
        # _best_rows (decide reads every group's), and per group the first
        # deadlines at them _arg_cols and the next lower rates _below_cols
        # (decide reads one group's).  _row indexes the last released stage
        # from the end of the piece
        self._busy_sums = np.zeros((len(self._deadlines), self.n_groups, 1))
        self._reward_sums = np.zeros_like(self._busy_sums)
        cap = FALLBACK_RATE_CAP if params.target_rate_cap is None else params.target_rate_cap
        self._caps = [float(cap)] * self.n_groups

    @property
    def queues(self) -> np.ndarray:
        """The virtual queues, as a fresh float64 array; assign to replace them."""
        return np.array(self._queues)

    @queues.setter
    def queues(self, values) -> None:
        q = np.asarray(values, dtype=float)
        if q.shape != (self.n_groups,) or not (q >= 0.0).all():
            raise ValueError(f"queues must be {self.n_groups} values >= 0, got {values!r}")
        self._queues = q.tolist()

    # -- feedback ----------------------------------------------------------

    def ingest_feedback(self, completions, base_rewards) -> None:
        """Buffer every group's latent (completion, base reward) for the next
        C stages, a (K, C) block, as pieces whose (L, K, piece) float64 blocks
        take at most ``_FOLD_BYTES``.  Blocks arrive in stage order, the first
        holding stage 1; a stage is used once ``delay`` further tasks have been
        decided."""
        x = np.asarray(completions, dtype=float)
        r = np.asarray(base_rewards, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n_groups or x.shape[1] == 0 or r.shape != x.shape:
            raise ValueError(f"feedback must be equal ({self.n_groups}, C >= 1) blocks")
        for start in range(0, x.shape[1], self._piece):
            self._pending.append((x[:, start:start + self._piece], r[:, start:start + self._piece]))
        self._ingested += x.shape[1]

    @property
    def released_samples(self) -> int:
        return self._released

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical means over the released samples on the (group, deadline)
        grid: (mean of min(completion, t), mean censored reward at t)."""
        if self._released == 0:
            raise ValueError("no samples released yet")
        row = self._row
        return (self._busy_sums[:, :, row].T / self._released,
                self._reward_sums[:, :, row].T / self._released)

    # -- decisions ---------------------------------------------------------

    def decide(self) -> tuple[int, float]:
        """Pick (group index, deadline) for the next task.

        Cold start: round-robin over groups at the largest deadline.  After
        that, the queue-weighted empirical rate arg-max (utility weights
        replace the queues when all utilities are linear); ties break to the
        smallest group index, then the smallest deadline.  Past the cold
        start, a stage that is due but not yet ingested raises ValueError.
        """
        task = self.tasks_done + 1
        # usable when deciding task m: stages <= m - delay
        due = task - self.params.delay
        released = min(due, self._ingested)
        if released > self._released:
            while self._folded < released:
                x, r = self._pending.popleft()
                self._busy_sums, self._reward_sums, best, arg, below = fold_stages(
                    x, r, self.deadline_grid, self._busy_sums[:, :, -1], self._reward_sums[:, :, -1])
                self._best_rows = best.T.tolist()
                self._arg_cols = arg.tolist()
                self._below_cols = below.tolist()
                self._folded += x.shape[1]
            self._released = released
            self._row = released - self._folded - 1
            if self.params.target_rate_cap is None:
                self._caps = self._best_rows[self._row]
        if task <= self.cold_start_tasks:
            return (task - 1) % self.n_groups, self._deadlines[-1]
        if released < due:
            raise ValueError(f"task {task} is past the cold start and needs the feedback of stage "
                             f"{released + 1}, which has not been ingested")
        multipliers = self._weights if self._greedy else self._queues
        # rounding is monotone and the multipliers are >= 0, so a group's best
        # score is its multiplier times its best rate: the first group with
        # the top product, at its first deadline scoring that product, is the
        # first arg-max of the flattened (group, deadline) score grid
        products = list(map(mul, multipliers, self._best_rows[self._row]))
        total = sum(products)
        if total - total == 0.0:
            top = max(products)
            k = products.index(top)
            if multipliers[k] * self._below_cols[k][self._row] != top:
                return k, self._deadlines[self._arg_cols[k][self._row]]
        # an inf or NaN product, or a lesser rate that rounds to the top
        # product too: numpy's first arg-max of the score grid, NaN first
        rates = self._reward_sums[:, :, self._row] / self._busy_sums[:, :, self._row]
        scores = rates.T * np.array(multipliers)[:, None]
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
            return np.array(self._targets())

    def _targets(self) -> list[float]:
        """The target rates of the current queues, as floats."""
        if self._greedy:
            return [0.0] * self.n_groups
        try:
            raw = list(map(truediv, self._wv, self._queues))
        except ZeroDivisionError:  # numpy's w v / 0 = inf
            raw = [wv / q if q else math.inf for wv, q in zip(self._wv, self._queues)]
        if self._power:
            raw = np.power(np.array(raw), self._inv_alpha).tolist()
        targets = []
        for r, cap in zip(raw, self._caps):
            targets.append(r if r <= cap or r != r else cap)  # np.minimum(r, cap)
        for k in self._linear_groups:
            targets[k] = self._caps[k] * (self._queues[k] < self._wv[k])
        return targets

    def update_queues(self, chosen: int, elapsed: float, reward: float) -> None:
        """Dual update after the chosen task ran for ``elapsed`` time and
        paid ``reward`` (zero if interrupted); advances the task counter."""
        with np.errstate(divide="ignore", over="ignore"):
            self.step(chosen, elapsed, reward)

    def step(self, chosen: int, elapsed: float, reward: float) -> list[float]:
        """The dual step: ``update_queues`` without its errstate, returning the
        targets of the pre-update queues.  The engine calls it under one errstate
        per chunk that ignores divide and overflow."""
        if elapsed < 0:
            raise ValueError(f"elapsed time must be >= 0, got {elapsed}")
        if reward < 0:
            raise ValueError(f"reward must be >= 0, got {reward}")
        targets = self._targets()
        queues = []
        for q, target in zip(self._queues, targets):
            queues.append(q + target * elapsed)
        # targets >= 0 keep every other queue >= 0 (or NaN), as np.maximum(q, 0) would
        q = queues[chosen] - reward
        queues[chosen] = 0.0 if q < 0.0 else q
        self._queues = queues
        self.tasks_done += 1
        return targets
