import warnings

import numpy as np
import pytest

from fairtime import DeadlineSet, LearnerParams, OnlineLearner, UtilitySpec
from fairtime.learning import FALLBACK_RATE_CAP, fold_stages
from fairtime.sim import _draw_stages
from helpers import DEADLINE_GRID, FAMILY_GROUPS, MU1_AT_5, numpy_streams


GRID = DeadlineSet((1.0, 2.0, 4.0))


def make_learner(alphas=(1.0, 1.0), weights=None, v=20.0, delay=1, cap=None, grid=GRID):
    weights = weights or [1.0] * len(alphas)
    utilities = [UtilitySpec(a, w) for a, w in zip(alphas, weights)]
    return OnlineLearner(utilities, grid, LearnerParams(v=v, delay=delay, target_rate_cap=cap))


def feed(learner, xs, rs):
    """Ingest (K,) vectors as the next stage, or (K, C) blocks as the next C stages."""
    x, r = np.asarray(xs, float), np.asarray(rs, float)
    learner.ingest_feedback(x.reshape(len(x), -1), r.reshape(len(r), -1))


def test_params_validation():
    with pytest.raises(ValueError):
        LearnerParams(v=0.0)
    with pytest.raises(ValueError):
        LearnerParams(v=1.0, delay=0)
    with pytest.raises(ValueError, match="delay must be an integer"):
        LearnerParams(v=5.0, delay=True)
    # a numpy integer is an integer; bools, numpy's too, and floats are not
    for bad in (np.True_, 3.0, np.int64(0), np.float64(3.0)):
        with pytest.raises(ValueError, match="delay must be an integer >= 1"):
            LearnerParams(v=5.0, delay=bad)
    params = LearnerParams(v=20, delay=np.int64(3))
    assert type(params.delay) is int and params == LearnerParams(v=20, delay=3)
    # bool is an int subclass: True must not run as 1.0
    with pytest.raises(ValueError, match="v must be finite and > 0, got True"):
        LearnerParams(v=True)
    with pytest.raises(ValueError, match="target_rate_cap must be finite and > 0, got True"):
        LearnerParams(v=5.0, target_rate_cap=True)
    # numpy's bool is no int subclass, but is a number all the same
    with pytest.raises(ValueError, match="v must be finite and > 0, got True"):
        LearnerParams(v=np.True_)
    with pytest.raises(ValueError, match="target_rate_cap must be finite and > 0, got True"):
        LearnerParams(v=20, target_rate_cap=np.True_)
    with pytest.raises(ValueError):
        LearnerParams(v=1.0, target_rate_cap=0.0)


def test_learner_needs_a_group():
    with pytest.raises(ValueError, match="at least one group"):
        OnlineLearner([], GRID, LearnerParams(v=1.0))


# ---------------------------------------------------------------------------
# queue updates
# ---------------------------------------------------------------------------

def test_queue_update_arithmetic():
    lr = make_learner(cap=0.5)
    lr.queues = [1.0, 1.0]
    assert lr.target_rates().tolist() == [0.5, 0.5]     # w v / Q = 20 is capped
    # group 0 chosen; group 1's queue only accrues target inflow
    lr.update_queues(0, elapsed=2.0, reward=3.0)
    assert lr.queues[1] == pytest.approx(2.0)           # 1 + 0.5*2
    assert lr.queues[0] == pytest.approx(0.0)           # max(0, 1 + 1 - 3)
    assert lr.tasks_done == 1


def test_queue_zero_fixed_point():
    lr = make_learner(alphas=(0.0, 0.0))                # all linear: every target is 0
    lr.queues = [0.0, 0.0]
    lr.update_queues(1, elapsed=5.0, reward=0.0)
    assert lr.queues == pytest.approx([0.0, 0.0])


def test_queue_update_rejects_negative():
    lr = make_learner()
    with pytest.raises(ValueError):
        lr.update_queues(0, elapsed=-1.0, reward=0.0)
    with pytest.raises(ValueError):
        lr.update_queues(0, elapsed=1.0, reward=-0.1)


def test_queues_property_returns_a_copy_and_validates_assignment():
    lr = make_learner()
    q = lr.queues
    q[0] = 7.0                                          # a fresh array: the learner keeps its own
    assert lr.queues.tolist() == [1.0, 1.0]
    lr.queues = np.array([0.5, 2.0])
    assert lr.queues.dtype == np.float64 and lr.queues.tolist() == [0.5, 2.0]
    for bad in ([1.0], [1.0, -1e-300], [1.0, float("nan")]):
        with pytest.raises(ValueError, match="queues must be"):
            lr.queues = bad
    with pytest.raises(ValueError, match="elapsed time must be"):
        lr.update_queues(0, -1.0, 0.0)
    assert lr.queues.tolist() == [0.5, 2.0] and lr.tasks_done == 0


def test_queues_stay_nonnegative_under_random_updates():
    r = np.random.default_rng(31)
    lr = make_learner()
    for _ in range(500):
        lr.update_queues(
            int(r.integers(2)), elapsed=float(r.exponential(2)),
            reward=float(r.exponential(3)),
        )
        assert (lr.queues >= 0).all()


# ---------------------------------------------------------------------------
# target rates (auxiliary variables)
# ---------------------------------------------------------------------------

def test_target_rate_log_utility():
    lr = make_learner(alphas=(1.0, 1.0), v=20.0, cap=1e9)
    lr.queues = [2.0, 2.0]
    assert lr.target_rates()[0] == pytest.approx(10.0)  # w v / Q


def test_target_rate_square_root_case():
    lr = make_learner(alphas=(2.0, 2.0), v=20.0, cap=1e9)
    lr.queues = [5.0, 5.0]
    assert lr.target_rates()[0] == pytest.approx(2.0)   # (20/5)**(1/2)


def test_target_rate_cap_binds_at_zero_queue():
    lr = make_learner(alphas=(2.0, 2.0), cap=0.6)
    lr.queues = [0.0, 4.0]
    assert lr.target_rates()[0] == pytest.approx(0.6)


def test_target_rate_empirical_cap_and_fallback():
    lr = make_learner(alphas=(1.0, 1.0), v=20.0)
    lr.queues = [1e-9, 1e-9]
    # no samples released yet: fixed fallback cap
    assert lr.target_rates() == pytest.approx([FALLBACK_RATE_CAP] * 2)
    lr.update_queues(0, 0.0, 0.0)
    feed(lr, [1.5, 3.0], [2.0, 1.5])
    lr.decide()  # releases the stage-1 vector
    # best empirical rate: group 0 completes by t=2 -> 2.0 / 1.5
    assert lr.target_rates()[0] == pytest.approx(2.0 / 1.5)


def test_mixed_linear_group_uses_subgradient():
    lr = make_learner(alphas=(0.0, 1.0), v=20.0, cap=0.7)
    lr.queues = [10.0, 20.0]
    rates = lr.target_rates()
    assert rates[0] == pytest.approx(0.7)               # Q/v = 0.5 < w = 1
    lr.queues = [30.0, 20.0]
    assert lr.target_rates()[0] == 0.0                  # Q/v = 1.5 >= w


def test_public_target_and_queue_calls_are_warning_safe():
    # a zero queue divides by zero and a subnormal one overflows w v / Q;
    # the public calls suppress both (the filterwarnings setting, and this
    # filter, turn any leaked RuntimeWarning into an error)
    for alphas in ((1.0, 1.0), (0.5, 2.0), (0.0, 1.0)):
        lr = make_learner(alphas=alphas, cap=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lr.queues = [0.0, 5e-324]
            assert lr.target_rates()[1] == pytest.approx(0.9)
            lr.update_queues(0, 1.0, 0.5)
        assert lr.queues[1] == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_cold_start_round_robin_max_deadline():
    lr = make_learner(alphas=(1.0, 1.0, 1.0), delay=1)
    assert lr.cold_start_tasks == 3                     # max(delay, K)
    assert lr.decide() == (0, 4.0)
    lr.update_queues(0, 0.0, 0.0)
    feed(lr, [1, 1, 1], [1, 1, 1])
    assert lr.decide() == (1, 4.0)


def test_cold_start_covers_delay():
    lr = make_learner(alphas=(1.0, 1.0), delay=3)
    for n in range(1, 4):
        k, t = lr.decide()
        assert (k, t) == ((n - 1) % 2, 4.0)
        lr.update_queues(k, 0.0, 0.0)
        feed(lr, [1, 1], [1, 1])


def test_decide_past_cold_start_without_feedback_names_the_stage():
    lr = make_learner(delay=1)
    for n in range(1, 3):                               # cold start: max(delay, K) = 2 tasks
        assert lr.decide() == ((n - 1) % 2, 4.0)
        lr.update_queues(0, 0.0, 0.0)
    with pytest.raises(ValueError, match="needs the feedback of stage 1"):
        lr.decide()
    feed(lr, [[1, 1], [1, 1]], [[1, 1], [1, 1]])            # task 3 uses stages 1-2
    assert lr.decide()[1] == 1.0


def test_decide_with_lagging_feedback_names_the_missing_stage():
    lr = make_learner(delay=1)
    feed(lr, [1, 1], [1, 1])
    for n in range(10):
        lr.step(n % 2, 1.0, 0.5)
    # task 11 needs stages 1-10, and only stage 1 arrived
    with pytest.raises(ValueError, match="needs the feedback of stage 2,"):
        lr.decide()
    feed(lr, np.ones((2, 9)), np.ones((2, 9)))
    assert lr.decide()[0] in (0, 1)
    assert lr.released_samples == 10


def test_decide_dominant_group():
    lr = make_learner()
    lr.queues = [1.0, 1.0]
    for _ in range(2):
        lr.update_queues(lr.decide()[0], 0.0, 0.5)
        # group 0 always finishes fast with high reward; group 1 never finishes
        feed(lr, [1.0, 9.0], [3.0, 1.0])
    k, t = lr.decide()
    assert k == 0
    assert t == 1.0  # t=1 maximizes reward / busy-time for group 0


def test_decide_flips_to_starved_group():
    lr = make_learner()
    for _ in range(2):
        lr.update_queues(lr.decide()[0], 0.0, 0.5)
        feed(lr, [1.0, 2.0], [3.0, 1.0])
    lr.queues = [1.0, 50.0]  # group 1 has endured heavy unfairness
    assert lr.decide()[0] == 1


def test_decision_scale_free_in_estimates():
    # group 0's completions stay below the smallest deadline, so scaling its
    # completions and rewards by 1/8 (exact in floating point) multiplies its
    # reward and busy-time sums by the same constant at every deadline; every
    # ratio, and hence every arg-max, is unchanged
    r = np.random.default_rng(32)
    plain, scaled = make_learner(), make_learner()
    for _ in range(29):
        x = np.array([r.uniform(0.1, 1.0), r.uniform(0.5, 5)])
        rew = r.uniform(0, 2, 2)
        base = plain.decide()
        assert scaled.decide() == base
        for lr, factor in ((plain, 1.0), (scaled, 0.125)):
            lr.update_queues(base[0], 0.0, 0.5)
            feed(lr, x * [factor, 1.0], rew * [factor, 1.0])
    for lr in (plain, scaled):
        lr.queues = [1.3, 0.9]
    assert scaled.decide() == plain.decide()
    busy, reward = plain.estimates()
    busy8, reward8 = scaled.estimates()
    assert (busy8[0] == busy[0] / 8).all() and (reward8[0] == reward[0] / 8).all()


def test_single_group_single_deadline_degenerates():
    grid = DeadlineSet((2.0,))
    lr = make_learner(alphas=(1.0,), grid=grid)
    r = np.random.default_rng(33)
    for _ in range(49):
        assert lr.decide() == (0, 2.0)
        x = float(r.exponential(1.5))
        lr.update_queues(0, min(x, 2.0), x if x <= 2.0 else 0.0)
        feed(lr, [x], [x])
        assert lr.queues[0] >= 0.0


def test_greedy_mode_for_all_linear_utilities():
    lr = make_learner(alphas=(0.0, 0.0), weights=[1.0, 5.0])
    assert lr.target_rates() == pytest.approx([0.0, 0.0])
    for _ in range(2):
        lr.update_queues(lr.decide()[0], 0.0, 0.0)
        feed(lr, [1.0, 1.0], [1.0, 1.0])
    lr.queues = [100.0, 1.0]  # queues must not matter in greedy mode
    assert lr.decide()[0] == 1   # weight 5 wins at equal empirical rates


# ---------------------------------------------------------------------------
# feedback buffering and estimators
# ---------------------------------------------------------------------------

def test_misshapen_feedback_blocks_rejected():
    lr = make_learner()
    lr.ingest_feedback(np.ones((2, 4)), np.ones((2, 4)))   # stages 1..4
    for x, r in [
        (np.ones((3, 4)), np.ones((3, 4))),    # wrong group count
        (np.ones((2, 0)), np.ones((2, 0))),    # empty block
        (np.ones((2, 4)), np.ones((2, 3))),    # mismatched columns
        (np.ones((2, 4)), np.ones(2)),         # block with a vector
        (np.ones(2), np.ones(2)),              # (K,) vectors: one stage is a (K, 1) block
        (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
    ]:
        with pytest.raises(ValueError, match="feedback must be"):
            lr.ingest_feedback(x, r)
    lr.ingest_feedback(np.ones((2, 3)), np.ones((2, 3)))   # stages 5..7 still accepted


def test_block_feedback_matches_stage_by_stage():
    # any split of the stage stream into blocks gives bit-identical
    # decisions, targets, queues and estimates
    r = np.random.default_rng(36)
    x = r.uniform(0.2, 6, (2, 40))
    rew = r.uniform(0, 2, (2, 40))
    for delay in (1, 3, 7):
        runs = []
        for cuts in ([], [1, 2, 10, 11], [16], [5, 25, 39]):
            lr = make_learner(alphas=(0.5, 2.0), delay=delay)
            for lo, hi in zip([0] + cuts, cuts + [40]):
                lr.ingest_feedback(x[:, lo:hi], rew[:, lo:hi])
            steps = []
            for n in range(40):
                k, t = lr.decide()
                targets = lr.target_rates()
                lr.update_queues(k, min(x[k, n], t), rew[k, n] * (x[k, n] <= t))
                steps.append((k, t, targets.tobytes(), lr.queues.tobytes()))
            busy, reward = lr.estimates()
            runs.append((steps, busy.tobytes(), reward.tobytes(), lr.released_samples))
        assert all(run == runs[0] for run in runs)
        assert runs[0][3] == 40 - delay



def test_infinite_completion_censored_like_a_huge_one():
    # an overflowing Pareto draw (inf) with a power-of-time reward (inf ** b
    # = inf) is interrupted at every deadline, exactly like a huge finite
    # draw; masking the reward by multiplication would give inf * 0 = NaN
    b = 0.005
    runs = []
    for big in (np.inf, 1e300):
        x = np.array([[0.5, big, 1.5], [1.0, big, 0.7]])
        lr = make_learner(delay=1)
        lr.ingest_feedback(x, x ** b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(4):
                lr.decide()
                lr.update_queues(0, 0.0, 0.0)
            busy, reward = lr.estimates()
        assert lr.released_samples == 3
        assert np.isfinite(busy).all() and np.isfinite(reward).all()
        runs.append((busy.tobytes(), reward.tobytes()))
    assert runs[0] == runs[1]

def test_release_schedule_matches_delay():
    for delay in (1, 3):
        lr = make_learner(delay=delay)
        for n in range(1, 8):
            lr.decide()
            assert lr.released_samples == max(0, n - delay)
            lr.update_queues(0, 0.0, 0.0)
            feed(lr, [1, 1], [1, 1])
            assert lr.released_samples == max(0, n - delay)


def test_estimators_need_released_samples():
    lr = make_learner(delay=3)
    feed(lr, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        lr.estimates()


def test_incremental_sums_match_on_demand_estimates():
    r = np.random.default_rng(34)
    lr = make_learner()
    xs, rs = [], []
    for _ in range(59):
        lr.decide()
        lr.update_queues(0, 0.0, 0.0)
        xs.append(r.uniform(0.2, 6, 2))
        rs.append(r.uniform(0, 2, 2))
        feed(lr, xs[-1], rs[-1])
    m = lr.released_samples
    assert m == len(xs) - 1  # delay 1: the last stage is still pending
    busy, reward = lr.estimates()
    x, rew = np.array(xs[:m]), np.array(rs[:m])
    for k in range(2):
        for j, t in enumerate(GRID.deadlines):
            assert busy[k, j] == pytest.approx(np.mean(np.minimum(x[:, k], t)), rel=1e-12)
            assert reward[k, j] == pytest.approx(np.mean(rew[:, k] * (x[:, k] <= t)), rel=1e-12)


def test_estimator_converges_to_closed_form_moment():
    # 10^4 heavy-tailed samples: the busy-time estimate at t=5 lands within
    # 3 standard errors of the exact truncated mean
    r = np.random.default_rng(35)
    grid = DeadlineSet((5.0,))
    lr = make_learner(alphas=(1.0,), grid=grid)
    x = 1.0 * (1.0 - r.random(10_000)) ** (-1.0 / 1.2)
    for xi in x:
        lr.decide()
        lr.update_queues(0, 0.0, 0.0)
        feed(lr, [xi], [xi ** 0.6])
    lr.decide()
    clipped = np.minimum(x[: lr.released_samples], 5.0)
    se = clipped.std(ddof=1) / np.sqrt(len(clipped))
    assert abs(lr.estimates()[0][0, 0] - MU1_AT_5) < 3 * se


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_fold_stages_over_a_trial_axis_matches_single_calls(k):
    # T trials folded as one (T, K, C) block over three chained chunks give
    # each trial's own call byte for byte, and so does each chunk folded as
    # two chained 128-stage pieces; trial 3's second chunk holds an inf
    # completion and an inf base reward inside the menu, so rates reach inf
    groups = [g for g, _ in FAMILY_GROUPS[:k]]
    grid = np.array(DEADLINE_GRID)
    trials, chunks, shape = 7, 3, (len(grid), k)
    streams = [numpy_streams(t, k) for t in range(trials)]
    carries = np.zeros((2, trials) + shape)
    single = [(np.zeros(shape), np.zeros(shape)) for _ in range(trials)]
    for c in range(chunks):
        x, r = map(np.stack, zip(*(_draw_stages(groups, rngs, 256) for rngs in streams)))
        if c == 1:
            x[3, 0, 10] = np.inf
            x[3, k - 1, 20], r[3, k - 1, 20] = 1.0, np.inf
        stacked = fold_stages(x, r, grid, *carries)
        first = fold_stages(x[..., :128], r[..., :128], grid, *carries)
        second = fold_stages(x[..., 128:], r[..., 128:], grid, first[0][..., -1], first[1][..., -1])
        for whole, a, b in zip(stacked, first, second):
            assert np.concatenate((a, b), axis=-1).tobytes() == whole.tobytes()
        for t in range(trials):
            alone = fold_stages(x[t], r[t], grid, *single[t])
            for a, b in zip(stacked, alone):
                assert a[t].shape == b.shape and a.dtype == b.dtype
                assert a[t].tobytes() == b.tobytes()
            single[t] = alone[0][..., -1], alone[1][..., -1]
        carries = stacked[0][..., -1], stacked[1][..., -1]
    assert np.isinf(stacked[2][3, k - 1]).all()
