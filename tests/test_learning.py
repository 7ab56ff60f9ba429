import numpy as np
import pytest

from fairtime import DeadlineSet, LearnerParams, OnlineLearner, UtilitySpec
from fairtime.learning import FALLBACK_RATE_CAP
from helpers import MU1_AT_5


GRID = DeadlineSet((1.0, 2.0, 4.0))


def make_learner(alphas=(1.0, 1.0), weights=None, v=20.0, delay=1, cap=None, grid=GRID):
    weights = weights or [1.0] * len(alphas)
    utilities = [UtilitySpec(a, w) for a, w in zip(alphas, weights)]
    return OnlineLearner(utilities, grid, LearnerParams(v=v, delay=delay, target_rate_cap=cap))


def feed(learner, stage, xs, rs):
    learner.ingest_feedback(stage, np.asarray(xs, float), np.asarray(rs, float))


def test_params_validation():
    with pytest.raises(ValueError):
        LearnerParams(v=0.0)
    with pytest.raises(ValueError):
        LearnerParams(v=1.0, delay=0)
    with pytest.raises(ValueError):
        LearnerParams(v=1.0, target_rate_cap=0.0)


# ---------------------------------------------------------------------------
# queue updates
# ---------------------------------------------------------------------------

def test_queue_update_arithmetic():
    lr = make_learner()
    lr.queues[:] = [1.0, 1.0]
    # group 0 chosen; group 1's queue only accrues target inflow
    lr.update_queues(0, elapsed=2.0, reward=3.0, targets=np.array([0.5, 0.5]))
    assert lr.queues[1] == pytest.approx(2.0)           # 1 + 0.5*2
    assert lr.queues[0] == pytest.approx(0.0)           # max(0, 1 + 1 - 3)
    assert lr.tasks_done == 1


def test_queue_zero_fixed_point():
    lr = make_learner()
    lr.queues[:] = [0.0, 0.0]
    lr.update_queues(1, elapsed=5.0, reward=0.0, targets=np.zeros(2))
    assert lr.queues == pytest.approx([0.0, 0.0])


def test_queue_update_rejects_negative():
    lr = make_learner()
    with pytest.raises(ValueError):
        lr.update_queues(0, elapsed=-1.0, reward=0.0)
    with pytest.raises(ValueError):
        lr.update_queues(0, elapsed=1.0, reward=-0.1)


def test_queues_stay_nonnegative_under_random_updates():
    r = np.random.default_rng(31)
    lr = make_learner()
    for _ in range(500):
        lr.update_queues(
            int(r.integers(2)), elapsed=float(r.exponential(2)),
            reward=float(r.exponential(3)), targets=r.uniform(0, 1, 2),
        )
        assert (lr.queues >= 0).all()


# ---------------------------------------------------------------------------
# target rates (auxiliary variables)
# ---------------------------------------------------------------------------

def test_target_rate_log_utility():
    lr = make_learner(alphas=(1.0, 1.0), v=20.0, cap=1e9)
    lr.queues[:] = [2.0, 2.0]
    assert lr.target_rates()[0] == pytest.approx(10.0)  # w v / Q


def test_target_rate_square_root_case():
    lr = make_learner(alphas=(2.0, 2.0), v=20.0, cap=1e9)
    lr.queues[:] = [5.0, 5.0]
    assert lr.target_rates()[0] == pytest.approx(2.0)   # (20/5)**(1/2)


def test_target_rate_cap_binds_at_zero_queue():
    lr = make_learner(alphas=(2.0, 2.0), cap=0.6)
    lr.queues[:] = [0.0, 4.0]
    assert lr.target_rates()[0] == pytest.approx(0.6)


def test_target_rate_empirical_cap_and_fallback():
    lr = make_learner(alphas=(1.0, 1.0), v=20.0)
    lr.queues[:] = [1e-9, 1e-9]
    # no samples released yet: fixed fallback cap
    assert lr.target_rates() == pytest.approx([FALLBACK_RATE_CAP] * 2)
    lr.update_queues(0, 1.0, 0.0, np.zeros(2))
    feed(lr, 1, [1.5, 3.0], [2.0, 1.5])
    lr.decide()  # releases the stage-1 vector
    # best empirical rate: group 0 completes by t=2 -> 2.0 / 1.5
    assert lr.target_rates()[0] == pytest.approx(2.0 / 1.5)


def test_mixed_linear_group_uses_subgradient():
    lr = make_learner(alphas=(0.0, 1.0), v=20.0, cap=0.7)
    lr.queues[:] = [10.0, 20.0]
    rates = lr.target_rates()
    assert rates[0] == pytest.approx(0.7)               # Q/v = 0.5 < w = 1
    lr.queues[0] = 30.0
    assert lr.target_rates()[0] == 0.0                  # Q/v = 1.5 >= w


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_cold_start_round_robin_max_deadline():
    lr = make_learner(alphas=(1.0, 1.0, 1.0), delay=1)
    assert lr.cold_start_tasks == 3                     # max(delay, K)
    assert lr.decide() == (0, 4.0)
    lr.update_queues(0, 1.0, 0.0, np.zeros(3))
    feed(lr, 1, [1, 1, 1], [1, 1, 1])
    assert lr.decide() == (1, 4.0)


def test_cold_start_covers_delay():
    lr = make_learner(alphas=(1.0, 1.0), delay=3)
    for n in range(1, 4):
        k, t = lr.decide()
        assert (k, t) == ((n - 1) % 2, 4.0)
        lr.update_queues(k, 1.0, 0.0, np.zeros(2))
        feed(lr, n, [1, 1], [1, 1])


def test_decide_dominant_group():
    lr = make_learner()
    lr.queues[:] = [1.0, 1.0]
    for n in range(1, 3):
        lr.update_queues(lr.decide()[0], 1.0, 0.5, np.zeros(2))
        # group 0 always finishes fast with high reward; group 1 never finishes
        feed(lr, n, [1.0, 9.0], [3.0, 1.0])
    k, t = lr.decide()
    assert k == 0
    assert t == 1.0  # t=1 maximizes reward / busy-time for group 0


def test_decide_flips_to_starved_group():
    lr = make_learner()
    for n in range(1, 3):
        lr.update_queues(lr.decide()[0], 1.0, 0.5, np.zeros(2))
        feed(lr, n, [1.0, 2.0], [3.0, 1.0])
    lr.queues[:] = [1.0, 50.0]  # group 1 has endured heavy unfairness
    assert lr.decide()[0] == 1


def test_decision_scale_free_in_estimates():
    r = np.random.default_rng(32)
    lr = make_learner()
    for n in range(1, 30):
        lr.update_queues(lr.decide()[0], 1.0, 0.5, np.zeros(2))
        feed(lr, n, r.uniform(0.5, 5, 2), r.uniform(0, 2, 2))
    lr.queues[:] = [1.3, 0.9]
    base = lr.decide()
    # multiplying one group's reward and busy-time sums by the same constant
    # leaves every ratio, and hence the arg-max, unchanged
    lr._reward_sums[0] *= 37.0
    lr._busy_sums[0] *= 37.0
    assert lr.decide() == base


def test_single_group_single_deadline_degenerates():
    grid = DeadlineSet((2.0,))
    lr = make_learner(alphas=(1.0,), grid=grid)
    r = np.random.default_rng(33)
    for n in range(1, 50):
        assert lr.decide() == (0, 2.0)
        x = float(r.exponential(1.5))
        lr.update_queues(0, min(x, 2.0), x if x <= 2.0 else 0.0)
        feed(lr, n, [x], [x])
        assert lr.queues[0] >= 0.0


def test_greedy_mode_for_all_linear_utilities():
    lr = make_learner(alphas=(0.0, 0.0), weights=[1.0, 5.0])
    assert lr.target_rates() == pytest.approx([0.0, 0.0])
    for n in range(1, 3):
        lr.update_queues(lr.decide()[0], 1.0, 0.0, np.zeros(2))
        feed(lr, n, [1.0, 1.0], [1.0, 1.0])
    lr.queues[:] = [100.0, 1.0]  # queues must not matter in greedy mode
    assert lr.decide()[0] == 1   # weight 5 wins at equal empirical rates


# ---------------------------------------------------------------------------
# feedback buffering and estimators
# ---------------------------------------------------------------------------

def test_feedback_out_of_order_rejected():
    lr = make_learner()
    feed(lr, 1, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        feed(lr, 3, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        feed(lr, 1, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        lr.ingest_feedback(2, np.ones(3), np.ones(3))


def test_release_schedule_matches_delay():
    for delay in (1, 3):
        lr = make_learner(delay=delay)
        for n in range(1, 8):
            lr.decide()
            assert lr.released_samples == max(0, n - delay)
            lr.update_queues(0, 1.0, 0.0, np.zeros(2))
            feed(lr, n, [1, 1], [1, 1])
            assert lr.released_samples == max(0, n - delay)


def test_estimators_need_released_samples():
    lr = make_learner(delay=3)
    feed(lr, 1, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        lr.estimates()


def test_incremental_sums_match_on_demand_estimates():
    r = np.random.default_rng(34)
    lr = make_learner()
    xs, rs = [], []
    for n in range(1, 60):
        lr.decide()
        lr.update_queues(0, 1.0, 0.0, np.zeros(2))
        xs.append(r.uniform(0.2, 6, 2))
        rs.append(r.uniform(0, 2, 2))
        feed(lr, n, xs[-1], rs[-1])
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
    for n, xi in enumerate(x, start=1):
        lr.decide()
        lr.update_queues(0, 1.0, 0.0, np.zeros(1))
        feed(lr, n, [xi], [xi ** 0.6])
    lr.decide()
    clipped = np.minimum(x[: lr.released_samples], 5.0)
    se = clipped.std(ddof=1) / np.sqrt(len(clipped))
    assert abs(lr.estimates()[0][0, 0] - MU1_AT_5) < 3 * se
