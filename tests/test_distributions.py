import math

import numpy as np
import pytest
from scipy import integrate

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    GroupModel,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    UtilitySpec,
    expected_reward,
    mean_completion,
    solve,
    truncated_mean_time,
)
from fairtime.distributions import base_rewards, sample_completions
from helpers import MU1_AT_5, TH1_AT_5, TH2_AT_4


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        lambda: Pareto(0.0, 1.2),
        lambda: Pareto(1.0, -1.0),
        lambda: Exponential(0.0),
        lambda: Deterministic(-2.0),
        lambda: Empirical(()),
        lambda: Empirical((1.0, 0.0)),
        lambda: PowerOfTime(-0.1),
        lambda: Constant(-1.0),
        lambda: ScaledUniform(2.0, 1.0),
        lambda: ScaledUniform(-1.0, 1.0),
        lambda: DeadlineSet(()),
        lambda: DeadlineSet((2.0, 1.0)),
        lambda: DeadlineSet((1.0, 1.0)),
        lambda: DeadlineSet((0.0, 1.0)),
        lambda: DeadlineSet((1.0, math.inf)),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_power_reward_needs_lighter_tail_than_pareto():
    with pytest.raises(ValueError):
        GroupModel(Pareto(1.0, 1.2), PowerOfTime(1.2))
    with pytest.raises(ValueError):
        GroupModel(Pareto(1.0, 1.2), PowerOfTime(1.5))
    GroupModel(Pareto(1.0, 1.2), PowerOfTime(1.1))  # fine


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_tasks(group, r, n):
    """n latent (completion, base reward) pairs, drawn as the simulator does."""
    x = sample_completions(group.completion, r, n)
    return x, base_rewards(group.reward, x, r)


def test_sample_task_degenerate():
    x, reward = sample_tasks(GroupModel(Deterministic(1.0), Constant(1.0)), rng(), 5)
    assert x.tolist() == [1.0] * 5
    assert reward.tolist() == [1.0] * 5


def test_sample_task_pareto_support_and_coupling():
    x, reward = sample_tasks(GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6)), rng(1), 500)
    assert (x >= 1.0).all()
    assert (reward == x ** 0.6).all()  # exact coupling, same draw


def test_sample_task_scaled_uniform_bounds():
    x, reward = sample_tasks(GroupModel(Exponential(2.0), ScaledUniform(0.5, 1.5)), rng(2), 200)
    assert (x > 0).all()
    assert ((0.5 <= reward) & (reward <= 1.5)).all()


def test_pareto_sample_mean_matches_analytic():
    # E[X] = shape / (shape - 1) = 6 for Pareto(1, 1.2); Monte Carlo oracle
    x = sample_completions(Pareto(1.0, 1.2), rng(7), 10 ** 6)
    se = x.std() / math.sqrt(len(x))
    assert abs(x.mean() - 6.0) < 3 * se


# ---------------------------------------------------------------------------
# truncated mean time
# ---------------------------------------------------------------------------

def test_truncated_mean_below_support_is_t():
    assert truncated_mean_time(Pareto(1.0, 1.2), 1.0) == 1.0
    assert truncated_mean_time(Pareto(2.0, 1.5), 0.5) == 0.5


def test_truncated_mean_approaches_full_mean():
    assert truncated_mean_time(Pareto(1.0, 1.2), 1e30) == pytest.approx(6.0, abs=1e-4)
    assert truncated_mean_time(Exponential(0.5), 1e6) == pytest.approx(2.0, rel=1e-12)


def test_truncated_mean_frozen_value():
    assert truncated_mean_time(Pareto(1.0, 1.2), 5.0) == pytest.approx(MU1_AT_5, rel=1e-12)


def test_truncated_mean_closed_forms():
    assert truncated_mean_time(Deterministic(2.0), 3.0) == 2.0
    assert truncated_mean_time(Deterministic(2.0), 1.5) == 1.5
    assert truncated_mean_time(Empirical((1.0, 3.0, 5.0)), 4.0) == pytest.approx((1 + 3 + 4) / 3)
    # exponential: (1 - exp(-rate t)) / rate
    assert truncated_mean_time(Exponential(2.0), 1.0) == pytest.approx((1 - math.exp(-2)) / 2)


def test_truncated_mean_pareto_log_shape_one():
    # survival integral gives s + s log(t/s) when shape == 1
    value, _ = integrate.quad(lambda x: min(1.0, (2.0 / x) ** 1.0 if x > 2 else 1.0), 0, 9)
    assert truncated_mean_time(Pareto(2.0, 1.0), 9.0) == pytest.approx(value, rel=1e-9)


def test_truncated_mean_rejects_bad_deadline():
    with pytest.raises(ValueError):
        truncated_mean_time(Pareto(1.0, 1.2), 0.0)
    with pytest.raises(ValueError):
        truncated_mean_time(Exponential(1.0), -1.0)


def test_truncated_mean_vs_quadrature_sweep():
    # independent oracle: E[min(X,t)] = integral of the survival function
    r = rng(3)
    for _ in range(25):
        s, g = r.uniform(0.3, 3.0), r.uniform(0.7, 3.0)
        t = s * r.uniform(0.5, 20.0)
        oracle, _ = integrate.quad(
            lambda x: 1.0 if x <= s else (s / x) ** g, 0.0, t, points=[s], epsabs=1e-12
        )
        assert truncated_mean_time(Pareto(s, g), t) == pytest.approx(oracle, rel=1e-8)


def test_truncated_mean_monotone_and_bounded():
    r = rng(4)
    specs = [Pareto(1.0, 1.3), Exponential(0.7), Deterministic(2.5), Empirical((0.5, 2.0, 9.0))]
    for spec in specs:
        ts = np.sort(r.uniform(0.1, 25.0, 30))
        values = [truncated_mean_time(spec, t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        ex = mean_completion(spec)
        for t, v in zip(ts, values):
            assert 0 < v <= min(t, ex) + 1e-12


# ---------------------------------------------------------------------------
# expected reward
# ---------------------------------------------------------------------------

def test_expected_reward_zero_below_support():
    g = GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6))
    assert expected_reward(g, 1.0) == 0.0
    assert expected_reward(g, 0.5) == 0.0


def test_expected_reward_limit():
    g = GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6))
    # gamma / (gamma - beta) = 1.2 / 0.6
    assert expected_reward(g, 1e30) == pytest.approx(2.0, abs=1e-6)


def test_expected_reward_frozen_value():
    g = GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2))
    assert expected_reward(g, 4.0) == pytest.approx(TH2_AT_4, rel=1e-12)


def test_expected_reward_independent_reward_models():
    assert expected_reward(GroupModel(Pareto(1.0, 2.0), Constant(3.0)), 2.0) == pytest.approx(
        3.0 * (1 - 0.5 ** 2)
    )
    assert expected_reward(GroupModel(Exponential(1.0), ScaledUniform(1.0, 3.0)), 2.0) == pytest.approx(
        2.0 * (1 - math.exp(-2))
    )
    assert expected_reward(GroupModel(Deterministic(2.0), Constant(5.0)), 1.9) == 0.0
    assert expected_reward(GroupModel(Deterministic(2.0), Constant(5.0)), 2.0) == 5.0


def test_expected_reward_empirical_power():
    g = GroupModel(Empirical((1.0, 2.0, 8.0)), PowerOfTime(0.5))
    assert expected_reward(g, 4.0) == pytest.approx((1.0 + math.sqrt(2.0)) / 3)


def test_expected_reward_exponential_power_quadrature():
    # closed form via the incomplete gamma function as an independent oracle
    from scipy.special import gammainc, gamma

    g = GroupModel(Exponential(0.8), PowerOfTime(0.6))
    t = 3.0
    oracle = gamma(1.6) * gammainc(1.6, 0.8 * t) / 0.8 ** 0.6
    assert expected_reward(g, t) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("rate, b", [(1.0, 0.5), (0.25, 0.8), (2.0, 2.0), (50.0, 1.5), (1.0, 50.0)])
def test_expected_reward_exponential_power_far_deadlines(rate, b):
    # E[X**b] = Gamma(b + 1) / rate**b; past rate x ~ 745 the integrand
    # underflows to 0, and the quadrature must still find the mass near 0
    g = GroupModel(Exponential(rate), PowerOfTime(b))
    for t in (1e5, 1e6, 1e9):
        assert expected_reward(g, t) == pytest.approx(math.gamma(b + 1) / rate ** b, rel=1e-9)


def test_far_deadline_menu_keeps_exponential_power_group():
    groups = [GroupModel(Exponential(1.0), PowerOfTime(0.5), "exp_pow"),
              GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2), "pareto")]
    sol = solve(groups, DeadlineSet((1e5, 1e6)), [UtilitySpec(1.0), UtilitySpec(1.0)])
    assert sol.excluded == ()
    assert sol.stats[0].mean_reward == pytest.approx(math.gamma(1.5), rel=1e-9)


def test_expected_reward_pareto_power_vs_quadrature_sweep():
    r = rng(5)
    for _ in range(25):
        s, g = r.uniform(0.3, 3.0), r.uniform(0.8, 3.0)
        b = r.uniform(0.0, g - 0.15)
        t = s * r.uniform(1.01, 20.0)
        model = GroupModel(Pareto(s, g), PowerOfTime(b))
        oracle, _ = integrate.quad(
            lambda x: x ** b * g * s ** g / x ** (g + 1.0), s, t, epsabs=1e-12
        )
        assert expected_reward(model, t) == pytest.approx(oracle, rel=1e-8)


def test_expected_reward_monotone_in_deadline():
    r = rng(6)
    model = GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6))
    ts = np.sort(r.uniform(0.5, 30.0, 30))
    values = [expected_reward(model, t) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# reward per processing time
# ---------------------------------------------------------------------------

def test_rate_frozen_value():
    g = GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6))
    rate = expected_reward(g, 5.0) / truncated_mean_time(g.completion, 5.0)
    assert rate == pytest.approx(TH1_AT_5 / MU1_AT_5, rel=1e-12)


def test_rate_trivial_cases():
    g = GroupModel(Deterministic(2.0), Constant(1.0))
    assert expected_reward(g, 3.0) / truncated_mean_time(g.completion, 3.0) == 0.5
    pareto = GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6))
    assert expected_reward(pareto, 0.5) / truncated_mean_time(pareto.completion, 0.5) == 0.0
