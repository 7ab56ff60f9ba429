import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    GroupModel,
    LearnerParams,
    Pareto,
    PowerOfTime,
    SrpPolicy,
    UtilitySpec,
    default_v,
    monte_carlo,
    regret_curve,
    run_episode,
    sim,
    solve,
)
from helpers import DEADLINE_GRID, episode_digest, family_srp_case, numpy_streams, two_group_env, uniform_utilities


def unit_env():
    groups = [GroupModel(Deterministic(1.0), Constant(1.0), "unit")]
    return groups, DeadlineSet((1.0,)), [UtilitySpec(0.0)]


def unit_policy():
    return SrpPolicy(selection=(1.0,), deadlines=(1.0,))


# ---------------------------------------------------------------------------
# episode semantics
# ---------------------------------------------------------------------------

def test_unit_tasks_first_passage_includes_crossing_task():
    groups, dl, us = unit_env()
    res = run_episode(groups, dl, us, unit_policy(), 10.0, seed=0)
    # cumulative time hits the budget exactly at task 10, so the stopping
    # rule (first strict excess) runs an 11th task and counts its reward
    assert res.n_tasks == 11
    assert res.per_group_time[0] == pytest.approx(11.0)
    assert res.per_group_reward[0] == pytest.approx(11.0)
    assert res.reward_rates[0] == pytest.approx(1.1)
    assert res.time_shares[0] == 1.0


def test_truncate_last_discards_crossing_task():
    groups, dl, us = unit_env()
    res = run_episode(groups, dl, us, unit_policy(), 10.0, seed=0, truncate_last=True)
    assert res.n_tasks == 10
    assert res.per_group_reward[0] == pytest.approx(10.0)
    assert res.reward_rates[0] == pytest.approx(1.0)


def test_interrupted_tasks_collect_nothing():
    groups = [GroupModel(Deterministic(2.0), Constant(1.0), "slow")]
    dl = DeadlineSet((1.0, 2.0))
    res = run_episode(groups, dl, [UtilitySpec(0.0)],
                      SrpPolicy((1.0,), (1.0,)), 7.0, seed=0)
    assert res.per_group_reward[0] == 0.0
    assert res.n_tasks == 8  # every task burns exactly the unit deadline


def test_degenerate_selection_starves_other_group():
    groups, deadlines = two_group_env()
    policy = SrpPolicy((1.0, 0.0), (7.0, 4.0))
    res = run_episode(groups, deadlines, uniform_utilities(0.0), policy, 200.0, seed=3)
    assert res.per_group_time[1] == 0.0
    assert res.per_group_reward[1] == 0.0
    assert res.time_shares == pytest.approx([1.0, 0.0])


def test_policy_deadline_must_be_on_menu():
    groups, deadlines = two_group_env()
    policy = SrpPolicy((0.5, 0.5), (7.0, 4.4))
    with pytest.raises(ValueError):
        run_episode(groups, deadlines, uniform_utilities(1.0), policy, 100.0, seed=0)


def test_srp_selection_must_be_distribution():
    with pytest.raises(ValueError):
        SrpPolicy((0.6, 0.6), (1.0, 1.0))
    with pytest.raises(ValueError):
        SrpPolicy((0.5, 0.5), (1.0,))
    # bool is a number, numpy's too, but True must not run as 1.0
    for selection in [(True, False), (np.True_, 0.0)]:
        with pytest.raises(ValueError, match="probability distribution"):
            SrpPolicy(selection, (2.0, 4.0))
    for deadlines in [(True, 2.0), (1.0, np.True_)]:
        with pytest.raises(ValueError, match="one deadline per group"):
            SrpPolicy((1.0, 0.0), deadlines)
    with pytest.raises(ValueError):
        SrpPolicy([True, False], [True, 2.0])
    # NaN compares false either way, so it must fail the checks, not pass them
    for selection in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)]:
        with pytest.raises(ValueError, match="probability distribution"):
            SrpPolicy(selection, (2.0, 4.0))


def test_srp_policy_constants_stay_out_of_its_fields():
    a, b = SrpPolicy((0.25, 0.75), (7.0, 4.0)), SrpPolicy([0.25, 0.75], [7, 4])
    assert [f.name for f in dataclasses.fields(SrpPolicy)] == ["selection", "deadlines"]
    assert not hasattr(a, "label")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a._bounds.tolist() == [[0.25]] and a._deadline_array.tolist() == [7.0, 4.0]


def test_budget_validation():
    groups, dl, us = unit_env()
    for bad in (0.0, -1.0, math.inf, True, np.True_):
        with pytest.raises(ValueError, match="budget must be positive"):
            run_episode(groups, dl, us, unit_policy(), bad, seed=0)


@pytest.mark.parametrize("policy, utilities, seed, error, message", [
    (LearnerParams(v=20.0), 2, -1, ValueError, "seed must be >= 0"),
    (LearnerParams(v=20.0), 2, True, ValueError, "seed must be >= 0"),
    (SrpPolicy((0.5, 0.5), (7.0, 4.0)), 2, 1.5, ValueError, "seed must be >= 0"),
    ("online", 2, 0, TypeError, "unknown policy"),
    (SrpPolicy((0.2, 0.3, 0.5), (7.0, 4.0, 4.0)), 2, 0, ValueError, "policy has 3 groups, environment has 2"),
    (LearnerParams(v=20.0), 3, 0, ValueError, "3 utilities vs 2 groups"),
], ids=["negative_seed", "bool_seed", "float_seed", "unknown_policy", "srp_length", "utilities_length"])
def test_run_episode_input_checks(policy, utilities, seed, error, message):
    groups, deadlines = two_group_env()
    with pytest.raises(error, match=message):
        run_episode(groups, deadlines, uniform_utilities(1.0, utilities), policy, 100.0, seed)


def test_first_passage_bracket_on_random_episodes():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    for seed in range(5):
        res = run_episode(groups, deadlines, us,
                          SrpPolicy((0.4, 0.6), (7.0, 4.0)), 300.0, seed=seed)
        total = res.per_group_time.sum()
        assert total > 300.0
        assert res.reward_rates == pytest.approx(res.per_group_reward / 300.0)
        assert res.time_shares.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("time_tot, last_elapsed", [
    (9.5, 1.0),   # the total never crossed the budget
    (12.0, 1.0),  # the total had crossed it before the last task
])
def test_first_passage_bracket_violation_raises(monkeypatch, time_tot, last_elapsed):
    # an engine that breaks the stopping rule must fail loudly, also under
    # python -O, which strips asserts; the running totals before and after
    # the last task are exact here
    totals = (np.array([time_tot]), np.array([1.0]), 10, time_tot - last_elapsed, time_tot, last_elapsed, 0, 1.0)
    monkeypatch.setattr("fairtime.sim._run_srp", lambda *args: totals)
    groups, dl, us = unit_env()
    with pytest.raises(RuntimeError, match="first-passage bracket"):
        run_episode(groups, dl, us, unit_policy(), 10.0, seed=0)


@pytest.mark.parametrize("policy", [unit_policy(), LearnerParams(v=20.0)], ids=["srp", "online"])
def test_crossing_at_a_rounded_running_total_keeps_the_bracket(policy):
    # running totals 0.1, 0.2, 0.30000000000000004: the third task crosses
    # budget 0.2, and the total without it, 0.3... - 0.1, rounds above 0.2
    groups = [GroupModel(Deterministic(0.1), Constant(1.0))]
    res = run_episode(groups, DeadlineSet((1.0,)), [UtilitySpec(0.0)], policy, 0.2, seed=0)
    assert res.n_tasks == 3
    assert res.per_group_time[0] == 0.30000000000000004
    assert res.per_group_time[0] - 0.1 > 0.2


def test_online_trace_is_consistent_with_totals():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    policy = LearnerParams(v=20.0)
    res = run_episode(groups, deadlines, us, policy, 150.0, seed=9, collect_trace=True)
    assert len(res.trace) == res.n_tasks
    by_group = np.zeros(2)
    for row in res.trace:
        by_group[int(row[1])] += row[4]
        assert (row[5:7] >= 0).all()
    assert by_group == pytest.approx(res.per_group_reward)


@pytest.mark.parametrize("truncate", [False, True])
def test_online_trace_is_one_float64_table(truncate, monkeypatch):
    # trace.csv's columns, one row per task run, stacked once at the end of
    # the episode: tracing adds one np.array call, not one per task
    calls = []
    real = np.array

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "array", counting)
    groups, deadlines = two_group_env()
    policy = LearnerParams(v=20.0, delay=2)
    untraced = run_episode(groups, deadlines, uniform_utilities(2.0), policy, 600.0, seed=9,
                           truncate_last=truncate)
    before = len(calls)
    res = run_episode(groups, deadlines, uniform_utilities(2.0), policy, 600.0, seed=9,
                      truncate_last=truncate, collect_trace=True)
    assert len(calls) - before == before + 1
    assert untraced.trace is None and res.n_tasks == untraced.n_tasks
    assert res.trace.dtype == np.float64 and res.trace.shape == (res.n_tasks + truncate, 5 + 2 * 2)
    assert (res.trace[:, 0] == np.arange(1, len(res.trace) + 1)).all()
    assert set(res.trace[:, 1]) <= {0.0, 1.0} and set(res.trace[:, 2]) <= set(deadlines.deadlines)


def test_episode_determinism():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    for policy in (SrpPolicy((0.4, 0.6), (7.0, 4.0)), LearnerParams(v=20.0)):
        a = run_episode(groups, deadlines, us, policy, 500.0, seed=11)
        b = run_episode(groups, deadlines, us, policy, 500.0, seed=11)
        assert (a.per_group_time == b.per_group_time).all()
        assert (a.per_group_reward == b.per_group_reward).all()
        assert a.n_tasks == b.n_tasks


def online_peak_bytes(budget, delay):
    groups, deadlines = two_group_env()
    policy = LearnerParams(v=20.0, delay=delay)
    tracemalloc.start()
    try:
        run_episode(groups, deadlines, uniform_utilities(1.0), policy, budget, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("delay", [1, 300])
def test_online_episode_memory_does_not_grow_with_budget(delay):
    online_peak_bytes(100.0, delay)  # warm-up: first-call caches are not episode state
    small = online_peak_bytes(2e3, delay)
    large = online_peak_bytes(2e4, delay)
    assert large <= 2 * small, (small, large)


def test_traced_episode_holds_its_trace_as_float64_blocks():
    # the trace costs 8 (5 + 2K) bytes a task.  Its chunk blocks and their
    # concatenation are both live at the end, hence twice that, plus a fixed
    # allowance: an untraced episode peaks near 350 KB.  A tuple of Python
    # objects per task held about 280 B a row
    groups, deadlines = two_group_env()
    policy = LearnerParams(v=20.0)

    def traced(budget):
        return run_episode(groups, deadlines, uniform_utilities(1.0), policy, budget, seed=5, collect_trace=True)

    traced(100.0)  # warm-up: first-call caches are not episode state
    tracemalloc.start()
    try:
        res = traced(19000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trace.shape == (res.n_tasks, 9) and res.n_tasks > 8000
    assert peak <= 2 * 8 * 9 * res.n_tasks + 512 * 1024, (res.n_tasks, peak)


@pytest.mark.parametrize("policy", [SrpPolicy((0.4, 0.6), (7.0, 4.0)), LearnerParams(v=20.0)],
                         ids=["srp", "online"])
def test_episode_rejects_a_wrong_number_of_generators(policy):
    # K + 1 for an SRP policy, whose selections take the last one; K for the learner
    groups, deadlines = two_group_env()
    need = len(groups) + isinstance(policy, SrpPolicy)
    rngs = numpy_streams(3, need + 1)
    states = [rng.bit_generator.state for rng in rngs]
    for count in (1, need - 1, need + 1):
        with pytest.raises(ValueError, match=f"need {need} generators for 2 groups, got {count}"):
            run_episode(groups, deadlines, uniform_utilities(1.0), policy, 500.0, seed=3, rngs=rngs[:count])
    assert [rng.bit_generator.state for rng in rngs] == states  # nothing was drawn
    res = run_episode(groups, deadlines, uniform_utilities(1.0), policy, 500.0, seed=3, rngs=rngs[:need])
    standalone = run_episode(groups, deadlines, uniform_utilities(1.0), policy, 500.0, seed=3)
    assert episode_digest(res) == episode_digest(standalone)


def test_online_episode_enters_errstate_once_per_chunk(monkeypatch):
    # one np.errstate per 256-task chunk, not one per task
    entries = []
    real = np.errstate

    def counting_errstate(*args, **kwargs):
        entries.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", counting_errstate)
    groups, deadlines = two_group_env()
    policy = LearnerParams(v=20.0)
    res = run_episode(groups, deadlines, uniform_utilities(1.0), policy, 6000.0, seed=4,
                      collect_trace=True)
    assert res.n_tasks >= 2000
    assert 0 < len(entries) <= math.ceil(res.n_tasks / 256) + 2


@pytest.mark.parametrize("alphas", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (2.0, 2.0), (0.5, 2.0), (0.0, 2.0)])
def test_online_episode_numpy_calls_per_task(alphas, monkeypatch):
    # the learner's per-task state is floats: only the power in the target
    # formula (for alphas other than 0 and 1) builds a numpy array per task;
    # the rest is per 256-task chunk or per episode
    calls = {"power": 0, "array": 0}

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "power", counting("power", np.power))
    monkeypatch.setattr(np, "array", counting("array", np.array))
    groups, deadlines = two_group_env()
    utilities = [UtilitySpec(a, 1.0) for a in alphas]
    policy = LearnerParams(v=20.0)
    res = run_episode(groups, deadlines, utilities, policy, 2000.0, seed=4)
    chunks = math.ceil(res.n_tasks / 256)
    powered = any(a not in (0.0, 1.0) for a in alphas)
    assert res.n_tasks >= 500
    assert calls["power"] == (res.n_tasks if powered else 0)
    assert calls["array"] <= powered * res.n_tasks + 2 * chunks + 8


def test_online_episode_sampling_overflow_still_warns():
    # Pareto(1, 0.01) draws overflow float64 in the inverse CDF (u ** -100
    # for u below ~1e-3.08); the engine's errstate must not hide that
    groups = [
        GroupModel(Pareto(1.0, 0.01), Constant(1.0), "overflowing"),
        GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "pareto"),
    ]
    _, deadlines = two_group_env()
    policy = LearnerParams(v=10.0)
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        run_episode(groups, deadlines, uniform_utilities(1.0), policy, 2000.0, seed=0)


def test_online_episode_overflowing_power_reward_stays_finite():
    # the overflowing draws are inf, and so are their power-of-time rewards;
    # the learner must censor them without an invalid-value warning (inf * 0)
    groups = [
        GroupModel(Pareto(1.0, 0.01), PowerOfTime(0.005), "overflowing"),
        GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "pareto"),
    ]
    _, deadlines = two_group_env()
    policy = LearnerParams(v=10.0)
    for seed in (0, 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_episode(groups, deadlines, uniform_utilities(1.0), policy, 2000.0, seed)
        messages = [str(w.message) for w in caught]
        assert any("overflow encountered in power" in m for m in messages)
        assert not any("invalid value" in m for m in messages)
        assert np.isfinite(res.reward_rates).all() and np.isfinite(res.time_shares).all()


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------

def test_monte_carlo_matches_standalone_episodes(monkeypatch):
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    inside = []

    def recorded(*args, **kwargs):
        inside.append(run_episode(*args, **kwargs))
        return inside[-1]

    monkeypatch.setattr(sim, "run_episode", recorded)
    for policy in (SrpPolicy((0.5, 0.5), (7.0, 4.0)), LearnerParams(v=5.0, delay=2)):
        inside.clear()
        mc = monte_carlo(groups, deadlines, us, policy, 200.0, trials=3, base_seed=100)
        alone = [run_episode(groups, deadlines, us, policy, 200.0, seed=100 + i) for i in range(3)]
        assert [episode_digest(res) for res in inside] == [episode_digest(res) for res in alone]
        rates = np.array([res.reward_rates for res in alone])
        assert mc.mean_reward_rates.tobytes() == rates.mean(axis=0).tobytes()


# seeds across every word-count boundary: 2^32 - 1, 2^32, 2^64 and 2^128 - 1
# have one, two, three and four 32-bit words, which SeedSequence pads to its
# 4-word pool; 2^128 and 2^160 + 7 have five and six, whose extra words mix in
# before the key
BOUNDARY_SEEDS = (2**32 - 1, 2**32, 2**63, 2**64, 2**128 - 1, 2**128, 2**160 + 7)


def test_stream_words_match_seed_sequence():
    seeds = [*range(1001), *BOUNDARY_SEEDS]
    with np.errstate(all="raise"):
        words = sim._stream_words(seeds, 9)
        batched = [*sim._trial_streams(0, 1001, 9), *(next(sim._trial_streams(s, 1, 9)) for s in BOUNDARY_SEEDS)]
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 9, 4)
    mismatched = [
        (s, k) for i, s in enumerate(seeds) for k in range(9)
        if words[i, k].tolist() != np.random.SeedSequence(s, spawn_key=(k,)).generate_state(4, np.uint64).tolist()
    ]
    assert mismatched == []
    states = [[rng.bit_generator.state for rng in rngs] for rngs in batched]
    assert states == [[rng.bit_generator.state for rng in numpy_streams(s, 9)] for s in seeds]


@pytest.mark.parametrize("policy", ["srp", "online"])
def test_monte_carlo_matches_standalone_across_seed_chunks(policy, monkeypatch):
    # one trial past a whole chunk; the first chunk holds one-word seeds
    # 2^32 - 2 and 2^32 - 1, then two-word seeds
    groups, utilities, srp = family_srp_case(8, "skewed")
    deadlines = DeadlineSet(DEADLINE_GRID)
    policy = srp if policy == "srp" else LearnerParams(v=5.0, delay=3)
    base_seed, trials, budget = 2**32 - 2, sim._SEED_CHUNK + 1, 6.0
    inside = []

    def recorded(*args, **kwargs):
        inside.append(run_episode(*args, **kwargs))
        return inside[-1]

    monkeypatch.setattr(sim, "run_episode", recorded)
    monte_carlo(groups, deadlines, utilities, policy, budget, trials, base_seed, opt_utility_rate=0.0)
    alone = [run_episode(groups, deadlines, utilities, policy, budget, base_seed + i) for i in range(trials)]
    assert [episode_digest(res) for res in inside] == [episode_digest(res) for res in alone]


@pytest.mark.parametrize("base_seed, trials, message", [
    (True, 2, "seed must be >= 0"),
    (1.5, 2, "seed must be >= 0"),
    (-1, 2, "seed must be >= 0"),
    (0, 1, "trials must be an integer >= 2"),
    (0, 2.0, "trials must be an integer >= 2"),
    (0, 2.5, "trials must be an integer >= 2"),
    (0, "3", "trials must be an integer >= 2"),
    (0, True, "trials must be an integer >= 2"),
], ids=["bool", "float", "negative", "one_trial", "float_trials", "fractional_trials", "str_trials",
        "bool_trials"])
def test_monte_carlo_and_regret_curve_check_base_seed_and_trials(base_seed, trials, message):
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    with pytest.raises(ValueError, match=message):
        monte_carlo(groups, deadlines, us, SrpPolicy((0.5, 0.5), (7.0, 4.0)), 50.0, trials, base_seed)
    with pytest.raises(ValueError, match=message):
        regret_curve(groups, deadlines, us, [10, 40, 160, 640], trials, base_seed)


def test_monte_carlo_accepts_numpy_integer_trials():
    groups, deadlines = two_group_env()
    mc = monte_carlo(groups, deadlines, uniform_utilities(1.0), SrpPolicy((0.5, 0.5), (7.0, 4.0)),
                     50.0, np.int64(2), 0)
    assert mc.trials == 2


def test_srp_monte_carlo_builds_no_selection_matrix(monkeypatch):
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    off_menu = SrpPolicy((0.5, 0.5), (7.0, 4.4))
    with pytest.raises(ValueError) as from_matrix:
        off_menu.matrix(deadlines)

    def no_matrix(*args):
        raise AssertionError("selection matrix built")

    monkeypatch.setattr(SrpPolicy, "matrix", no_matrix)
    mc = monte_carlo(groups, deadlines, us, SrpPolicy((0.5, 0.5), (7.0, 4.0)), 200.0, trials=3, base_seed=0)
    assert mc.mean_tasks > 0
    with pytest.raises(ValueError) as from_run:
        monte_carlo(groups, deadlines, us, off_menu, 200.0, trials=3, base_seed=0)
    assert str(from_run.value) == str(from_matrix.value) == "policy deadline 4.4 for group 1 not in the deadline set"


def test_monte_carlo_requires_two_trials():
    groups, dl, us = unit_env()
    with pytest.raises(ValueError):
        monte_carlo(groups, dl, us, unit_policy(), 10.0, trials=1, base_seed=0)


def test_oracle_srp_achieves_offline_rates():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    sol = solve(groups, deadlines, us)
    mc = monte_carlo(groups, deadlines, us, SrpPolicy.from_solution(sol),
                     2000.0, trials=400, base_seed=17)
    expected = np.array([s.rate for s in sol.stats]) * sol.time_shares
    for k in range(2):
        assert abs(mc.mean_reward_rates[k] - expected[k]) < 3 * mc.se_reward_rates[k] + 1e-4
    # regret of the oracle is sampling noise plus the finite-budget bonus
    assert abs(mc.regret) < 5 / 2000.0 + 3 * mc.regret_se


def test_se_scales_with_trials():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    policy = SrpPolicy((0.5, 0.5), (7.0, 4.0))
    small = monte_carlo(groups, deadlines, us, policy, 300.0, trials=50, base_seed=1)
    big = monte_carlo(groups, deadlines, us, policy, 300.0, trials=200, base_seed=1)
    ratio = small.se_reward_rates / big.se_reward_rates
    assert (ratio > 1.3).all() and (ratio < 3.2).all()  # ~2x from 4x trials


def test_learner_shares_approach_optimum_with_budget():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    policy = LearnerParams(v=20.0)
    gaps, ses = [], []
    for budget in (250.0, 1000.0, 4000.0):
        mc = monte_carlo(groups, deadlines, us, policy, budget, trials=100, base_seed=71)
        gaps.append(abs(mc.mean_time_shares[1] - 0.5))
        ses.append(mc.se_time_shares[1])
    assert gaps[1] <= gaps[0] + 3 * (ses[0] + ses[1])
    assert gaps[2] <= gaps[1] + 3 * (ses[1] + ses[2])
    assert gaps[2] < 0.05


# ---------------------------------------------------------------------------
# regret curve
# ---------------------------------------------------------------------------

def test_default_v_rule():
    assert default_v(4000.0) == pytest.approx(math.sqrt(4000.0 / math.log(4000.0)))
    assert default_v(1.0) == 1.0


def test_regret_curve_validates_grid():
    groups, deadlines = two_group_env()
    us = uniform_utilities(1.0)
    with pytest.raises(ValueError):
        regret_curve(groups, deadlines, us, [100, 200, 400], 5, 0)
    with pytest.raises(ValueError):
        regret_curve(groups, deadlines, us, [100, 200, 200, 400], 5, 0)
    with pytest.raises(ValueError):
        regret_curve(groups, deadlines, us, [100, 200, 400, 800], 5, 0)  # 0.9 decades


@pytest.mark.parametrize("grid", [
    [0, 1, 10, 100],
    [-100, -10, 1, 1000],
    [1, 10, 100, math.nan],
    [1, 10, 100, math.inf],
    [math.nan, 1, 10, 100],
    [True, 10, 100, 1000],
    [np.True_, 10, 100, 1000],
])
def test_budget_grid_rejects_nonpositive_and_nonfinite_budgets(grid):
    with pytest.raises(ValueError, match="positive and finite"):
        sim.check_budget_grid(grid)


def test_single_arm_regret_is_budget_noise_only():
    # one group, one deadline: nothing to learn, regret is O(1/B) + noise
    groups = [GroupModel(Deterministic(2.0), Constant(1.0), "only")]
    dl = DeadlineSet((2.0,))
    us = [UtilitySpec(1.0)]
    mc = monte_carlo(groups, dl, us, LearnerParams(v=10.0),
                     2000.0, trials=20, base_seed=2)
    assert abs(mc.regret) <= 5 / 2000.0 + 3 * mc.regret_se
