"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s -v``).  The two-group
heavy-tailed environment and its exact optimum come from helpers.py.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    GroupModel,
    LearnerParams,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    SrpPolicy,
    UtilitySpec,
    alpha_fair_closed_form,
    expected_reward,
    monte_carlo,
    regret_curve,
    run_episode,
    solve,
    solve_fractions,
    srp_group_rates,
    total_utility,
    truncated_mean_time,
)
from fairtime.cli import main as cli_main
from helpers import random_positive_instance, two_group_env, uniform_utilities


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. closed-form and bisection time shares agree on randomized instances
# ---------------------------------------------------------------------------

def test_01_solver_equivalence():
    r = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        _, utilities, stats = random_positive_instance(r)
        phi_b, _ = solve_fractions(utilities, stats)
        phi_c = alpha_fair_closed_form(utilities, stats).time_shares
        worst = max(worst, float(np.abs(phi_b - phi_c).max()))
    elapsed = time.perf_counter() - t0
    report(
        worst < 1e-9 and elapsed < 1.0,
        "1 solver equivalence",
        f"max |phi_bisect - phi_closed| = {worst:.2e} over 100 instances, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. closed-form moments vs 10^6-sample Monte Carlo oracles
# ---------------------------------------------------------------------------

def _oracle_case(rng, completion, reward, t, draws=10 ** 6):
    """Independent sampling (scipy.stats / direct inversion) for one case."""
    if isinstance(completion, Pareto):
        x = stats.pareto(b=completion.shape, scale=completion.scale).rvs(draws, random_state=rng)
    elif isinstance(completion, Exponential):
        x = stats.expon(scale=1.0 / completion.rate).rvs(draws, random_state=rng)
    elif isinstance(completion, Deterministic):
        x = np.full(draws, completion.value)
    else:
        x = rng.choice(completion.samples, draws)
    if isinstance(reward, PowerOfTime):
        base = x ** reward.exponent
    elif isinstance(reward, Constant):
        base = np.full(draws, reward.value)
    else:
        base = rng.uniform(reward.lo, reward.hi, draws)
    return np.minimum(x, t), base * (x <= t)


def test_02_moment_oracle():
    r = np.random.default_rng(99)
    cases = []
    for _ in range(6):
        s, g = r.uniform(0.5, 2.0), r.uniform(1.05, 3.0)
        cases.append((Pareto(s, g), PowerOfTime(r.uniform(0.0, g - 0.2)), s * r.uniform(1.1, 12)))
    for _ in range(3):
        rate = r.uniform(0.3, 2.0)
        cases.append((Exponential(rate), PowerOfTime(r.uniform(0.0, 1.5)), r.uniform(0.5, 8)))
    cases += [
        (Pareto(1.0, 1.4), Constant(2.5), 4.0),
        (Pareto(1.0, 2.0), ScaledUniform(0.5, 1.5), 3.0),
        (Exponential(1.0), Constant(1.0), 2.0),
        (Empirical((0.4, 1.3, 2.2, 6.0)), PowerOfTime(0.5), 2.5),
        (Deterministic(2.0), Constant(3.0), 2.0),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for completion, reward, t in cases:
        group = GroupModel(completion, reward)
        busy, gain = _oracle_case(r, completion, reward, t)
        for sample, closed in ((busy, truncated_mean_time(completion, t)),
                               (gain, expected_reward(group, t))):
            se = sample.std(ddof=1) / math.sqrt(len(sample))
            gap = abs(sample.mean() - closed)
            assert gap <= 3 * se + 1e-12, (completion, reward, t, gap, se)
            worst = max(worst, gap / se if se > 0 else 0.0)
    elapsed = time.perf_counter() - t0
    report(
        elapsed < 30.0,
        "2 moment oracle",
        f"{len(cases)} cases x 1e6 draws, worst gap {worst:.2f} SE, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3-5. two-group reproduction across fairness regimes (budget 4000, 500 trials)
# ---------------------------------------------------------------------------

def _learner_shares(alpha, trials=500, budget=4000.0, v=20.0, seed=8600):
    groups, deadlines = two_group_env()
    utilities = uniform_utilities(alpha)
    mc = monte_carlo(
        groups, deadlines, utilities, LearnerParams(v=v, delay=1),
        budget, trials, seed,
    )
    return mc


def test_03_proportional_fairness_reproduction():
    t0 = time.perf_counter()
    mc = _learner_shares(alpha=1.0)
    elapsed = time.perf_counter() - t0
    share2 = mc.mean_time_shares[1]
    report(
        abs(share2 - 0.5) <= 0.03 and elapsed < 120.0,
        "3 proportional fairness",
        f"group-2 time share {share2:.4f} (se {mc.se_time_shares[1]:.4f}) "
        f"vs 0.5 +/- 0.03, {elapsed:.0f}s",
    )


def test_04_reward_maximization():
    groups, deadlines = two_group_env()
    sol = solve(groups, deadlines, uniform_utilities(0.0))
    assert sol.time_shares == pytest.approx([1.0, 0.0])
    mc = _learner_shares(alpha=0.0)
    share2 = mc.mean_time_shares[1]
    report(
        share2 <= 0.15,
        "4 reward maximization",
        f"offline shares (1,0); learner group-2 time share {share2:.4f} <= 0.15",
    )


def test_05_intermediate_fairness():
    groups, deadlines = two_group_env()
    sol = solve(groups, deadlines, uniform_utilities(0.5))
    mc = _learner_shares(alpha=0.5)
    gap = float(np.abs(mc.mean_time_shares - sol.time_shares).max())
    report(
        gap <= 0.05,
        "5 intermediate fairness",
        f"learner shares {np.round(mc.mean_time_shares, 4)} vs optimal "
        f"{np.round(sol.time_shares, 4)}, max gap {gap:.4f} <= 0.05",
    )


# ---------------------------------------------------------------------------
# 6. finite-budget utility sandwich for stationary randomized policies
# ---------------------------------------------------------------------------

def test_06_srp_utility_sandwich():
    groups, deadlines = two_group_env()
    utilities = uniform_utilities(1.0)
    grid = deadlines.as_array()
    sol = solve(groups, deadlines, utilities)
    policies = [SrpPolicy.from_solution(sol)]
    r = np.random.default_rng(606)
    for _ in range(5):
        sel = r.dirichlet((1.0, 1.0))
        dls = grid[r.integers(0, len(grid), 2)]
        policies.append(SrpPolicy(tuple(map(float, sel)), tuple(map(float, dls))))

    budgets = (500.0, 1000.0, 2000.0, 4000.0)
    d, b, se = [], [], []
    for policy in policies:
        rho = srp_group_rates(policy.matrix(deadlines), groups, deadlines)
        u_rho, _ = total_utility(utilities, rho)
        for budget in budgets:
            mc = monte_carlo(groups, deadlines, utilities, policy, budget, 400, 321,
                             opt_utility_rate=sol.utility_rate)
            d.append(mc.utility_of_mean_rates - u_rho)
            b.append(budget)
            se.append(mc.regret_se)
    d, b, se = map(np.array, (d, b, se))
    # single constant fitted by least squares to d ~ C / budget
    C = float((d / b).sum() / (1.0 / b ** 2).sum())
    lower_ok = bool((d >= -3 * se).all())
    upper_ok = bool((d <= C / b + 3 * se).all())
    report(
        lower_ok and upper_ok,
        "6 utility sandwich",
        f"{len(policies)} policies x {len(budgets)} budgets, fitted C = {C:.2f}, "
        f"lower ok {lower_ok}, upper ok {upper_ok}",
    )


# ---------------------------------------------------------------------------
# 7. regret decays like a power law with the right slope
# ---------------------------------------------------------------------------

def test_07_regret_scaling():
    groups, deadlines = two_group_env()
    t0 = time.perf_counter()
    curve = regret_curve(
        groups, deadlines, uniform_utilities(1.0),
        [250, 500, 1000, 2000, 4000, 8000], trials=600, base_seed=12345,
    )
    elapsed = time.perf_counter() - t0
    regrets = [p.regret for p in curve.points]
    positive = all(x > 0 for x in regrets)
    monotone = all(
        p2.regret <= p1.regret + 3 * math.hypot(p1.stderr, p2.stderr)
        for p1, p2 in zip(curve.points, curve.points[1:])
    )
    slope_ok = -0.7 <= curve.slope <= -0.3
    report(
        positive and monotone and slope_ok and elapsed < 600.0,
        "7 regret scaling",
        f"slope {curve.slope:.3f} in [-0.7, -0.3], positive {positive}, "
        f"monotone {monotone}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. deterministic deadlines beat randomized deadline mixes
# ---------------------------------------------------------------------------

def _mixed_optimum_reference(alpha, weights, r1_grid, r2_grid):
    """Vectorized optimal utility over the share simplex for two groups with
    rates on a broadcast grid (test-local closed forms)."""
    w1, w2 = weights
    r1 = r1_grid[:, None]
    r2 = r2_grid[None, :]
    if alpha == 0.0:
        return np.maximum(w1 * r1, w2 * r2)
    if alpha == 1.0:
        w = w1 + w2
        return w1 * np.log(r1 * w1 / w) + w2 * np.log(r2 * w2 / w)
    s = w1 ** (1 / alpha) * r1 ** (1 / alpha - 1) + w2 ** (1 / alpha) * r2 ** (1 / alpha - 1)
    return s ** alpha / (1 - alpha)


def test_08_deterministic_deadline_brute_force():
    r = np.random.default_rng(4040)
    betas = np.linspace(0.0, 1.0, 101)
    worst = -np.inf
    for _ in range(20):
        deadlines = DeadlineSet(tuple(np.sort(r.uniform(0.8, 10.0, 3))))
        groups = []
        for label in ("a", "b"):
            if r.random() < 0.5:
                shape = r.uniform(1.1, 2.5)
                groups.append(GroupModel(Pareto(r.uniform(0.3, 0.7), shape),
                                         PowerOfTime(r.uniform(0.0, shape - 0.2)), label))
            else:
                groups.append(GroupModel(Exponential(r.uniform(0.3, 1.5)),
                                         Constant(r.uniform(0.5, 3.0)), label))
        alpha = float(r.choice([0.0, 0.3, 0.5, 1.0, 2.0, 4.0]))
        weights = [float(r.uniform(0.5, 2.0)) for _ in groups]
        utilities = [UtilitySpec(alpha, w) for w in weights]
        opt = solve(groups, deadlines, utilities).utility_rate

        mu = np.array([[truncated_mean_time(g.completion, t) for t in deadlines.deadlines]
                       for g in groups])
        theta = np.array([[expected_reward(g, t) for t in deadlines.deadlines]
                          for g in groups])
        pairs = [(0, 1), (0, 2), (1, 2)]
        mixed_rates = []
        for k in range(2):
            rates = []
            for i, j in pairs:
                num = betas * theta[k, i] + (1 - betas) * theta[k, j]
                den = betas * mu[k, i] + (1 - betas) * mu[k, j]
                rates.append(num / den)
            mixed_rates.append(np.concatenate(rates))
        brute = float(
            _mixed_optimum_reference(alpha, weights, mixed_rates[0], mixed_rates[1]).max()
        )
        worst = max(worst, brute - opt)
    report(
        worst <= 1e-9,
        "8 deterministic deadlines",
        f"max (randomized-mix optimum - deterministic optimum) = {worst:.2e} over 20 instances",
    )


# ---------------------------------------------------------------------------
# 9. dual queues stay bounded on a long run
# ---------------------------------------------------------------------------

def test_09_queue_stability():
    groups, deadlines = two_group_env()
    res = run_episode(
        groups, deadlines, uniform_utilities(1.0),
        LearnerParams(v=20.0, delay=1), 8000.0, seed=3,
        collect_trace=True,
    )
    sums = res.trace[:, 5:7].sum(axis=1)
    tail_mean = float(sums[len(sums) // 2:].mean())
    report(
        tail_mean < 10 * 20.0,
        "9 queue stability",
        f"mean sum(Q) over the second half = {tail_mean:.1f} < 200",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical outputs across thread counts
# ---------------------------------------------------------------------------

def test_10_determinism_across_thread_counts(tmp_path):
    config = {
        "schema_version": 1,
        "seed": 4242,
        "groups": [
            {"label": "group1",
             "completion": {"pareto": {"scale": 1.0, "shape": 1.2}},
             "reward": {"power_of_time": {"exponent": 0.6}}},
            {"label": "group2",
             "completion": {"pareto": {"scale": 1.0, "shape": 1.4}},
             "reward": {"power_of_time": {"exponent": 0.2}}},
        ],
        "deadlines": [1.5, 2, 3, 4, 5, 7, 10, 15, 20],
        "utility": {"alpha": 1.0},
        "experiment": {"kind": "simulate", "policy": "online", "budget": 500, "trials": 40},
        "v": 20,
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(config))
    bodies = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        code = cli_main(["simulate", str(path), "--out-dir", str(out),
                         "--threads", threads])
        assert code == 0
        bodies.append((out / "summary.csv").read_bytes())
    identical = bodies[0] == bodies[1] == bodies[2]
    report(
        identical,
        "10 determinism",
        f"summary.csv identical across threads 1/4/8: {identical}",
    )
