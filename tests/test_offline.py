import numpy as np
import pytest

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    Exponential,
    GroupModel,
    GroupStats,
    NoRewardError,
    NumericalError,
    Pareto,
    PowerOfTime,
    SrpPolicy,
    UtilitySpec,
    alpha_fair_closed_form,
    expected_reward,
    marginal,
    moment_grid,
    selection_from_fractions,
    solve,
    solve_fractions,
    srp_group_rates,
    truncated_mean_time,
    utility_rate_of_srp,
)
from fairtime import offline
from helpers import (
    DEADLINE_GRID,
    FAMILY_GROUPS,
    LAM_ALPHA_HALF,
    MU1_STAR,
    MU2_STAR,
    OPT_ALPHA_1,
    OPT_ALPHA_HALF,
    PHI_ALPHA_2,
    PHI_ALPHA_HALF,
    R1_STAR,
    R2_STAR,
    SEL_ALPHA_1,
    T1_STAR,
    T2_STAR,
    TH1_STAR,
    TH2_STAR,
    alpha_fair_optimum_reference,
    random_positive_instance,
    two_group_env,
    uniform_utilities,
)


# ---------------------------------------------------------------------------
# optimal deadlines
# ---------------------------------------------------------------------------

def _optimal_stats(groups, deadlines):
    return solve(groups, deadlines, uniform_utilities(1.0, len(groups))).stats


def test_optimal_deadline_trivial():
    g = GroupModel(Deterministic(2.0), Constant(1.0))
    (st,) = _optimal_stats([g], DeadlineSet((1.0, 2.0, 3.0)))
    assert (st.group, st.deadline, st.rate, st.mean_processing_time, st.mean_reward) == (
        0, 2.0, 0.5, 2.0, 1.0)


def test_optimal_deadline_tie_breaks_to_smallest():
    # deadline 1 and 2 both give rate 1 for a unit deterministic task
    g = GroupModel(Deterministic(1.0), Constant(1.0))
    (st,) = _optimal_stats([g], DeadlineSet((1.0, 2.0)))
    assert (st.deadline, st.rate) == (1.0, 1.0)


def test_optimal_deadline_two_group_interior_maxima():
    groups, deadlines = two_group_env()
    st1, st2 = _optimal_stats(groups, deadlines)
    assert (st1.group, st1.label, st2.group, st2.label) == (0, "group1", 1, "group2")
    assert st1.deadline == T1_STAR
    assert st1.rate == pytest.approx(R1_STAR, rel=1e-12)
    assert st1.mean_processing_time == pytest.approx(MU1_STAR, rel=1e-12)
    assert st1.mean_reward == pytest.approx(TH1_STAR, rel=1e-12)
    assert st2.deadline == T2_STAR
    assert st2.rate == pytest.approx(R2_STAR, rel=1e-12)
    assert st2.mean_processing_time == pytest.approx(MU2_STAR, rel=1e-12)
    assert st2.mean_reward == pytest.approx(TH2_STAR, rel=1e-12)
    assert st1.rate > st2.rate


def test_group_stats_ratio_exact():
    groups, deadlines = two_group_env()
    every_family = [g for g, _ in FAMILY_GROUPS]
    for members in (groups, every_family):
        for st in _optimal_stats(members, deadlines):
            assert st.rate == st.mean_reward / st.mean_processing_time
            assert st.mean_processing_time == truncated_mean_time(
                members[st.group].completion, st.deadline)
            assert st.mean_reward == expected_reward(members[st.group], st.deadline)


def test_optimal_deadline_no_reward_signalled():
    # the task never finishes within any deadline on the menu
    g = GroupModel(Deterministic(5.0), Constant(1.0), "never_done")
    deadlines = DeadlineSet((1.0, 2.0))
    with pytest.raises(NoRewardError):
        solve([g], deadlines, [UtilitySpec(1.0)])
    zero = GroupModel(Exponential(2.0), Constant(0.0), "zero_reward")
    unit = GroupModel(Deterministic(1.0), Constant(1.0), "unit")
    sol = solve([g, zero, unit], deadlines, uniform_utilities(1.0, 3))
    for st, member in zip(sol.stats[:2], (g, zero)):
        assert (st.deadline, st.rate, st.mean_processing_time, st.mean_reward) == (
            1.0, 0.0, truncated_mean_time(member.completion, 1.0), 0.0)
    assert sol.excluded == (0, 1)
    assert sol.time_shares.tolist() == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# time shares: bisection and closed forms
# ---------------------------------------------------------------------------

def _stats(rates, mus=None):
    mus = mus if mus is not None else [1.0] * len(rates)
    return [
        GroupStats(group=i, label=f"g{i}", deadline=1.0, rate=r,
                   mean_processing_time=m, mean_reward=r * m)
        for i, (r, m) in enumerate(zip(rates, mus))
    ]


def test_fractions_log_utility_split_by_weight():
    phi, lam = solve_fractions(uniform_utilities(1.0), _stats([0.9, 0.3]))
    assert phi == pytest.approx([0.5, 0.5], abs=1e-9)
    assert lam == pytest.approx(2.0, abs=1e-8)

    phi, _ = solve_fractions(
        [UtilitySpec(1.0, 3.0), UtilitySpec(1.0, 1.0)], _stats([0.1, 1.7])
    )
    assert phi == pytest.approx([0.75, 0.25], abs=1e-9)


def test_fractions_alpha_half_match_rates():
    # phi_k proportional to (r_k)**(1/alpha - 1) = r_k at alpha = 0.5
    stats = _stats([R1_STAR, R2_STAR])
    phi, lam = solve_fractions(uniform_utilities(0.5), stats)
    assert phi == pytest.approx(PHI_ALPHA_HALF, abs=1e-9)
    assert lam == pytest.approx(LAM_ALPHA_HALF, abs=1e-7)
    rounded = 0.528 / (0.528 + 0.458)
    phi2, _ = solve_fractions(uniform_utilities(0.5), _stats([0.528, 0.458]))
    assert phi2[0] == pytest.approx(rounded, abs=1e-9)


def test_fractions_reject_linear_and_zero_rates():
    with pytest.raises(ValueError, match=r"degenerate KKT system$"):
        solve_fractions(uniform_utilities(0.0), _stats([1.0, 2.0]))
    with pytest.raises(NoRewardError):
        solve_fractions(uniform_utilities(1.0), _stats([0.0, 0.0]))


def test_closed_form_rejects_mixed_alphas_and_zero_rates():
    with pytest.raises(ValueError, match=r"one alpha across the utilities, got \[1.0, 2.0\]"):
        alpha_fair_closed_form([UtilitySpec(1.0), UtilitySpec(2.0)], _stats([1.0, 2.0]))
    with pytest.raises(NoRewardError):
        alpha_fair_closed_form(uniform_utilities(1.0), _stats([0.0, 0.0]))


def test_solve_rejects_a_linear_utility_among_other_alphas():
    groups, deadlines = two_group_env()
    with pytest.raises(ValueError, match=r"^a linear utility \(alpha=0\) cannot be mixed with other alphas$"):
        solve(groups, deadlines, [UtilitySpec(0.0), UtilitySpec(1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda g, d: solve(g, d, uniform_utilities(1.0, 3)), "2 groups vs 3 utilities"),
    (lambda g, d: solve_fractions(uniform_utilities(1.0, 3), _stats([1.0, 2.0])), "3 utilities vs 2 groups"),
    # a valid distribution, but over deadlines x groups
    (lambda g, d: srp_group_rates(np.full((len(d), 2), 1.0 / 18), g, d), "P must have shape"),
], ids=["solve", "solve_fractions", "srp_group_rates"])
def test_group_count_mismatches_rejected(call, message):
    groups, deadlines = two_group_env()
    with pytest.raises(ValueError, match=message):
        call(groups, deadlines)


def test_fractions_bracket_failure_raises():
    # the heavy group's share (1e61 / lam) ** (1 / 5) stays above 1 through
    # all 200 doublings, lam_hi = 2 ** 199 < 1e61; no power overflows on the way
    with pytest.raises(NumericalError, match="could not bracket"):
        solve_fractions([UtilitySpec(5.0, 1e61), UtilitySpec(4.0)], _stats([1.0, 1.0]))


def test_fractions_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(offline, "_BISECT_MAX_ITER", 3)
    with pytest.raises(NumericalError, match="dual bisection did not reach"):
        solve_fractions([UtilitySpec(0.5), UtilitySpec(2.0)], _stats([0.9, 0.4]))


def test_fractions_zero_rate_group_excluded():
    phi, _ = solve_fractions(uniform_utilities(1.0, 3), _stats([1.0, 0.0, 0.5]))
    assert phi[1] == 0.0
    assert phi[[0, 2]].sum() == pytest.approx(1.0, abs=1e-9)


def test_closed_form_matches_bisection_randomized():
    r = np.random.default_rng(21)
    for _ in range(30):
        _, utilities, stats = random_positive_instance(r)
        phi_b, lam_b = solve_fractions(utilities, stats)
        sol = alpha_fair_closed_form(utilities, stats)
        assert np.abs(sol.time_shares - phi_b).max() < 1e-9
        assert sol.multiplier == pytest.approx(lam_b, rel=1e-6)


def test_share_sum_strictly_decreasing_in_multiplier():
    # the bisection relies on sum(phi(lam)) falling monotonically
    from fairtime.utility import inverse_marginal

    utilities = uniform_utilities(0.7, 3)
    stats = _stats([0.9, 0.4, 1.3])
    lams = np.geomspace(1e-6, 1e3, 40)
    sums = [
        sum(inverse_marginal(u, lam / st.rate) / st.rate for u, st in zip(utilities, stats))
        for lam in lams
    ]
    assert all(b < a for a, b in zip(sums, sums[1:]))


def test_heterogeneous_alphas_satisfy_kkt():
    utilities = [UtilitySpec(0.5, 1.0), UtilitySpec(2.0, 1.5), UtilitySpec(1.0, 0.7)]
    stats = _stats([0.9, 0.4, 1.3])
    phi, lam = solve_fractions(utilities, stats)
    assert phi.sum() == pytest.approx(1.0, abs=1e-9)
    for u, st, p in zip(utilities, stats, phi):
        # stationarity: r_k U'(r_k phi_k) equals the multiplier for all groups
        assert st.rate * marginal(u, st.rate * p) == pytest.approx(lam, rel=1e-7)


def test_alpha_one_selection_inverse_processing_time():
    groups, deadlines = two_group_env()
    sol = solve(groups, deadlines, uniform_utilities(1.0))
    assert sol.time_shares == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.selection == pytest.approx(SEL_ALPHA_1, rel=1e-12)
    assert sol.multiplier == pytest.approx(2.0, abs=1e-12)
    assert sol.utility_rate == pytest.approx(OPT_ALPHA_1, rel=1e-12)


def test_alpha_half_and_two_solutions():
    groups, deadlines = two_group_env()
    sol = solve(groups, deadlines, uniform_utilities(0.5))
    assert sol.time_shares == pytest.approx(PHI_ALPHA_HALF, rel=1e-10)
    assert sol.utility_rate == pytest.approx(OPT_ALPHA_HALF, rel=1e-10)
    sol2 = solve(groups, deadlines, uniform_utilities(2.0))
    assert sol2.time_shares == pytest.approx(PHI_ALPHA_2, rel=1e-10)


def test_alpha_zero_winner_takes_all():
    groups, deadlines = two_group_env()
    sol = solve(groups, deadlines, uniform_utilities(0.0))
    assert sol.time_shares == pytest.approx([1.0, 0.0])
    assert sol.selection == pytest.approx([1.0, 0.0])
    assert sol.multiplier == pytest.approx(R1_STAR, rel=1e-12)
    assert sol.utility_rate == pytest.approx(R1_STAR, rel=1e-12)


def test_alpha_zero_tie_breaks_to_smallest_index():
    sol = alpha_fair_closed_form(uniform_utilities(0.0), _stats([0.7, 0.7]))
    assert sol.time_shares == pytest.approx([1.0, 0.0])


def test_symmetric_groups_split_evenly():
    sol = alpha_fair_closed_form(uniform_utilities(2.0), _stats([0.5, 0.5]))
    assert sol.time_shares == pytest.approx([0.5, 0.5])
    assert sol.selection == pytest.approx([0.5, 0.5])


def test_closed_form_utility_matches_reference():
    r = np.random.default_rng(22)
    for _ in range(20):
        alpha, utilities, stats = random_positive_instance(r)
        sol = alpha_fair_closed_form(utilities, stats)
        ref = alpha_fair_optimum_reference(
            alpha, [u.weight for u in utilities], [s.rate for s in stats]
        )
        assert sol.utility_rate == pytest.approx(ref, rel=1e-9)


def test_zero_reward_group_excluded_and_flagged():
    groups, deadlines = two_group_env()
    dead = GroupModel(Deterministic(50.0), Constant(1.0), "dead")
    sol = solve([groups[0], dead], deadlines, uniform_utilities(1.0))
    assert sol.excluded == (1,)
    assert sol.floored
    assert sol.time_shares == pytest.approx([1.0, 0.0])
    with pytest.raises(NoRewardError):
        solve([dead], deadlines, [UtilitySpec(1.0)])


# ---------------------------------------------------------------------------
# selection probabilities
# ---------------------------------------------------------------------------

def test_selection_from_fractions_cases():
    assert selection_from_fractions([0.5, 0.5], _stats([1, 1], mus=[2.0, 1.0])) == pytest.approx(
        [1 / 3, 2 / 3]
    )
    assert selection_from_fractions([1.0, 0.0], _stats([1, 1])) == pytest.approx([1.0, 0.0])
    assert selection_from_fractions([0.5, 0.5], _stats([1, 1])) == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        selection_from_fractions([0.5, 0.2], _stats([1, 1]))


def test_share_selection_duality():
    # phi_k proportional to selection_k * mean processing time
    groups, deadlines = two_group_env()
    sol = solve(groups, deadlines, uniform_utilities(0.5))
    recon = sol.selection * np.array([MU1_STAR, MU2_STAR])
    assert recon / recon.sum() == pytest.approx(sol.time_shares, rel=1e-10)


# ---------------------------------------------------------------------------
# evaluating arbitrary stationary randomized policies
# ---------------------------------------------------------------------------

def test_srp_rate_single_group_single_deadline():
    g = GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6))
    dl = DeadlineSet((5.0,))
    rho = srp_group_rates(np.ones((1, 1)), [g], dl)
    assert rho[0] == pytest.approx(
        utility_rate_of_srp(np.ones((1, 1)), [g], [UtilitySpec(0.0)], dl)
    )


def test_srp_utility_consistent_with_solution():
    groups, deadlines = two_group_env()
    for alpha in (0.5, 1.0, 2.0):
        utilities = uniform_utilities(alpha)
        sol = solve(groups, deadlines, utilities)
        matrix = SrpPolicy.from_solution(sol).matrix(deadlines)
        via_srp = utility_rate_of_srp(matrix, groups, utilities, deadlines)
        assert via_srp == pytest.approx(sol.utility_rate, rel=1e-12)


def test_random_srps_never_beat_the_optimum():
    groups, deadlines = two_group_env()
    mu, theta = moment_grid(groups, deadlines)
    r = np.random.default_rng(23)
    for alpha in (0.5, 2.0):
        utilities = uniform_utilities(alpha)
        opt = solve(groups, deadlines, utilities).utility_rate
        P = r.dirichlet(np.ones(mu.size), size=10_000).reshape(-1, *mu.shape)
        rho = (P * theta).sum(axis=2) / (P * mu).sum(axis=(1, 2))[:, None]
        if alpha == 1.0:
            values = np.log(rho).sum(axis=1)
        else:
            values = (rho ** (1 - alpha) / (1 - alpha)).sum(axis=1)
        assert values.max() <= opt + 1e-9
        # spot-check the vectorized oracle against the public evaluator
        for idx in (0, 137, 4242):
            assert utility_rate_of_srp(P[idx], groups, utilities, deadlines) == pytest.approx(
                float(values[idx]), rel=1e-10
            )


def test_srp_rates_validates_distribution():
    groups, deadlines = two_group_env()
    with pytest.raises(ValueError):
        srp_group_rates(np.ones((2, len(deadlines))), groups, deadlines)
    bad = np.zeros((2, len(deadlines)))
    bad[0, 0] = 0.5
    with pytest.raises(ValueError):
        srp_group_rates(bad, groups, deadlines)


@pytest.mark.parametrize("env", ["two_group_pareto", "family_groups"])
def test_time_shares_approach_max_min_as_alpha_grows(env):
    # max-min fairness equalises the rates r_k* phi_k, so phi_k is
    # proportional to 1/r_k*; the largest gap to those shares falls as
    # 1/alpha.  The 0.12 bound on alpha x gap holds for these weights (about
    # 0.035 for the two groups of configs/ and 0.09 for the eight family
    # groups); with weights 1 and 3 on the two groups it is about 0.24
    if env == "two_group_pareto":
        (groups, deadlines), weights = two_group_env(), (1.0, 1.0)
    else:
        groups, weights = zip(*FAMILY_GROUPS)
        deadlines = DeadlineSet(DEADLINE_GRID)
    gaps = []
    for alpha in (4.0, 16.0, 64.0):
        sol = solve(list(groups), deadlines, [UtilitySpec(alpha, w) for w in weights])
        inverse_rates = 1.0 / np.array([s.rate for s in sol.stats])
        gaps.append(np.abs(sol.time_shares - inverse_rates / inverse_rates.sum()).max())
        assert alpha * gaps[-1] <= 0.12
    assert gaps[0] > gaps[1] > gaps[2]
