"""Budget-constrained fair task allocation.

Offline: optimal deadlines and time shares for concave (alpha-fair) utility
maximization under a continuous time budget.  Online: a dual-ascent learner
with virtual queues that matches the offline optimum without knowing the
task statistics.  Simulation: a renewal-structured episode engine with
reproducible, seed-derived Monte Carlo aggregation.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .distributions import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    GroupModel,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    expected_reward,
    mean_completion,
    truncated_mean_time,
)
from .learning import LearnerParams, OnlineLearner
from .offline import (
    GroupStats,
    NoRewardError,
    NumericalError,
    OfflineSolution,
    alpha_fair_closed_form,
    moment_grid,
    selection_from_fractions,
    solve,
    solve_fractions,
    srp_group_rates,
    utility_rate_of_srp,
)
from .sim import (
    EpisodeResult,
    McSummary,
    OnlinePolicy,
    RegretCurve,
    RegretPoint,
    SrpPolicy,
    default_v,
    monte_carlo,
    regret_curve,
    run_episode,
)
from .utility import RATE_FLOOR, UtilitySpec, inverse_marginal, marginal, total_utility, value

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Constant",
    "DeadlineSet",
    "Deterministic",
    "Empirical",
    "EpisodeResult",
    "ExperimentConfig",
    "Exponential",
    "GroupModel",
    "GroupStats",
    "LearnerParams",
    "McSummary",
    "NoRewardError",
    "NumericalError",
    "OfflineSolution",
    "OnlineLearner",
    "OnlinePolicy",
    "Pareto",
    "PowerOfTime",
    "RATE_FLOOR",
    "RegretCurve",
    "RegretPoint",
    "ScaledUniform",
    "SrpPolicy",
    "UtilitySpec",
    "alpha_fair_closed_form",
    "default_v",
    "expected_reward",
    "inverse_marginal",
    "load_config",
    "marginal",
    "mean_completion",
    "moment_grid",
    "monte_carlo",
    "parse_config",
    "regret_curve",
    "run_episode",
    "selection_from_fractions",
    "solve",
    "solve_fractions",
    "srp_group_rates",
    "total_utility",
    "truncated_mean_time",
    "utility_rate_of_srp",
    "value",
]
