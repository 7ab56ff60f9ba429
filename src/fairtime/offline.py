"""Optimal stationary randomized policies with known statistics.

A stationary randomized policy draws every (group, deadline) decision i.i.d.
from a fixed distribution P over groups x deadlines.  Asymptotically in the
budget, the best such policy decomposes into two independent choices:

  1. per group, a deterministic deadline maximizing the reward per unit of
     processing time r_k(t) = E[reward(t)] / E[min(X, t)], read off the
     (group, deadline) moment table of ``moment_grid``, which is the only
     place the censored moments are evaluated over the deadline menu;
  2. a split of the time budget across groups, obtained from the KKT
     conditions of  max sum_k U_k(r_k* phi_k)  s.t.  sum_k phi_k = 1.

The KKT system is solved two ways that must agree: a bisection on the dual
multiplier (any concave utilities) and direct closed forms for the alpha-fair
family.  ``solve`` is the convenience entry point used by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DeadlineSet, GroupModel, expected_reward, truncated_mean_time
from .utility import UtilitySpec, inverse_marginal, total_utility

# Stop the dual bisection once the time shares sum to 1 within this.
SHARE_SUM_TOL = 1e-10
_BISECT_MAX_ITER = 500


class NoRewardError(ValueError):
    """Raised when a group (or a whole instance) yields no reward at any deadline."""


class NumericalError(RuntimeError):
    """Raised when an iterative solve fails to converge or a moment overflows float64."""


@dataclass(frozen=True)
class GroupStats:
    """Per-group quantities at the optimal deadline."""

    group: int
    label: str
    deadline: float
    rate: float                  # reward per processing time at `deadline`
    mean_processing_time: float  # E[min(X, deadline)]
    mean_reward: float           # E[reward under `deadline`]


@dataclass(frozen=True)
class OfflineSolution:
    stats: tuple[GroupStats, ...]
    time_shares: np.ndarray      # phi, sums to 1
    selection: np.ndarray        # per-task group selection probabilities, sums to 1
    multiplier: float            # dual price of the budget constraint
    utility_rate: float
    floored: bool                # a starved group was evaluated at the rate floor
    excluded: tuple[int, ...]    # zero-rate groups, share 0


# ---------------------------------------------------------------------------
# moments over the deadline grid
# ---------------------------------------------------------------------------

def moment_grid(groups: list[GroupModel], deadlines: DeadlineSet) -> tuple[np.ndarray, np.ndarray]:
    """(mu, theta) arrays of shape (K, L): truncated mean times and expected
    rewards for every group at every deadline.

    Raises NumericalError, naming the group and the deadline, when a moment
    overflows float64 (e.g. a large power-of-time exponent).
    """
    grid = deadlines.deadlines
    mu = np.empty((len(groups), len(grid)))
    theta = np.empty_like(mu)
    # a censored sample's X**b may overflow to inf before np.where drops it
    with np.errstate(over="ignore"):
        for k, g in enumerate(groups):
            for j, t in enumerate(grid):
                try:
                    cell = (truncated_mean_time(g.completion, t), expected_reward(g, t))
                except OverflowError:
                    cell = (math.inf, math.inf)
                if not (math.isfinite(cell[0]) and math.isfinite(cell[1])):
                    raise NumericalError(
                        f"group {g.label!r}: the moments at deadline {t:g} overflow float64"
                    )
                mu[k, j], theta[k, j] = cell
    return mu, theta


# ---------------------------------------------------------------------------
# time-share solvers
# ---------------------------------------------------------------------------

def solve_fractions(
    utilities: list[UtilitySpec], stats: list[GroupStats]
) -> tuple[np.ndarray, float]:
    """Budget fractions phi via bisection on the dual multiplier.

    At multiplier lam the KKT stationarity condition gives
    phi_k(lam) = (1/r_k) * (U_k')^{-1}(lam / r_k), which is strictly
    decreasing in lam; bisection finds the lam with sum_k phi_k = 1.
    Groups with zero rate are excluded and get phi = 0.
    """
    if any(u.alpha == 0.0 for u in utilities):
        raise ValueError("linear utilities (alpha=0) have a degenerate KKT system")
    if len(utilities) != len(stats):
        raise ValueError(f"{len(utilities)} utilities vs {len(stats)} groups")
    rates = np.array([s.rate for s in stats])
    active = rates > 0.0
    if not active.any():
        raise NoRewardError("no group yields positive reward")
    r = rates[active]
    u_active = [u for u, a in zip(utilities, active) if a]

    def shares(lam: float) -> np.ndarray:
        return np.array(
            [inverse_marginal(u, lam / rk) / rk for u, rk in zip(u_active, r)]
        )

    lam_lo = 1e-12
    lam_hi = 1.0
    for _ in range(200):
        if shares(lam_hi).sum() < 1.0:
            break
        lam_hi *= 2.0
    else:
        raise NumericalError("could not bracket the dual multiplier from above")

    lam = lam_hi
    for _ in range(_BISECT_MAX_ITER):
        lam = 0.5 * (lam_lo + lam_hi)
        total = shares(lam).sum()
        if abs(total - 1.0) <= SHARE_SUM_TOL:
            break
        if total > 1.0:
            lam_lo = lam
        else:
            lam_hi = lam
    else:
        raise NumericalError(
            f"dual bisection did not reach |sum(phi) - 1| <= {SHARE_SUM_TOL}"
        )

    phi = np.zeros(len(stats))
    phi[active] = shares(lam)
    return phi, lam


def alpha_fair_closed_form(utilities: list[UtilitySpec], stats: list[GroupStats]) -> OfflineSolution:
    """Direct evaluation of the alpha-fair optimum at the utilities' one alpha.

    For alpha > 0,
        phi_k       proportional to  w_k**(1/alpha) * (r_k*)**(1/alpha - 1)
        selection_k proportional to  phi-numerator / mean processing time.
    For alpha = 0 all mass goes to the group maximizing w_k * r_k*
    (ties toward the smallest index).
    """
    alphas = {u.alpha for u in utilities}
    if len(alphas) != 1:
        raise ValueError(f"the closed form needs one alpha across the utilities, got {sorted(alphas)}")
    (alpha,) = alphas
    rates = np.array([s.rate for s in stats])
    mus = np.array([s.mean_processing_time for s in stats])
    weights = np.array([u.weight for u in utilities])
    active = rates > 0.0
    if not active.any():
        raise NoRewardError("no group yields positive reward")

    if alpha == 0.0:
        winner = int(np.argmax(weights * rates))
        phi = np.zeros(len(stats))
        phi[winner] = 1.0
        selection = phi.copy()
        lam = float(weights[winner] * rates[winner])
    else:
        numer = np.zeros(len(stats))
        numer[active] = weights[active] ** (1.0 / alpha) * rates[active] ** (1.0 / alpha - 1.0)
        phi = numer / numer.sum()
        sel_numer = np.where(active, numer / mus, 0.0)
        selection = sel_numer / sel_numer.sum()
        first = int(np.flatnonzero(active)[0])
        lam = float(weights[first] * rates[first] / (rates[first] * phi[first]) ** alpha)
    return _solution(utilities, stats, phi, selection, lam)


def _solution(
    utilities: list[UtilitySpec], stats: list[GroupStats], phi: np.ndarray,
    selection: np.ndarray, multiplier: float,
) -> OfflineSolution:
    """Assemble a solution from its time shares: the utility rate, whether a
    starved group was evaluated at the rate floor, and the zero-rate groups."""
    rates = np.array([s.rate for s in stats])
    utility_rate, floored = total_utility(utilities, rates * phi)
    return OfflineSolution(
        stats=tuple(stats), time_shares=phi, selection=selection, multiplier=multiplier,
        utility_rate=utility_rate, floored=floored,
        excluded=tuple(int(i) for i in np.flatnonzero(rates <= 0.0)),
    )


def selection_from_fractions(phi: np.ndarray, stats: list[GroupStats]) -> np.ndarray:
    """Convert budget fractions into per-task selection probabilities.

    A group holding share phi_k of the time budget is selected with
    probability proportional to phi_k / (mean processing time): shorter tasks
    need proportionally more selections for the same time share.
    """
    phi = np.asarray(phi, dtype=float)
    if abs(phi.sum() - 1.0) > 1e-6:
        raise ValueError(f"fractions must sum to 1, got {phi.sum()}")
    weights = phi / np.array([s.mean_processing_time for s in stats])
    return weights / weights.sum()


def solve(
    groups: list[GroupModel], deadlines: DeadlineSet, utilities: list[UtilitySpec]
) -> OfflineSolution:
    """Full offline solve: per-group optimal deadlines, then the budget split.

    Each group takes the first maximizer of reward per processing time in its
    row of the moment table, so ties break toward the smallest deadline; a
    group with no reward at any deadline gets rate 0 at the smallest deadline
    and is excluded (share 0, reported in `excluded`).  A single alpha across
    groups uses the closed form; heterogeneous strictly concave utilities use
    the dual bisection, and a linear utility mixed with other alphas raises
    ValueError.
    """
    if len(groups) != len(utilities):
        raise ValueError(f"{len(groups)} groups vs {len(utilities)} utilities")
    mu, theta = moment_grid(groups, deadlines)
    rates = theta / mu
    stats = [
        GroupStats(group=k, label=g.label, deadline=deadlines.deadlines[j],
                   rate=float(rates[k, j]), mean_processing_time=float(mu[k, j]),
                   mean_reward=float(theta[k, j]))
        for k, (g, j) in enumerate(zip(groups, rates.argmax(axis=1)))
    ]
    if all(s.rate <= 0.0 for s in stats):
        raise NoRewardError("no group yields positive reward at any deadline")

    alphas = {u.alpha for u in utilities}
    if len(alphas) == 1:
        return alpha_fair_closed_form(utilities, stats)
    if 0.0 in alphas:
        raise ValueError("a linear utility (alpha=0) cannot be mixed with other alphas")
    phi, lam = solve_fractions(utilities, stats)
    return _solution(utilities, stats, phi, selection_from_fractions(phi, stats), lam)


# ---------------------------------------------------------------------------
# evaluating arbitrary stationary randomized policies
# ---------------------------------------------------------------------------

def srp_group_rates(
    P: np.ndarray, groups: list[GroupModel], deadlines: DeadlineSet
) -> np.ndarray:
    """Long-run reward per unit time for each group under selection
    distribution P over groups x deadlines:

        rho_k = sum_t P[k,t] theta(k,t) / sum_{i,t} P[i,t] mu(i,t)
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (len(groups), len(deadlines)):
        raise ValueError(f"P must have shape {(len(groups), len(deadlines))}, got {P.shape}")
    if (P < 0).any() or abs(P.sum() - 1.0) > 1e-9:
        raise ValueError("P must be a probability distribution")
    mu, theta = moment_grid(groups, deadlines)
    denom = float((P * mu).sum())
    return (P * theta).sum(axis=1) / denom


def utility_rate_of_srp(
    P: np.ndarray,
    groups: list[GroupModel],
    utilities: list[UtilitySpec],
    deadlines: DeadlineSet,
) -> float:
    """Total long-run utility of the stationary randomized policy P.

    Starved groups (rho = 0) with alpha > 0 are evaluated at the rate floor;
    use total_utility directly if the floored flag is needed.
    """
    rho = srp_group_rates(P, groups, deadlines)
    value, _ = total_utility(utilities, rho)
    return value
