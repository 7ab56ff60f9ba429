"""Concave utility family used to trade off total reward against fairness.

A utility is parameterized by a fairness exponent ``alpha`` >= 0 and a
positive ``weight`` w:

    alpha = 0:  U(x) = w * x           (pure reward maximization)
    alpha = 1:  U(x) = w * log(x)      (proportional fairness)
    otherwise:  U(x) = w * x**(1-alpha) / (1-alpha)

Larger alpha mean stronger aversion to starving any group; alpha -> inf
approaches max-min fairness (only approximated here by large finite alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import check_number

# Rates of exactly zero poison log-type utilities; aggregate statistics are
# evaluated at this floor instead, and results carry a "floored" flag.
RATE_FLOOR = 1e-9


@dataclass(frozen=True)
class UtilitySpec:
    """One group's alpha-fair utility: fairness exponent ``alpha`` and ``weight``."""

    alpha: float
    weight: float = 1.0

    def __post_init__(self):
        check_number(self.alpha, "alpha", strict=False)
        check_number(self.weight, "weight")


def value(u: UtilitySpec, x: float) -> float:
    """U(x).  x must be positive except for the linear case (alpha = 0)."""
    if u.alpha == 0.0:
        if x < 0:
            raise ValueError(f"rate must be >= 0 for linear utility, got {x}")
        return u.weight * x
    if not x > 0:
        raise ValueError(f"rate must be > 0 for alpha={u.alpha}, got {x}")
    if u.alpha == 1.0:
        return u.weight * math.log(x)
    return u.weight * x ** (1.0 - u.alpha) / (1.0 - u.alpha)


def marginal(u: UtilitySpec, x: float) -> float:
    """U'(x) = w * x**(-alpha); constant w for the linear case."""
    if u.alpha == 0.0:
        return u.weight
    if not x > 0:
        raise ValueError(f"rate must be > 0 for alpha={u.alpha}, got {x}")
    return u.weight * x ** (-u.alpha)


def inverse_marginal(u: UtilitySpec, y: float) -> float:
    """Solve U'(x) = y for x, i.e. (w/y)**(1/alpha).

    The linear utility has a constant marginal and therefore no unique
    inverse; callers must special-case alpha = 0.
    """
    if u.alpha == 0.0:
        raise ValueError("linear utility (alpha=0) has no unique inverse marginal")
    if not y > 0:
        raise ValueError(f"marginal value must be > 0, got {y}")
    return (u.weight / y) ** (1.0 / u.alpha)


def total_utility(utilities: list[UtilitySpec], rates) -> tuple[float, bool]:
    """Sum of per-group utilities at the given rates, with a floor for
    starved groups.

    Rates below RATE_FLOOR are evaluated at the floor whenever alpha > 0
    (log and power utilities are undefined or exploding at zero); the second
    return value reports whether any floor was applied.
    """
    if len(utilities) != len(rates):
        raise ValueError(f"{len(utilities)} utilities vs {len(rates)} rates")
    total = 0.0
    floored = False
    for u, x in zip(utilities, rates):
        if u.alpha > 0.0 and x < RATE_FLOOR:
            x = RATE_FLOOR
            floored = True
        total += value(u, x)
    return total, floored
