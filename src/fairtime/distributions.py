"""Group task models: completion-time distributions, reward models, and their
censored moments.

A task assigned to a group runs for a random completion time X and carries a
latent base reward.  Under a deadline t the controller only collects the base
reward when X <= t, and the task occupies the server for min(X, t) time units.
The two moments that drive every policy in this package are therefore

    truncated mean time   E[min(X, t)]
    expected reward       E[base_reward * 1{X <= t}]

Both are computed in closed form for every supported distribution family
except Exponential completion paired with a power-of-time reward, which falls
back to adaptive quadrature at absolute tolerance ``QUAD_ABS_TOL``: the
in-tree QAGS port of ``quadrature``, which returns the same doubles as
``scipy.integrate.quad`` without importing scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quadrature import qags

# Quadrature fallback tolerance: the moments feed a bisection solver, so they
# have to be accurate well below the solver's own 1e-10 stopping criterion.
QUAD_ABS_TOL = 1e-10
# math.exp(-x) underflows to 0.0 for x above about 745.13
EXP_UNDERFLOW = 750.0


# ---------------------------------------------------------------------------
# completion-time distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pareto:
    """Pareto distribution with support [scale, inf) and P(X > x) = (scale/x)**shape."""

    scale: float
    shape: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"Pareto scale must be > 0, got {self.scale}")
        if not self.shape > 0:
            raise ValueError(f"Pareto shape must be > 0, got {self.shape}")


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"Exponential rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"Deterministic value must be > 0, got {self.value}")


@dataclass(frozen=True)
class Empirical:
    """Resamples uniformly from an observed set of completion times."""

    samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("Empirical needs at least one sample")
        if not all(x > 0 for x in self.samples):
            raise ValueError("Empirical samples must all be > 0")
        object.__setattr__(self, "samples", tuple(float(x) for x in self.samples))


CompletionSpec = Union[Pareto, Exponential, Deterministic, Empirical]


# ---------------------------------------------------------------------------
# reward models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerOfTime:
    """Base reward coupled to the completion time as X**exponent."""

    exponent: float

    def __post_init__(self):
        if not self.exponent >= 0:
            raise ValueError(f"PowerOfTime exponent must be >= 0, got {self.exponent}")


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"Constant reward must be >= 0, got {self.value}")


@dataclass(frozen=True)
class ScaledUniform:
    """Base reward drawn uniformly from [lo, hi], independent of the completion time."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"ScaledUniform needs 0 <= lo <= hi, got [{self.lo}, {self.hi}]")


RewardSpec = Union[PowerOfTime, Constant, ScaledUniform]


@dataclass(frozen=True)
class GroupModel:
    """Completion-time distribution plus reward model for one group of tasks."""

    completion: CompletionSpec
    reward: RewardSpec
    label: str = ""

    def __post_init__(self):
        # A power-law reward with exponent >= Pareto shape has infinite mean
        # base reward, which breaks every rate computation downstream.
        if isinstance(self.completion, Pareto) and isinstance(self.reward, PowerOfTime):
            if self.reward.exponent >= self.completion.shape:
                raise ValueError(
                    "PowerOfTime exponent must be < Pareto shape "
                    f"(got {self.reward.exponent} >= {self.completion.shape}): "
                    "mean base reward would be infinite"
                )


@dataclass(frozen=True)
class DeadlineSet:
    """Finite menu of admissible deadlines, strictly increasing."""

    deadlines: tuple[float, ...]

    def __post_init__(self):
        if len(self.deadlines) == 0:
            raise ValueError("DeadlineSet must be non-empty")
        values = tuple(float(t) for t in self.deadlines)
        if not all(math.isfinite(t) and t > 0 for t in values):
            raise ValueError("deadlines must be finite and > 0")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("deadlines must be strictly increasing")
        object.__setattr__(self, "deadlines", values)

    def __len__(self) -> int:
        return len(self.deadlines)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.deadlines, dtype=float)

    @property
    def largest(self) -> float:
        return self.deadlines[-1]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_completions(spec: CompletionSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` completion times, all strictly positive."""
    if isinstance(spec, Pareto):
        # inverse CDF on U in (0, 1]; 1 - random() avoids U = 0 -> inf
        u = 1.0 - rng.random(size)
        return spec.scale * u ** (-1.0 / spec.shape)
    if isinstance(spec, Exponential):
        return rng.exponential(1.0 / spec.rate, size)
    if isinstance(spec, Deterministic):
        return np.full(size, spec.value)
    if isinstance(spec, Empirical):
        pool = np.asarray(spec.samples)
        return pool[rng.integers(0, len(pool), size)]
    raise TypeError(f"unknown completion spec {spec!r}")


def base_rewards(spec: RewardSpec, completions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Latent (uncensored) base rewards paired with the given completion times."""
    if isinstance(spec, PowerOfTime):
        return completions ** spec.exponent
    if isinstance(spec, Constant):
        return np.full(completions.shape, spec.value)
    if isinstance(spec, ScaledUniform):
        return rng.uniform(spec.lo, spec.hi, completions.shape)
    raise TypeError(f"unknown reward spec {spec!r}")


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def mean_completion(spec: CompletionSpec) -> float:
    """E[X]; may be inf for heavy-tailed Pareto with shape <= 1."""
    if isinstance(spec, Pareto):
        if spec.shape <= 1:
            return math.inf
        return spec.shape * spec.scale / (spec.shape - 1.0)
    if isinstance(spec, Exponential):
        return 1.0 / spec.rate
    if isinstance(spec, Deterministic):
        return spec.value
    if isinstance(spec, Empirical):
        return float(np.mean(spec.samples))
    raise TypeError(f"unknown completion spec {spec!r}")


def truncated_mean_time(spec: CompletionSpec, t: float) -> float:
    """E[min(X, t)] for deadline t > 0.

    Pareto(s, g), t >= s:  s + s**g * (s**(1-g) - t**(1-g)) / (g-1), and
    s + s*log(t/s) in the g = 1 limit; below the support minimum the task is
    always interrupted, so the value is t itself.
    """
    if not t > 0:
        raise ValueError(f"deadline must be > 0, got {t}")
    if isinstance(spec, Pareto):
        s, g = spec.scale, spec.shape
        if t <= s:
            return float(t)
        if g == 1.0:
            return s + s * math.log(t / s)
        return s + s ** g * (s ** (1.0 - g) - t ** (1.0 - g)) / (g - 1.0)
    if isinstance(spec, Exponential):
        return (1.0 - math.exp(-spec.rate * t)) / spec.rate
    if isinstance(spec, Deterministic):
        return min(spec.value, t)
    if isinstance(spec, Empirical):
        return float(np.mean(np.minimum(spec.samples, t)))
    raise TypeError(f"unknown completion spec {spec!r}")


def _mean_base_reward_independent(spec: RewardSpec) -> float:
    """E[base reward] for reward models independent of the completion time."""
    if isinstance(spec, Constant):
        return spec.value
    if isinstance(spec, ScaledUniform):
        return 0.5 * (spec.lo + spec.hi)
    raise TypeError(f"reward spec {spec!r} is coupled to the completion time")


def _completion_cdf(spec: CompletionSpec, t: float) -> float:
    if isinstance(spec, Pareto):
        return 0.0 if t <= spec.scale else 1.0 - (spec.scale / t) ** spec.shape
    if isinstance(spec, Exponential):
        return 1.0 - math.exp(-spec.rate * t)
    if isinstance(spec, Deterministic):
        return 1.0 if spec.value <= t else 0.0
    if isinstance(spec, Empirical):
        return float(np.mean(np.asarray(spec.samples) <= t))
    raise TypeError(f"unknown completion spec {spec!r}")


def expected_reward(group: GroupModel, t: float) -> float:
    """E[base_reward * 1{X <= t}], the mean reward collected under deadline t.

    Pareto(s, g) with PowerOfTime(b), t >= s:
        g * s**b / (g - b) * (1 - (t/s)**(b-g)),
    zero below the support minimum.  Rewards independent of X reduce to
    E[base reward] * P(X <= t).  Exponential completion with PowerOfTime uses
    QAGS adaptive quadrature on [0, min(t, EXP_UNDERFLOW / rate)], past
    which the integrand underflows to 0, at absolute tolerance QUAD_ABS_TOL,
    bit for bit what ``scipy.integrate.quad`` returns, and warns (UserWarning)
    when QUADPACK reports the tolerance may not be met.
    """
    if not t > 0:
        raise ValueError(f"deadline must be > 0, got {t}")
    completion, reward = group.completion, group.reward

    if isinstance(reward, (Constant, ScaledUniform)):
        return _mean_base_reward_independent(reward) * _completion_cdf(completion, t)

    # PowerOfTime from here on: base reward = X ** b.
    b = reward.exponent
    if isinstance(completion, Pareto):
        s, g = completion.scale, completion.shape
        if t <= s:
            return 0.0
        return g * s ** b / (g - b) * (1.0 - (t / s) ** (b - g))
    if isinstance(completion, Deterministic):
        v = completion.value
        return v ** b if v <= t else 0.0
    if isinstance(completion, Empirical):
        x = np.asarray(completion.samples)
        return float(np.mean(np.where(x <= t, x ** b, 0.0)))
    if isinstance(completion, Exponential):
        rate = completion.rate
        # exp(-rate x) is 0.0 past rate x = EXP_UNDERFLOW, and so is the
        # integrand; over a much longer [0, t] the rule's nodes miss the mass
        # near 0 and QUADPACK returns about 0 with ier 0
        value, abserr, ier = qags(
            lambda x: x ** b * rate * math.exp(-rate * x), 0.0, min(t, EXP_UNDERFLOW / rate), QUAD_ABS_TOL
        )
        if ier != 0:
            warnings.warn(
                f"QUADPACK ier={ier} for E[X**{b} 1{{X <= {t}}}] under Exponential({rate}): "
                f"estimated error {abserr:.3g} may exceed the tolerance",
                UserWarning, stacklevel=2,
            )
        return value
    raise TypeError(f"unknown completion spec {completion!r}")

