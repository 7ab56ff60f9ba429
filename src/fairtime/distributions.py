"""Group task models: completion-time distributions, reward models, and their
censored moments.

A task assigned to a group runs for a random completion time X and carries a
latent base reward.  Under a deadline t the controller only collects the base
reward when X <= t, and the task occupies the server for min(X, t) time units.
The two moments that drive every policy in this package are therefore

    truncated mean time   E[min(X, t)]
    expected reward       E[base_reward * 1{X <= t}]

Each family's class holds its sampler and closed forms; the functions are
the interface.  Both moments are closed forms except for Exponential
completion with a power-of-time reward, which uses adaptive quadrature at
absolute tolerance ``QUAD_ABS_TOL``: the in-tree QAGS port of ``quadrature``,
which returns the same doubles as ``scipy.integrate.quad`` without scipy.
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
        # bool is a number, but True would run as 1.0 (here and in each type below)
        if isinstance(self.scale, (bool, np.bool_)) or not 0 < self.scale < math.inf:
            raise ValueError(f"Pareto scale must be finite and > 0, got {self.scale}")
        if isinstance(self.shape, (bool, np.bool_)) or not 0 < self.shape < math.inf:
            raise ValueError(f"Pareto shape must be finite and > 0, got {self.shape}")

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # inverse CDF on U in (0, 1]; 1 - random() avoids U = 0 -> inf
        u = 1.0 - rng.random(size)
        return self.scale * u ** (-1.0 / self.shape)

    def _mean(self) -> float:
        if self.shape <= 1:
            return math.inf
        return self.shape * self.scale / (self.shape - 1.0)

    def _truncated_mean(self, t: float) -> float:
        s, g = self.scale, self.shape
        # below the support minimum every task is interrupted at t
        if t <= s:
            return float(t)
        if g == 1.0:
            return s + s * math.log(t / s)
        return s + s ** g * (s ** (1.0 - g) - t ** (1.0 - g)) / (g - 1.0)

    def _cdf(self, t: float) -> float:
        return 0.0 if t <= self.scale else 1.0 - (self.scale / t) ** self.shape

    def _power_moment(self, b: float, t: float) -> float:
        s, g = self.scale, self.shape
        if t <= s:
            return 0.0
        return g * s ** b / (g - b) * (1.0 - (t / s) ** (b - g))


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if isinstance(self.rate, (bool, np.bool_)) or not 0 < self.rate < math.inf:
            raise ValueError(f"Exponential rate must be finite and > 0, got {self.rate}")

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def _mean(self) -> float:
        return 1.0 / self.rate

    def _truncated_mean(self, t: float) -> float:
        return (1.0 - math.exp(-self.rate * t)) / self.rate

    def _cdf(self, t: float) -> float:
        return 1.0 - math.exp(-self.rate * t)

    def _power_moment(self, b: float, t: float) -> float:
        """QAGS on [0, min(t, EXP_UNDERFLOW / rate)], bit for bit what
        ``scipy.integrate.quad`` returns; warns at ``expected_reward``'s caller
        (stacklevel 4, through ``PowerOfTime._expected``) when QUADPACK's ier
        says the tolerance may not be met."""
        rate = self.rate
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
                UserWarning, stacklevel=4,
            )
        return value


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if isinstance(self.value, (bool, np.bool_)) or not 0 < self.value < math.inf:
            raise ValueError(f"Deterministic value must be finite and > 0, got {self.value}")

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def _mean(self) -> float:
        return self.value

    def _truncated_mean(self, t: float) -> float:
        return min(self.value, t)

    def _cdf(self, t: float) -> float:
        return 1.0 if self.value <= t else 0.0

    def _power_moment(self, b: float, t: float) -> float:
        return self.value ** b if self.value <= t else 0.0


@dataclass(frozen=True)
class Empirical:
    """Resamples uniformly from an observed set of completion times."""

    samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("Empirical needs at least one sample")
        if not all(not isinstance(x, (bool, np.bool_)) and 0 < x < math.inf for x in self.samples):
            raise ValueError("Empirical samples must all be finite and > 0")
        object.__setattr__(self, "samples", tuple(float(x) for x in self.samples))

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        pool = np.asarray(self.samples)
        return pool[rng.integers(0, len(pool), size)]

    def _mean(self) -> float:
        return float(np.mean(self.samples))

    def _truncated_mean(self, t: float) -> float:
        return float(np.mean(np.minimum(self.samples, t)))

    def _cdf(self, t: float) -> float:
        return float(np.mean(np.asarray(self.samples) <= t))

    def _power_moment(self, b: float, t: float) -> float:
        x = np.asarray(self.samples)
        return float(np.mean(np.where(x <= t, x ** b, 0.0)))


CompletionSpec = Union[Pareto, Exponential, Deterministic, Empirical]


# ---------------------------------------------------------------------------
# reward models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerOfTime:
    """Base reward coupled to the completion time as X**exponent."""

    exponent: float

    def __post_init__(self):
        if isinstance(self.exponent, (bool, np.bool_)) or not 0 <= self.exponent < math.inf:
            raise ValueError(f"PowerOfTime exponent must be finite and >= 0, got {self.exponent}")

    def _draw(self, completions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return completions ** self.exponent

    def _expected(self, completion: CompletionSpec, t: float) -> float:
        return completion._power_moment(self.exponent, t)


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        if isinstance(self.value, (bool, np.bool_)) or not 0 <= self.value < math.inf:
            raise ValueError(f"Constant reward must be finite and >= 0, got {self.value}")

    def _draw(self, completions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full(completions.shape, self.value)

    def _expected(self, completion: CompletionSpec, t: float) -> float:
        return self.value * completion._cdf(t)


@dataclass(frozen=True)
class ScaledUniform:
    """Base reward drawn uniformly from [lo, hi], independent of the completion time."""

    lo: float
    hi: float

    def __post_init__(self):
        if isinstance(self.lo, (bool, np.bool_)) or isinstance(self.hi, (bool, np.bool_)) \
                or not 0 <= self.lo <= self.hi < math.inf:
            raise ValueError(f"ScaledUniform needs 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def _draw(self, completions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, completions.shape)

    def _expected(self, completion: CompletionSpec, t: float) -> float:
        return 0.5 * (self.lo + self.hi) * completion._cdf(t)


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
        if not all(not isinstance(t, (bool, np.bool_)) and math.isfinite(t) and t > 0
                   for t in self.deadlines):
            raise ValueError("deadlines must be finite and > 0")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("deadlines must be strictly increasing")
        object.__setattr__(self, "deadlines", values)

    def __len__(self) -> int:
        return len(self.deadlines)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.deadlines, dtype=float)


# ---------------------------------------------------------------------------
# sampling and censored moments
# ---------------------------------------------------------------------------

def sample_completions(spec: CompletionSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` completion times, all strictly positive."""
    return spec._sample(rng, size)


def base_rewards(spec: RewardSpec, completions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Latent (uncensored) base rewards paired with the given completion times."""
    return spec._draw(completions, rng)


def draws_concatenate(group: GroupModel) -> bool:
    """Whether one ``sample_completions`` + ``base_rewards`` call for m + n
    stages gives the same numbers, and leaves the stream in the same state,
    as a call for m stages followed by one for n.

    No sampler keeps a per-call buffer: ``random``, ``exponential`` and
    ``uniform`` consume whole 64-bit words, and ``integers`` (Empirical) takes
    32-bit half-words through the bit generator, which holds a spare half for
    its next call.  So the calls concatenate unless both samplers draw: a
    ScaledUniform reward drawn after drawn completions interleaves the two.
    """
    completions_draw = not isinstance(group.completion, Deterministic)
    return not (completions_draw and isinstance(group.reward, ScaledUniform))


def mean_completion(spec: CompletionSpec) -> float:
    """E[X]; may be inf for heavy-tailed Pareto with shape <= 1."""
    return spec._mean()


def truncated_mean_time(spec: CompletionSpec, t: float) -> float:
    """E[min(X, t)] for deadline t > 0."""
    if not t > 0:
        raise ValueError(f"deadline must be > 0, got {t}")
    return spec._truncated_mean(t)


def expected_reward(group: GroupModel, t: float) -> float:
    """E[base_reward * 1{X <= t}], the mean reward collected under deadline t;
    warns (UserWarning) when QUADPACK reports that the quadrature for
    Exponential completion with X**b rewards may miss its tolerance."""
    if not t > 0:
        raise ValueError(f"deadline must be > 0, got {t}")
    return group.reward._expected(group.completion, t)
