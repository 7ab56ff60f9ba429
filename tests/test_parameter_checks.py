"""Every numeric parameter of the model passes one of two checks where it
enters: ``check_number`` (finite, > 0 or >= 0, not a bool) or
``check_integer`` (an int or numpy integer at or above a minimum, not a
bool).  Each site rejects a string, None, a complex, both bools, NaN, an
infinity and an out-of-range value with a ``ValueError`` that names the
parameter."""

import math
import re

import numpy as np
import pytest

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    LearnerParams,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    SrpPolicy,
    UtilitySpec,
    monte_carlo,
    regret_curve,
    run_episode,
)
from fairtime.distributions import check_integer, check_number
from fairtime.sim import check_budget_grid
from helpers import two_group_env, uniform_utilities

GRID = [10, 40, 160, 640]


def _episode(budget=100.0, seed=0):
    groups, deadlines = two_group_env()
    return run_episode(groups, deadlines, uniform_utilities(1.0), SrpPolicy((0.5, 0.5), (7.0, 4.0)), budget, seed)


def _monte_carlo(trials=2, seed=0):
    groups, deadlines = two_group_env()
    return monte_carlo(groups, deadlines, uniform_utilities(1.0), SrpPolicy((0.5, 0.5), (7.0, 4.0)), 50.0,
                       trials, seed)


def _regret_curve(trials=2, seed=0):
    groups, deadlines = two_group_env()
    return regret_curve(groups, deadlines, uniform_utilities(1.0), GRID, trials, seed)


# (name, strict, site): the site gets the value as its one bad argument
NUMBER_SITES = [
    ("Pareto scale", True, lambda v: Pareto(v, 2.0)),
    ("Pareto shape", True, lambda v: Pareto(1.0, v)),
    ("Exponential rate", True, Exponential),
    ("Deterministic value", True, Deterministic),
    ("Empirical sample", True, lambda v: Empirical((1.0, v))),
    ("PowerOfTime exponent", False, PowerOfTime),
    ("Constant reward", False, Constant),
    ("ScaledUniform lo", False, lambda v: ScaledUniform(v, 2.0)),
    ("ScaledUniform hi", False, lambda v: ScaledUniform(0.0, v)),
    ("deadline", True, lambda v: DeadlineSet((1.0, v))),
    ("alpha", False, UtilitySpec),
    ("weight", True, lambda v: UtilitySpec(1.0, v)),
    ("v", True, LearnerParams),
    ("target_rate_cap", True, lambda v: LearnerParams(1.0, target_rate_cap=v)),
    ("selection probability", False, lambda v: SrpPolicy((v, 1.0), (1.0, 2.0))),
    ("policy deadline", True, lambda v: SrpPolicy((0.5, 0.5), (1.0, v))),
    ("budget", True, lambda v: _episode(budget=v)),
    ("budget grid value", True, lambda v: check_budget_grid([10, 40, 160, v])),
]
# (name, minimum, site)
INTEGER_SITES = [
    ("delay", 1, lambda v: LearnerParams(1.0, delay=v)),
    ("seed", 0, lambda v: _episode(seed=v)),
    ("seed", 0, lambda v: _monte_carlo(seed=v)),
    ("seed", 0, lambda v: _regret_curve(seed=v)),
    ("trials", 2, lambda v: _monte_carlo(trials=v)),
    ("trials", 2, lambda v: _regret_curve(trials=v)),
]
INTEGER_SITE_IDS = ["delay", "run_episode_seed", "monte_carlo_seed", "regret_curve_seed", "monte_carlo_trials",
                    "regret_curve_trials"]
BAD = {"str": "1", "none": None, "complex": 1 + 0j, "bool": True, "numpy_bool": np.True_, "nan": math.nan,
       "inf": math.inf}


@pytest.mark.parametrize("name, strict, site, bad", [
    pytest.param(name, strict, site, bad, id=f"{name.replace(' ', '_')}-{bad}")
    for name, strict, site in NUMBER_SITES for bad in [*BAD, "out_of_range"]
    if (name, bad) != ("target_rate_cap", "none")  # None asks for the empirical cap
])
def test_number_sites_reject_what_check_number_rejects(name, strict, site, bad):
    value = BAD.get(bad, -1.0)
    shown = repr(value) if isinstance(value, str) else value  # got '1': the type, not the value, is wrong
    message = f"{name} must be finite and {'>' if strict else '>='} 0, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        site(value)


@pytest.mark.parametrize("bad", [*BAD, "out_of_range"])
@pytest.mark.parametrize("name, minimum, site", INTEGER_SITES, ids=INTEGER_SITE_IDS)
def test_integer_sites_reject_what_check_integer_rejects(name, minimum, site, bad):
    value = BAD.get(bad, minimum - 1)
    message = f"{name} must be an integer >= {minimum}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        site(value)


@pytest.mark.parametrize("value", [0.0, 2, np.float64(0.5), np.int32(3), 1e308])
def test_check_number_returns_the_value_as_a_float(value):
    assert check_number(value, "x", strict=False) == float(value)
    assert type(check_number(value, "x", strict=False)) is float
    if value:
        assert check_number(value, "x") == float(value)


def test_check_number_rejects_an_int_no_float_holds():
    with pytest.raises(ValueError, match="^x must be finite and > 0, got 1000"):
        check_number(10 ** 400, "x")


@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(7), 10 ** 30])
def test_check_integer_returns_an_int(value):
    assert check_integer(value, "n", 2) == value
    assert type(check_integer(value, "n", 2)) is int
