"""The QAGS port against ``scipy.integrate.quad``, its reference.

Value, error estimate and QUADPACK's ``ier`` must agree exactly: floats are
compared as ``float.hex`` strings, so that neither -0.0 nor NaN can hide a
difference.  ``quad`` reports ``ier`` only through the message it returns
with ``full_output``, which the map below reads back.
"""

import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fairtime import Exponential, GroupModel, PowerOfTime, expected_reward
from fairtime import distributions, quadrature
from fairtime.config import parse_config
from fairtime.distributions import QUAD_ABS_TOL
from fairtime.quadrature import qags
from helpers import DEADLINE_GRID, FAMILY_GROUPS

REGRET_WORKLOAD = Path(__file__).parent.parent / "perfbench" / "workloads" / "regret_k8_delay3.json"

QUAD_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def scipy_qags(f, a, b, epsabs):
    out = integrate.quad(f, a, b, epsabs=epsabs, full_output=1)
    ier = 0
    if len(out) > 3:
        [ier] = [k for k, prefix in QUAD_MESSAGES.items() if out[3].startswith(prefix)]
    return out[0], out[1], ier


def as_bytes(value, abserr, ier):
    return value.hex(), abserr.hex(), ier


def assert_matches_quad(f, a, b, epsabs=QUAD_ABS_TOL):
    expected = scipy_qags(f, a, b, epsabs)
    assert as_bytes(*qags(f, a, b, epsabs)) == as_bytes(*expected)
    return expected


def exp_pow_integrand(rate, b):
    # the integrand expected_reward hands to qags
    return lambda x: x ** b * rate * math.exp(-rate * x)


def exp_pow_groups():
    workload = parse_config(str(REGRET_WORKLOAD)).groups
    groups = [g for g, _ in FAMILY_GROUPS] + list(workload)
    found = [g for g in groups
             if isinstance(g.completion, Exponential) and isinstance(g.reward, PowerOfTime)]
    assert {g.label for g in found} == {"exp_pow"} and len(found) == 2
    return found


@pytest.mark.parametrize("group", exp_pow_groups(), ids=["family_groups", "regret_k8_delay3"])
def test_exp_pow_groups_match_quad_over_deadline_grid(group):
    rate, b = group.completion.rate, group.reward.exponent
    for t in DEADLINE_GRID:
        value, _, ier = assert_matches_quad(exp_pow_integrand(rate, b), 0.0, t)
        assert ier == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_reward(group, t).hex() == value.hex()


@settings(max_examples=400, deadline=None, database=None)
@given(
    log_rate=st.floats(-3.0, 2.0),
    b=st.floats(0.0, 4.0),
    log_t=st.floats(-3.0, 4.0),
)
def test_exp_pow_sweep_matches_quad(log_rate, b, log_t):
    assert_matches_quad(exp_pow_integrand(10.0 ** log_rate, b), 0.0, 10.0 ** log_t)


HARD_INTEGRANDS = {
    # name: (f, a, b, epsabs, ier, runs the epsilon extrapolation)
    "inv_x": (lambda x: 1.0 / x, 0.0, 1.0, QUAD_ABS_TOL, 1, True),
    "sin500": (lambda x: math.sin(500.0 * x) * x, 0.0, 30.0, QUAD_ABS_TOL, 1, True),
    "odd_sin": (lambda x: math.sin(x), -1.0, 1.0, 1e-15, 2, False),
    "sign": (lambda x: 1.0 if x > 0.5 else -1.0, 0.0, 1.0, 1e-14, 2, True),
    "abs_pole": (lambda x: abs(x - 1.0 / 3.0) ** -1.0, 0.0, 1.0, QUAD_ABS_TOL, 3, True),
    "abs_pow_-0.99": (lambda x: abs(x - 0.7) ** -0.99, 0.0, 10.0, QUAD_ABS_TOL, 4, True),
    "sinc_1e4": (lambda x: math.sin(x) / x, 0.0, 1e4, QUAD_ABS_TOL, 5, True),
    "pow_-1.2": (lambda x: x ** -1.2, 0.0, 1.0, QUAD_ABS_TOL, 5, True),
    "pow_-0.5": (lambda x: x ** -0.5, 0.0, 1.0, 1e-15, 0, True),
    "log": (lambda x: math.log(x), 0.0, 1.0, QUAD_ABS_TOL, 0, True),
    "log_pow": (lambda x: math.log(x) * x ** -0.9, 0.0, 1.0, QUAD_ABS_TOL, 0, True),
    "abs_sqrt_pole": (lambda x: abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0, QUAD_ABS_TOL, 0, True),
    "step": (lambda x: 1.0 if x > 1.0 / 3.0 else 0.0, 0.0, 1.0, QUAD_ABS_TOL, 0, True),
    "zero": (lambda x: 0.0, 0.0, 1.0, QUAD_ABS_TOL, 0, False),
    # _dqpsrt moves a raised error up past nrmax
    "cos_pow_2.879": (lambda x: abs(x) ** 2.879 * math.cos(138.211 * x), -1.324, 4.073, 1e-14, 1, True),
    # the roundoff counters, the erlarg update and the final error adjustment
    "cos_pow_-0.888": (lambda x: abs(x) ** -0.888 * math.cos(3.794 * x), -0.095, 12.065, 1e-8, 2, True),
}


@pytest.mark.parametrize("name", HARD_INTEGRANDS)
def test_hard_integrands_match_quad(name, monkeypatch):
    f, a, b, epsabs, ier, extrapolates = HARD_INTEGRANDS[name]
    calls = []
    dqelg = quadrature._dqelg
    monkeypatch.setattr(quadrature, "_dqelg", lambda *args: calls.append(1) or dqelg(*args))
    assert assert_matches_quad(f, a, b, epsabs)[2] == ier
    assert bool(calls) == extrapolates


@pytest.mark.parametrize("ier", range(6))
def test_expected_reward_warns_exactly_when_ier_nonzero(ier, monkeypatch):
    group = GroupModel(Exponential(0.5), PowerOfTime(0.8))
    value = qags(exp_pow_integrand(0.5, 0.8), 0.0, 4.0, QUAD_ABS_TOL)[0]
    monkeypatch.setattr(distributions, "qags", lambda f, a, b, epsabs: (value, 1e-3, ier))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert expected_reward(group, 4.0) == value
    assert [type(w.message) for w in caught] == ([UserWarning] if ier else [])
    if ier:
        assert f"ier={ier}" in str(caught[0].message)
        assert caught[0].filename == __file__  # points at expected_reward's caller
