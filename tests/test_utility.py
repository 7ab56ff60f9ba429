import numpy as np
import pytest

from fairtime import RATE_FLOOR, UtilitySpec, inverse_marginal, marginal, total_utility, value


def test_spec_validation():
    with pytest.raises(ValueError):
        UtilitySpec(alpha=-0.5)
    with pytest.raises(ValueError):
        UtilitySpec(alpha=1.0, weight=0.0)
    # bool is a number, numpy's too, but True must not run as 1.0
    for alpha, weight, field in [(True, True, "alpha"), (np.True_, 1.0, "alpha"),
                                 (1.0, True, "weight"), (1.0, np.True_, "weight")]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            UtilitySpec(alpha=alpha, weight=weight)


@pytest.mark.parametrize(
    "alpha,w,x,expected",
    [
        (0.0, 2.0, 3.0, 6.0),
        (1.0, 1.0, 1.0, 0.0),
        (2.0, 1.0, 0.5, -2.0),
        (0.5, 2.0, 4.0, 8.0),     # 2 * 4**0.5 / 0.5
    ],
)
def test_value_cases(alpha, w, x, expected):
    assert value(UtilitySpec(alpha, w), x) == pytest.approx(expected)


@pytest.mark.parametrize(
    "alpha,w,x,expected",
    [
        (2.0, 1.0, 2.0, 0.25),
        (1.0, 3.0, 3.0, 1.0),
        (0.0, 5.0, 0.7, 5.0),
        (0.0, 5.0, 123.0, 5.0),
    ],
)
def test_marginal_cases(alpha, w, x, expected):
    assert marginal(UtilitySpec(alpha, w), x) == pytest.approx(expected)


@pytest.mark.parametrize(
    "alpha,w,y,expected",
    [
        (2.0, 1.0, 4.0, 0.5),
        (1.0, 1.0, 0.05, 20.0),
        (0.5, 1.0, 2.0, 0.25),    # x**-0.5 = 2  ->  x = 1/4
    ],
)
def test_inverse_marginal_cases(alpha, w, y, expected):
    assert inverse_marginal(UtilitySpec(alpha, w), y) == pytest.approx(expected)


def test_domain_errors():
    u1 = UtilitySpec(1.0)
    u2 = UtilitySpec(2.0)
    for u in (u1, u2):
        with pytest.raises(ValueError):
            value(u, 0.0)
        with pytest.raises(ValueError):
            marginal(u, -1.0)
        with pytest.raises(ValueError):
            inverse_marginal(u, 0.0)
    with pytest.raises(ValueError):
        inverse_marginal(UtilitySpec(0.0), 1.0)  # linear: no unique inverse
    with pytest.raises(ValueError):
        value(UtilitySpec(0.0), -1.0)
    # alpha = 0 admits x = 0
    assert value(UtilitySpec(0.0, 3.0), 0.0) == 0.0


def test_marginal_inverse_round_trip():
    r = np.random.default_rng(11)
    for _ in range(300):
        u = UtilitySpec(alpha=r.uniform(0.1, 5.0), weight=r.uniform(0.1, 10.0))
        y = 10.0 ** r.uniform(-3, 3)
        assert marginal(u, inverse_marginal(u, y)) == pytest.approx(y, rel=1e-10)


def test_marginal_decreasing():
    r = np.random.default_rng(12)
    for _ in range(200):
        u = UtilitySpec(alpha=r.uniform(0.05, 4.0), weight=r.uniform(0.1, 10.0))
        x1, x2 = np.sort(10.0 ** r.uniform(-2, 2, 2))
        assert marginal(u, x1) >= marginal(u, x2)


def test_marginal_matches_finite_difference():
    r = np.random.default_rng(13)
    h = 1e-5
    for _ in range(200):
        u = UtilitySpec(alpha=r.uniform(0.3, 3.0), weight=r.uniform(0.5, 2.0))
        x = r.uniform(0.1, 10.0)
        fd = (value(u, x + h) - value(u, x - h)) / (2 * h)
        assert fd == pytest.approx(marginal(u, x), rel=1e-5)


def test_total_utility_floors_starved_groups():
    us = [UtilitySpec(1.0), UtilitySpec(1.0)]
    v, floored = total_utility(us, [0.5, 0.0])
    assert floored
    assert v == pytest.approx(np.log(0.5) + np.log(RATE_FLOOR))
    v2, floored2 = total_utility(us, [0.5, 0.5])
    assert not floored2
    # linear utilities are fine at zero
    v3, floored3 = total_utility([UtilitySpec(0.0, 2.0)], [0.0])
    assert (v3, floored3) == (0.0, False)


def test_total_utility_length_mismatch():
    with pytest.raises(ValueError):
        total_utility([UtilitySpec(1.0)], [0.1, 0.2])
