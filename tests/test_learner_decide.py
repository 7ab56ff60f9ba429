"""Property test of the learner's decision.

``OnlineLearner.decide`` picks the group with the first maximum of
multiplier * best rate, then that group's first deadline whose score equals
it.  Rounding is monotone, so this must be exactly the first arg-max of the
flattened (group, deadline) score grid ``rates * multipliers[:, None]`` that
the reference below computes with numpy from the same samples, NaN first
when a product is not finite.

The grids stress the arg-max: K in 1..8 and L in 1..9; deadlines one ulp
apart, so that neighbouring rates differ by about an ulp; completions at a
deadline, one ulp past it, far beyond every deadline and at the smallest
subnormal (its rate overflows to inf); copied rows, so that two groups tie
exactly; queues at 0, the smallest subnormal, 1e300, one ulp from another
group's, or one value for every group; and the all-linear greedy mode, whose
multipliers are the utility weights.  A second test releases stages inside
and across the learner's fold pieces, so the full grid that ``decide``
falls back to is read at a stage that is not the last of its piece.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtime import DeadlineSet, LearnerParams, OnlineLearner, UtilitySpec

EDGE_QUEUES = (0.0, 5e-324, 1e300, 1.0)


@st.composite
def deadline_menus(draw):
    base = sorted(set(draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0, 4.0)), min_size=1, max_size=5))))
    menu = []
    for t in base:
        menu.append(t)
        if draw(st.booleans()):
            menu.append(float(np.nextafter(t, np.inf)))
    return menu[:9]


@st.composite
def cases(draw):
    k = draw(st.integers(1, 8))
    menu = draw(deadline_menus())
    stages = draw(st.integers(1, 4))
    completion = st.one_of(
        st.sampled_from(menu),
        st.sampled_from([float(np.nextafter(t, np.inf)) for t in menu]),
        st.sampled_from((0.25, 9.0, 5e-324)),
        st.floats(0.1, 5.0),
    )
    reward = st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 3.0))
    x = [draw(st.lists(completion, min_size=stages, max_size=stages)) for _ in range(k)]
    r = [draw(st.lists(reward, min_size=stages, max_size=stages)) for _ in range(k)]
    for i in range(1, k):
        if draw(st.booleans()):  # an exact copy of an earlier group's samples
            j = draw(st.integers(0, i - 1))
            x[i], r[i] = list(x[j]), list(r[j])
    greedy = draw(st.booleans())
    multiplier = st.one_of(st.sampled_from(EDGE_QUEUES), st.floats(0.1, 100.0))
    if greedy:
        multiplier = st.one_of(st.sampled_from((1.0, 2.0)), st.floats(0.1, 5.0))
    if draw(st.booleans()):  # one multiplier for every group
        multipliers = [draw(multiplier)] * k
    else:
        multipliers = draw(st.lists(multiplier, min_size=k, max_size=k))
    for i in range(1, k):
        if draw(st.booleans()):  # one ulp from an earlier group's multiplier
            multipliers[i] = float(np.nextafter(multipliers[i - 1], draw(st.sampled_from((0.0, np.inf)))))
    if greedy:
        multipliers = [m if m > 0 else 1.0 for m in multipliers]
    return menu, np.array(x), np.array(r), greedy, multipliers


def reference_rates(menu, x, r):
    """The (K, L) rates after the (K, C) stages, summed one stage at a time."""
    t = np.asarray(menu)
    x3, r3 = x.T[:, :, None], r.T[:, :, None]
    busy = np.minimum(x3, t).cumsum(axis=0)[-1]
    reward = np.where(x3 <= t, r3, 0.0).cumsum(axis=0)[-1]
    return reward / busy


def reference_decision(menu, x, r, multipliers):
    scores = reference_rates(menu, x, r) * np.asarray(multipliers)[:, None]
    k, l = divmod(int(scores.argmax()), len(menu))
    return k, menu[l]


def takes_fallback(rates, multipliers):
    """Whether decide needs the full score grid: a product of a multiplier
    and a best rate is not finite, or the top group's largest lesser rate
    scores the top product too."""
    m = np.asarray(multipliers)
    best = rates.max(axis=1)
    products = m * best
    if not np.isfinite(products.sum()):
        return True
    k = int(products.argmax())
    lesser = rates[k][rates[k] < best[k]]
    return lesser.size > 0 and m[k] * lesser.max() == products[k]


@settings(max_examples=300, deadline=None, database=None)
@given(cases())
def test_decide_is_first_argmax_of_flattened_scores(case):
    menu, x, r, greedy, multipliers = case
    k, stages = x.shape
    if greedy:
        utilities = [UtilitySpec(0.0, w) for w in multipliers]
    else:
        utilities = [UtilitySpec(1.0, 1.0) for _ in range(k)]
    # the delay makes the first task past the cold start, max(delay, k) + 1,
    # use exactly the given stages
    delay = max(1, k - stages + 1)
    lr = OnlineLearner(utilities, DeadlineSet(menu), LearnerParams(v=1.0, delay=delay))
    lr.ingest_feedback(x, r)
    # past the cold start with every stage released; zero time and reward
    # leave the queues alone
    for _ in range(max(stages, k)):
        lr.update_queues(0, 0.0, 0.0)
    if not greedy:
        lr.queues = multipliers
    with np.errstate(all="ignore"):
        got = lr.decide()
        want = reference_decision(menu, x, r, multipliers)
    assert lr.released_samples == stages
    assert got == want



@pytest.mark.parametrize("seed", range(4))
def test_decide_at_stages_inside_and_across_fold_pieces(seed):
    # at K = 8 and 9 deadlines the learner folds pieces of fewer than 150
    # stages, so 316 stages in two blocks (256 + 60) fold as four or more.
    # Decisions released inside the first piece, at its last stage, at the
    # first of the second and at stage 300 (inside a later piece) must match
    # the reference over the released prefix.  Deadlines one ulp apart,
    # completions at and one ulp past them, inf and the smallest subnormal.
    # At queues of 5e-324 the products round to a few subnormals, so a
    # lesser rate often ties the top score and decide takes its fallback; an
    # inf queue makes a product inf, which always takes it
    rng = np.random.default_rng(seed)
    base = (0.5, 1.0, 2.0, 4.0)
    menu = sorted([*base, *(float(np.nextafter(t, np.inf)) for t in base), 3.0])
    k, stages = 8, 316
    values = menu + [float(np.nextafter(t, np.inf)) for t in menu] + [np.inf, 5e-324, 0.25, 9.0]
    x = rng.choice(values, size=(k, stages))
    r = rng.choice([0.0, 1.0, 2.0, 0.75], size=(k, stages)) * rng.uniform(2.5, 3.5, size=(k, 1))
    utilities = [UtilitySpec(1.0, 1.0)] * k
    lr = OnlineLearner(utilities, DeadlineSet(menu), LearnerParams(v=1.0, target_rate_cap=1.0))
    lr.ingest_feedback(x[:, :256], r[:, :256])
    lr.ingest_feedback(x[:, 256:], r[:, 256:])
    piece = lr._piece
    assert piece < 150
    fallbacks = []
    for released in (piece // 2, piece, piece + 1, 300):
        for multipliers in ([5e-324] * k, [0.0, np.inf] + [1.0] * (k - 2),
                            [1.0, float(np.nextafter(1.0, 0.0))] * (k // 2)):
            lr.queues = [1.0] * k  # zero time and reward leave unit queues alone
            while lr.tasks_done < released:
                lr.update_queues(0, 0.0, 0.0)
            lr.queues = multipliers
            with np.errstate(all="ignore"):
                got = lr.decide()
                want = reference_decision(menu, x[:, :released], r[:, :released], multipliers)
                fallbacks.append(takes_fallback(reference_rates(menu, x[:, :released], r[:, :released]),
                                                multipliers))
            assert lr.released_samples == released
            assert got == want
    # the inf queue always takes the fallback, the subnormal queues at least once
    assert fallbacks[1::3] == [True] * 4 and any(fallbacks[0::3])
