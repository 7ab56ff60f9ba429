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
multipliers are the utility weights.
"""

import numpy as np
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


def reference_decision(menu, x, r, multipliers):
    t = np.asarray(menu)
    x3, r3 = x.T[:, :, None], r.T[:, :, None]
    busy = np.minimum(x3, t).cumsum(axis=0)[-1]
    reward = np.where(x3 <= t, r3, 0.0).cumsum(axis=0)[-1]
    scores = reward / busy * np.asarray(multipliers)[:, None]
    k, l = divmod(int(scores.argmax()), len(menu))
    return k, menu[l]


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
    lr.ingest_feedback(1, x, r)
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
