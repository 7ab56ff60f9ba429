"""Property test of the learner's dual step.

``OnlineLearner.step`` computes the target rates of the pre-update queues,
applies the dual update with them and returns them as a list of floats; it
runs under the caller's errstate, while the public ``target_rates`` and
``update_queues`` enter their own.  The reference below is the target
formula and the dual update as separate numpy functions; the step's targets
(as a float64 array) and queues, and the public calls, must match it bit
for bit on K in 1..8, every alpha in {0, 0.5, 1, 2} and mixed alphas,
queues at 0, the smallest subnormal, 1e-300 and 1e300, fixed and empirical
caps, and the all-linear greedy mode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtime import DeadlineSet, LearnerParams, OnlineLearner, UtilitySpec

GRID = (1.0, 2.0, 4.0)
ALPHAS = (0.0, 0.5, 1.0, 2.0)
EDGE_QUEUES = (0.0, 5e-324, 1e-300, 1e300)


def reference_targets(alphas, weights, v, queues, caps):
    alphas = np.asarray(alphas, dtype=float)
    wv = np.asarray(weights, dtype=float) * v
    linear = alphas == 0.0
    if linear.all():
        return np.zeros(len(alphas))
    inv_alpha = np.where(alphas > 0, 1.0 / np.maximum(alphas, 1e-300), 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        raw = (wv / queues) ** inv_alpha
    rates = np.minimum(raw, caps)
    if linear.any():
        rates = np.where(linear, caps * (queues < wv), rates)
    return rates


def reference_update(queues, chosen, elapsed, reward, targets):
    updated = queues + targets * elapsed
    updated[chosen] -= reward
    return np.maximum(updated, 0.0)


def reference_empirical_caps(x, r):
    # one released stage: the best reward / busy-time ratio over the grid
    t = np.asarray(GRID)
    return ((r[:, None] * (x[:, None] <= t)) / np.minimum(x[:, None], t)).max(axis=1)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 8))
    mixed = draw(st.booleans())
    alphas = (draw(st.lists(st.sampled_from(ALPHAS), min_size=k, max_size=k)) if mixed
              else [draw(st.sampled_from(ALPHAS))] * k)
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k))
    v = draw(st.floats(0.1, 100.0))
    queue = st.one_of(st.sampled_from(EDGE_QUEUES), st.floats(0.0, 100.0))
    queues = np.array(draw(st.lists(queue, min_size=k, max_size=k)))
    cap = draw(st.one_of(st.none(), st.floats(0.01, 10.0)))
    # completions past the largest deadline (4) leave a group's empirical cap at 0
    x = np.array(draw(st.lists(st.floats(1e-3, 5.0), min_size=k, max_size=k)))
    r = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)))
    chosen = draw(st.integers(0, k - 1))
    elapsed = draw(st.floats(0.0, 20.0))
    reward = draw(st.floats(0.0, 20.0))
    return alphas, weights, v, queues, cap, x, r, chosen, elapsed, reward


@settings(max_examples=300, deadline=None, database=None)
@given(cases())
def test_fused_step_matches_reference_bitwise(case):
    alphas, weights, v, queues, cap, x, r, chosen, elapsed, reward = case
    utilities = [UtilitySpec(a, w) for a, w in zip(alphas, weights)]
    lr = OnlineLearner(utilities, DeadlineSet(GRID), LearnerParams(v=v, target_rate_cap=cap))
    # release one stage of feedback so an empirical cap comes from data
    lr.ingest_feedback(x[:, None], r[:, None])
    lr.update_queues(0, 0.0, 0.0)
    lr.decide()
    caps = np.full(len(alphas), cap) if cap is not None else reference_empirical_caps(x, r)
    want_targets = reference_targets(alphas, weights, v, queues, caps)
    want_queues = reference_update(queues, chosen, elapsed, reward, want_targets)

    lr.queues = queues.copy()
    with np.errstate(divide="ignore", over="ignore"):
        targets = lr.step(chosen, elapsed, reward)
        kept = list(targets)
        lr.step(chosen, elapsed, reward)
    assert np.array(targets).tobytes() == want_targets.tobytes()
    # the returned targets are the caller's: a later step leaves them alone
    assert np.array(targets).tobytes() == np.array(kept).tobytes()

    # the public calls, which enter their own errstate
    lr.queues = queues.copy()
    assert lr.target_rates().tobytes() == want_targets.tobytes()
    lr.update_queues(chosen, elapsed, reward)
    assert lr.queues.tobytes() == want_queues.tobytes()

    lr.queues = queues.copy()
    with np.errstate(divide="ignore", over="ignore"):
        lr.step(chosen, elapsed, reward)
    assert lr.queues.tobytes() == want_queues.tobytes()
