"""Shared fixtures: the two-group Pareto environment and its exact moments.

The frozen constants below were computed independently with 30-digit
arithmetic from the closed forms
    E[min(X,t)]        = s + s**g (s**(1-g) - t**(1-g)) / (g-1)
    E[X**b 1{X<=t}]    = g s**b / (g-b) * (1 - (t/s)**(b-g))
for Pareto(scale s, shape g) completion and X**b rewards.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from fairtime import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    GroupModel,
    LearnerParams,
    Pareto,
    PowerOfTime,
    ScaledUniform,
    SrpPolicy,
    UtilitySpec,
    run_episode,
)

DEADLINE_GRID = (1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0)


def numpy_streams(seed, n):
    """Substreams (seed, 0) .. (seed, n - 1) seeded by numpy's own
    SeedSequence, the reference for the generators of ``sim._trial_streams``."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))) for k in range(n)]


def two_group_env():
    groups = [
        GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "group1"),
        GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2), "group2"),
    ]
    return groups, DeadlineSet(DEADLINE_GRID)


# one group of every completion and reward family, with unequal weights;
# the frozen episode digests take the first k of these
FAMILY_GROUPS = [
    (GroupModel(Pareto(1.0, 1.2), PowerOfTime(0.6), "pareto_pow"), 1.0),
    (GroupModel(Pareto(1.0, 1.4), PowerOfTime(0.2), "pareto_pow_light"), 2.0),
    (GroupModel(Exponential(0.5), PowerOfTime(0.8), "exp_pow"), 1.5),
    (GroupModel(Exponential(1.0), Constant(1.0), "exp_const"), 0.5),
    (GroupModel(Deterministic(3.0), ScaledUniform(0.5, 1.5), "det_uniform"), 1.0),
    (GroupModel(Empirical((0.5, 1.0, 2.0, 4.0, 8.0, 16.0)), PowerOfTime(0.5), "emp_pow"), 0.75),
    (GroupModel(Pareto(2.0, 2.5), ScaledUniform(0.0, 2.0), "pareto_uniform"), 1.25),
    (GroupModel(Exponential(0.25), ScaledUniform(1.0, 3.0), "exp_uniform"), 0.8),
]


# random environments and policies for run_episode: every completion and
# reward family, 1 to 8 groups with unequal weights, mixed alphas including
# 0, delays 1 to 5, a fixed or empirical target cap, budgets from below one
# task to about 300, SRP policies on the deadline menu, truncate_last on and off
positive = st.floats(0.1, 5.0)
completions = st.one_of(
    st.builds(Pareto, st.floats(0.2, 3.0), st.floats(1.05, 3.0)),
    st.builds(Exponential, st.floats(0.1, 3.0)),
    st.builds(Deterministic, st.one_of(positive, st.sampled_from(DEADLINE_GRID))),  # exactly at a deadline too
    st.builds(Empirical, st.lists(st.floats(0.05, 25.0), min_size=1, max_size=6).map(tuple)),
)
rewards = st.one_of(
    st.builds(PowerOfTime, st.floats(0.0, 1.0)),
    st.builds(Constant, st.floats(0.0, 2.0)),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(lambda b: ScaledUniform(*sorted(b))),
)


@st.composite
def episodes(draw):
    """(groups, deadline set, utilities, policy, budget, truncate_last)."""
    k = draw(st.integers(1, 8))
    groups = [GroupModel(draw(completions), draw(rewards), f"g{i}") for i in range(k)]
    # a menu of one to all the grid's deadlines; a menu below a Pareto scale earns nothing
    menu = sorted(draw(st.sets(st.sampled_from(DEADLINE_GRID), min_size=1)))
    utilities = [UtilitySpec(draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))), draw(positive)) for _ in range(k)]
    if draw(st.booleans()):
        mass = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        if sum(mass) == 0:
            mass = [1.0] * k
        selection = tuple(m / sum(mass) for m in mass)
        policy = SrpPolicy(selection, tuple(draw(st.sampled_from(menu)) for _ in range(k)))
    else:
        policy = LearnerParams(v=draw(st.floats(0.5, 50.0)), delay=draw(st.integers(1, 5)),
                               target_rate_cap=draw(st.sampled_from((None, 0.8))))
    budget = draw(st.floats(0.01, 300.0))
    return groups, DeadlineSet(tuple(menu)), utilities, policy, budget, draw(st.booleans())


MIXED_ALPHAS = (2.0, 0.0, 1.0, 0.5)


def family_online_case(k, alpha, delay, cap):
    """The first k FAMILY_GROUPS, their utilities (their weights at alpha, one
    value or "mixed": MIXED_ALPHAS in turn) and the learner at v = 5 with the
    given delay and target-rate cap, as the frozen online digests run them."""
    alphas = [MIXED_ALPHAS[i % 4] if alpha == "mixed" else alpha for i in range(k)]
    utilities = [UtilitySpec(a, w) for a, (_, w) in zip(alphas, FAMILY_GROUPS)]
    policy = LearnerParams(v=5.0, delay=delay, target_rate_cap=cap)
    return [g for g, _ in FAMILY_GROUPS[:k]], utilities, policy


def family_episode(k, alpha, delay, cap, seed, budget):
    """One online episode of ``family_online_case``, as the frozen digests run
    it: seed 0 traces every task, seed 1 drops the crossing task."""
    groups, utilities, policy = family_online_case(k, alpha, delay, cap)
    return run_episode(
        groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, seed,
        truncate_last=seed == 1, collect_trace=seed == 0,
    )


def srp_selection(kind: str, k: int) -> tuple[float, ...]:
    """A uniform, a skewed, or a degenerate selection over k groups; the
    degenerate one puts all mass on the last group, so every other group's
    selection interval is empty."""
    if kind == "uniform":
        return (1.0 / k,) * k
    if kind == "skewed":
        w = [(i + 1) ** 2 for i in range(k)]
        return tuple(x / sum(w) for x in w)
    return (0.0,) * (k - 1) + (1.0,)


def family_srp_case(k, kind):
    """The first k FAMILY_GROUPS, their utilities (their weights at alpha 1)
    and the SRP policy with the given selection kind, as the frozen SRP
    digests run them."""
    groups = [g for g, _ in FAMILY_GROUPS[:k]]
    utilities = [UtilitySpec(1.0, w) for _, w in FAMILY_GROUPS[:k]]
    # deadlines 2, 7, 1.5, 5, 20, 4, 15, 3: spread over the menu, below and
    # above each family's typical completion
    deadlines = tuple(DEADLINE_GRID[(4 * i + 1) % len(DEADLINE_GRID)] for i in range(k))
    return groups, utilities, SrpPolicy(selection=srp_selection(kind, k), deadlines=deadlines)


def family_srp_episode(k, kind, truncate, seed, budget):
    """One SRP episode of ``family_srp_case(k, kind)``, as the frozen SRP
    digests run it."""
    groups, utilities, policy = family_srp_case(k, kind)
    return run_episode(groups, DeadlineSet(DEADLINE_GRID), utilities, policy, budget, seed, truncate_last=truncate)


def episode_digest(res) -> str:
    """sha256 of one ``run_episode`` result: the task count, the float64 bytes
    of the per-group totals, rates and shares, the utility, and every traced
    task with its queue and target vectors."""
    h = hashlib.sha256()
    h.update(np.int64(res.n_tasks).tobytes())
    for arr in (res.per_group_time, res.per_group_reward, res.reward_rates, res.time_shares):
        h.update(np.asarray(arr, dtype=np.float64).tobytes())
    h.update(np.float64(res.utility).tobytes() + bytes([res.floored]))
    for row in () if res.trace is None else res.trace:
        h.update(row[:2].astype(np.int64).tobytes())  # task, group
        h.update(row[2:].tobytes())  # deadline, elapsed, reward, queues, targets
    return h.hexdigest()


def uniform_utilities(alpha, k=2):
    return [UtilitySpec(alpha=alpha, weight=1.0) for _ in range(k)]


# group 1 = Pareto(1, 1.2) with X**0.6 rewards
MU1_AT_5 = 2.3761016816115224       # E[min(X, 5)]
TH1_AT_5 = 1.2385384245136486       # E[X**0.6 1{X<=5}]
T1_STAR = 7.0
R1_STAR = 0.52747695421614766
MU1_STAR = 2.6119454329975953
TH1_STAR = 1.3777410215763486

# group 2 = Pareto(1, 1.4) with X**0.2 rewards
TH2_AT_4 = 0.94562466738390027      # E[X**0.2 1{X<=4}]
T2_STAR = 4.0
R2_STAR = 0.45812328486220448
MU2_STAR = 2.0641270562537063
TH2_STAR = 0.94562466738390027

# optimal time shares and duals on the deadline grid above
PHI_ALPHA_HALF = (0.53518346820755478, 0.46481653179244522)
LAM_ALPHA_HALF = 0.9927740120885277
OPT_ALPHA_HALF = 1.9855480241770554
SEL_ALPHA_1 = (0.44142323734254153, 0.55857676265745847)
OPT_ALPHA_1 = -2.8065614145647446
PHI_ALPHA_2 = (0.48238643542273064, 0.51761356457726936)


def random_positive_instance(rng, k=None, alphas=(0.3, 0.5, 1.0, 2.0, 4.0)):
    """Synthetic per-group stats + utilities for solver cross-checks."""
    from fairtime import GroupStats

    k = k if k is not None else int(rng.integers(2, 6))
    alpha = float(rng.choice(alphas))
    stats = [
        GroupStats(
            group=i,
            label=f"g{i}",
            deadline=float(rng.uniform(1, 10)),
            rate=float(rng.uniform(0.05, 2.0)),
            mean_processing_time=float(rng.uniform(0.2, 5.0)),
            mean_reward=0.0,
        )
        for i in range(k)
    ]
    utilities = [UtilitySpec(alpha=alpha, weight=float(rng.uniform(0.2, 5.0))) for _ in range(k)]
    return alpha, utilities, stats


def alpha_fair_optimum_reference(alpha, weights, rates):
    """Test-local closed form for the optimal utility given per-group rates.

    Independent of the package's solver: direct evaluation of the KKT
    solution for  max sum w_k U(r_k phi_k)  over the simplex.
    """
    w = np.asarray(weights, dtype=float)
    r = np.asarray(rates, dtype=float)
    if alpha == 0.0:
        return float(np.max(w * r))
    if alpha == 1.0:
        phi = w / w.sum()
        return float(np.sum(w * np.log(r * phi)))
    s = np.sum(w ** (1.0 / alpha) * r ** (1.0 / alpha - 1.0))
    return float(s ** alpha / (1.0 - alpha))


# {digest file name: {"verified_on": host}}, beside the digest files
DIGEST_HOSTS = "digest_hosts.json"


def this_host() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "simd_dispatch": dispatch}


def numpy_host(path) -> str:
    """This host beside the host on which the digest file ``path`` was last
    verified, for the digest tests' failure messages.  numpy's baseline loops
    for pow, exp and log round differently from its AVX-512 ones, so where
    the two differ a mismatch may be a host difference rather than an engine
    change."""
    hosts = path.parent / DIGEST_HOSTS
    recorded = json.loads(hosts.read_text()).get(path.name)
    return f"this host: {this_host()}; {path.name} " + (
        f"verified on: {recorded['verified_on']}" if recorded else "has no recorded host")


# numpy's X86_V3 dispatch on an AVX-512 host: the variable drops the AVX-512
# targets in the process that imports numpy under it, and in that one only
X86_V3 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def x86_v3_file(path):
    """The digest file frozen at the X86_V3 dispatch beside ``path``, which
    is frozen at the AVX-512 dispatch."""
    return path.with_name(f"{path.stem}_x86_v3.json")


def dispatch_file(path):
    """The digest file for this process: ``path``'s X86_V3 file when its
    recorded dispatch in ``DIGEST_HOSTS`` equals this process's, else
    ``path``."""
    recorded = json.loads((path.parent / DIGEST_HOSTS).read_text()).get(x86_v3_file(path).name)
    if recorded and recorded["verified_on"]["simd_dispatch"] == this_host()["simd_dispatch"]:
        return x86_v3_file(path)
    return path


def writer_file(path):
    """The file a digest writer writes from this process: ``path``'s X86_V3
    file when ``X86_V3``'s variable is set, else ``path``."""
    at_x86_v3 = os.environ.get("NPY_DISABLE_CPU_FEATURES") == X86_V3["NPY_DISABLE_CPU_FEATURES"]
    return x86_v3_file(path) if at_x86_v3 else path


def check_digests_at_x86_v3(module, path):
    """Compute test module ``module``'s ``digest_table()`` in a subprocess at
    the X86_V3 dispatch and assert that it equals ``path``'s X86_V3 file."""
    env = dict(os.environ, **X86_V3, PYTHONPATH=os.pathsep.join(sys.path))
    code = f"import json, helpers, {module} as t; print(json.dumps([helpers.this_host(), t.digest_table()]))"
    run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    host, table = json.loads(run.stdout)
    assert not set(X86_V3["NPY_DISABLE_CPU_FEATURES"].split()) & set(host["simd_dispatch"]), host
    data = x86_v3_file(path)
    frozen = json.loads(data.read_text())
    assert sorted(frozen) == sorted(table)
    mismatched = [case for case, digest in table.items() if digest != frozen[case]]
    assert mismatched == [], f"subprocess host: {host}; " + numpy_host(data)


def freeze(path, make_table) -> int:
    """Write the digest table ``make_table()`` to ``path`` as a frozen test
    oracle, record this host for it in ``DIGEST_HOSTS`` beside it, and return
    the exit status.  An existing file is kept unless the command line has
    ``--force``, so a changed engine cannot re-freeze the digests it is
    checked against by accident."""
    parser = argparse.ArgumentParser(description=f"write {path.name} from the installed package")
    parser.add_argument("--force", action="store_true", help="overwrite an existing file")
    force = parser.parse_args().force
    if path.exists() and not force:
        print(f"{path} exists; pass --force to overwrite it", file=sys.stderr)
        return 1
    table = make_table()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    hosts_path = path.parent / DIGEST_HOSTS
    hosts = json.loads(hosts_path.read_text()) if hosts_path.exists() else {}
    hosts[path.name] = {"verified_on": this_host()}
    hosts_path.write_text(json.dumps(hosts, indent=1, sort_keys=True) + "\n")
    return 0
