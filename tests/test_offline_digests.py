"""Frozen digests of the offline solve.

Each digest is the sha256 of one ``solve`` result: every field of every
``GroupStats`` (index, label, deadline, rate, mean processing time, mean
reward), the float64 bytes of ``time_shares`` and ``selection``, the
multiplier, the utility rate, the floored flag and the excluded groups; or,
when ``solve`` raises, the exception's type and message.

The grid covers K in {1, 2, 5, 8} groups of every completion and reward
family with unequal weights, plus an edge set holding a zero-reward group and
a group that never finishes within the menu; alpha in {0, 0.5, 1, 2}, mixed
strictly concave alphas (the dual bisection) and mixed alphas that include a
linear utility (rejected); and five deadline menus: the standard grid, a menu
entirely below both Pareto scales (no reward for Pareto groups; a whole
instance of them raises), a single deadline, a menu on which deterministic
and empirical groups tie, and two deadlines far apart.

The digests in ``data/offline_digests.json`` were written by the solver that
scanned the deadline menu once per group outside the moment table and built
its solution separately on the closed-form and the bisection paths, at
numpy's AVX-512 dispatch.  The 18 ``*mixed_linear*`` entries that hash the
rejection of a linear utility among other alphas were refrozen, in both
files, when ``solve`` took that check over from ``solve_fractions`` with a
message of its own; no other entry moved.  numpy's baseline loops for pow, exp and log round
some results differently, so ``data/offline_digests_x86_v3.json`` holds the
digests at the X86_V3 dispatch; the test computes them in a subprocess whose
``NPY_DISABLE_CPU_FEATURES`` drops the AVX-512 targets (the variable acts on
that process only).

``python tests/test_offline_digests.py --force`` rewrites
``data/offline_digests.json`` from the installed solver, and with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` set it rewrites
``data/offline_digests_x86_v3.json``; without ``--force`` it refuses to
overwrite the file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fairtime import Constant, DeadlineSet, Deterministic, Exponential, GroupModel, UtilitySpec, solve
from helpers import DEADLINE_GRID, FAMILY_GROUPS, freeze, numpy_host

DATA = Path(__file__).parent / "data" / "offline_digests.json"
DATA_X86_V3 = DATA.with_name("offline_digests_x86_v3.json")
X86_V3 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

MENUS = {
    "grid": DEADLINE_GRID,
    "below_pareto": (0.3, 0.6, 0.9),
    "single": (5.0,),
    # Deterministic(3) earns the same rate at every t >= 3, Empirical at t >= 16
    "ties": (3.0, 4.0, 16.0, 20.0, 32.0),
    "wide": (1.5, 40.0),
}
GROUP_SETS = {
    **{f"k{k}": FAMILY_GROUPS[:k] for k in (1, 2, 5, 8)},
    "edge": [
        FAMILY_GROUPS[0],
        (GroupModel(Exponential(1.0), Constant(0.0), "zero_reward"), 1.5),
        (GroupModel(Deterministic(50.0), Constant(1.0), "never_done"), 0.5),
        FAMILY_GROUPS[4],
    ],
}
ALPHAS = {
    "0": (0.0,),
    "0.5": (0.5,),
    "1": (1.0,),
    "2": (2.0,),
    "mixed": (2.0, 0.5, 1.0, 1.5),
    "mixed_linear": (2.0, 0.0, 1.0, 0.5),
}


def cases():
    for menu in MENUS:
        for groups in GROUP_SETS:
            for alpha in ALPHAS:
                yield menu, groups, alpha


def case_id(menu, groups, alpha) -> str:
    return f"{menu}-{groups}-alpha{alpha}"


def outcome_digest(menu, groups, alpha) -> str:
    members = GROUP_SETS[groups]
    cycle = ALPHAS[alpha]
    utilities = [UtilitySpec(cycle[i % len(cycle)], w) for i, (_, w) in enumerate(members)]
    h = hashlib.sha256()
    try:
        sol = solve([g for g, _ in members], DeadlineSet(MENUS[menu]), utilities)
    except Exception as exc:  # the failure mode is part of the contract
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    for st in sol.stats:
        h.update(np.int64(st.group).tobytes() + st.label.encode() + b"\0")
        h.update(np.array([st.deadline, st.rate, st.mean_processing_time, st.mean_reward],
                          dtype=np.float64).tobytes())
    for arr in (sol.time_shares, sol.selection, [sol.multiplier, sol.utility_rate]):
        h.update(np.asarray(arr, dtype=np.float64).tobytes())
    h.update(bytes([sol.floored]) + np.array(sol.excluded, dtype=np.int64).tobytes())
    return h.hexdigest()


def digest_table() -> dict:
    return {case_id(*case): outcome_digest(*case) for case in cases()}


def test_offline_solutions_match_frozen_digests():
    frozen = json.loads(DATA.read_text())
    assert sorted(frozen) == sorted(case_id(*case) for case in cases())
    mismatched = [case_id(*case) for case in cases()
                  if outcome_digest(*case) != frozen[case_id(*case)]]
    assert mismatched == [], numpy_host(DATA)


def test_offline_solutions_match_frozen_digests_at_x86_v3():
    env = dict(os.environ, **X86_V3, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import json, helpers, test_offline_digests as t; "
            "print(json.dumps([helpers.this_host(), t.digest_table()]))")
    run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    host, table = json.loads(run.stdout)
    assert not set(X86_V3["NPY_DISABLE_CPU_FEATURES"].split()) & set(host["simd_dispatch"]), host
    frozen = json.loads(DATA_X86_V3.read_text())
    assert sorted(frozen) == sorted(table)
    mismatched = [case for case, digest in table.items() if digest != frozen[case]]
    assert mismatched == [], f"subprocess host: {host}; " + numpy_host(DATA_X86_V3)


if __name__ == "__main__":
    at_x86_v3 = os.environ.get("NPY_DISABLE_CPU_FEATURES") == X86_V3["NPY_DISABLE_CPU_FEATURES"]
    sys.exit(freeze(DATA_X86_V3 if at_x86_v3 else DATA, digest_table))
