"""Config fuzzing: seeded mutants of the bundled configs run through the CLI.

Each mutant applies one to three edits to a bundled config (``configs/`` and
the benchmark workloads): drop a key or list element, give a value another
JSON type, copy a key into another object or repeat a list element, or put
an extreme number in place of a number.  ``fairtime offline`` on the mutant
must exit 0; exit 2 with every stderr line a ``config error at <path>``; or,
for numbers the schema admits but the solver's floats cannot carry, exit 3
with a ``numerical failure``.  An exception escaping ``main`` fails the test.
``offline`` validates the whole document, experiment included, and its run
time does not grow with a mutated budget or trial count.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from fairtime.cli import main

ROOT = Path(__file__).parent.parent
CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted(ROOT.glob("configs/*.json"))
           + sorted(ROOT.glob("perfbench/workloads/*.json"))}
SRP = {"srp": {"selection": [0.5, 0.5], "deadlines": [2, 4]}}
# no bundled config names an explicit SRP policy
CONFIGS["two_group_srp"] = {**CONFIGS["two_group_online"],
                            "experiment": {**CONFIGS["two_group_online"]["experiment"], "policy": SRP}}
MUTANTS_PER_CONFIG = 120

RETYPED = [None, True, False, "x", "", [], {}, [1.0], {"x": 1}, 0, -1, 0.5, 3]
EXTREME = [0, -0.0, -1, 5e-324, 1e-300, 1e300, -1e308, 2 ** 64, 10 ** 400,
           float("inf"), float("-inf"), float("nan")]


def slots(node, out):
    """Every (container, key) pair at or below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        out.append((node, key))
        slots(child, out)
    return out


def mutate(doc, rng):
    holder = {"doc": copy.deepcopy(doc)}  # so the document itself can be replaced
    for _ in range(rng.randint(1, 3)):
        places = slots(holder, [])
        container, key = rng.choice(places)
        op = rng.choice(["drop", "retype", "duplicate", "extreme"])
        if op == "drop":
            del container[key]
        elif op == "retype":
            container[key] = copy.deepcopy(rng.choice(RETYPED))
        elif op == "duplicate":
            value = copy.deepcopy(container[key])
            if isinstance(container, list):
                container.append(value)
            else:
                objects = [c[k] for c, k in places if isinstance(c[k], dict)]
                if objects:
                    rng.choice(objects)[key] = value
        else:
            numbers = [(c, k) for c, k in places
                       if isinstance(c[k], (int, float)) and not isinstance(c[k], bool)]
            if numbers:
                c, k = rng.choice(numbers)
                c[k] = rng.choice(EXTREME)
        if "doc" not in holder:
            break
    return holder.get("doc")


def run_offline(tmp_path, capsys, doc):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    code = main(["offline", str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("config", list(CONFIGS))
def test_mutated_configs_exit_0_2_or_3_without_a_traceback(tmp_path, capsys, config):
    rng = random.Random(f"fuzz-{config}")
    base = CONFIGS[config]
    exits = {0: 0, 2: 0, 3: 0}
    for i in range(MUTANTS_PER_CONFIG):
        doc = mutate(base, rng)
        code, err = run_offline(tmp_path, capsys, doc)
        assert code in exits, f"mutant {i}: exit {code}\n{json.dumps(doc)}\n{err}"
        lines = err.splitlines()
        if code == 0:
            assert lines == [], f"mutant {i}:\n{json.dumps(doc)}\n{err}"
        else:
            prefix = "config error at " if code == 2 else "numerical failure: "
            assert lines and all(line.startswith(prefix) for line in lines), \
                f"mutant {i}:\n{json.dumps(doc)}\n{err}"
        exits[code] += 1
    # the mutants exercise both the validator and the solver
    assert exits[0] > 0 and exits[2] > 0


def edit(doc, path, value):
    """``doc`` with the value at ``path`` (a list of keys) replaced, or dropped
    when ``value`` is DROP."""
    holder = {"doc": copy.deepcopy(doc)}
    *parents, last = ["doc", *path]
    node = holder
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return holder["doc"]


DROP = object()


@pytest.mark.parametrize(
    "path,value,reported",
    [
        ([], [1, 2], "<root>"),
        (["groups", 1], "g2", "groups[1]"),
        (["groups", 0, "label"], 7, "groups[0].label"),
        (["utility"], {"alpha": 1.0, "beta": 2.0}, "utility"),
        (["deadlines"], 4.0, "deadlines"),
        (["experiment", "kind"], DROP, "experiment"),
        (["experiment", "kind"], "sweep", "experiment.kind"),
        (["experiment", "policy", "srp"], [0.5, 0.5], "experiment.policy.srp"),
        (["experiment", "policy", "srp", "selection"], [1.0], "experiment.policy.srp.selection"),
        (["experiment", "policy", "srp", "deadlines"], 2, "experiment.policy.srp.deadlines"),
        (["experiment", "policy"], ["online"], "experiment.policy"),
        (["groups", 0, "completion"], {"pareto": 1.0}, "groups[0].completion.pareto"),
        (["groups", 0, "completion"], {"pareto": {}, "exponential": {}}, "groups[0].completion"),
    ],
)
def test_malformed_fields_report_their_path(tmp_path, capsys, path, value, reported):
    code, err = run_offline(tmp_path, capsys, edit(CONFIGS["two_group_srp"], path, value))
    assert code == 2
    assert f"config error at {reported}:" in err
