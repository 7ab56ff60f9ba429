"""Experiment configuration: a single JSON file describes the environment,
the utilities, and what to run.

Schema (version 1), all paths relative to the document root:

    schema_version   required, must be 1
    seed             required int >= 0
    groups           required non-empty list of
                       {label?: str, weight?: float > 0 (default 1),
                        completion: one-key object, reward: one-key object}
                     completion variants:
                       {"pareto": {"scale": >0, "shape": >0}}
                       {"exponential": {"rate": >0}}
                       {"deterministic": {"value": >0}}
                       {"empirical": {"samples": [>0, ...]}}
                     reward variants:
                       {"power_of_time": {"exponent": >=0}}
                       {"constant": {"value": >=0}}
                       {"scaled_uniform": {"lo": >=0, "hi": >=lo}}
    deadlines        required strictly increasing list of finite positives
    utility          required {"alpha": >=0}; weights live on the groups
    experiment       required, one of
                       {"kind": "offline"}
                       {"kind": "simulate", "policy": ..., "budget": >0,
                        "trials": >=2}
                       {"kind": "regret", "budget_grid": [...], "trials": >=2}
                     simulate policies: "online", "oracle_srp", or
                       {"srp": {"selection": [...], "deadlines": [...]}}
                     with one probability and one menu deadline per group;
                     budget_grid follows ``sim.check_budget_grid``
    v                optional float > 0; default for the online learner is
                     sqrt(budget / log(budget))
    feedback_delay   optional int >= 1 (default 1)
    target_rate_cap  optional float > 0 (default: empirical cap)
    truncate_last    optional bool (default false)
    trace            optional bool (default false)

The document is parsed straight into the library's own types: each group is
a ``GroupModel`` whose completion and reward are the variant's class, the
menu a ``DeadlineSet``, the utilities ``UtilitySpec``s and an explicit policy
a ``sim.SrpPolicy``.  A rule those types or ``sim`` enforce is checked by
them, and their ``ValueError`` is reported at the field's path.

Validation never stops at the first problem: every schema error is reported
with its field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

from .distributions import (
    Constant,
    DeadlineSet,
    Deterministic,
    Empirical,
    Exponential,
    GroupModel,
    Pareto,
    PowerOfTime,
    ScaledUniform,
)
from .sim import SrpPolicy, check_budget_grid
from .utility import UtilitySpec

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Carries a list of (field path, message) pairs."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{p}: {m}" for p, m in errors))


@dataclass(frozen=True)
class OfflineExperiment:
    kind: str = "offline"


@dataclass(frozen=True)
class SimulateExperiment:
    policy: str | SrpPolicy  # "online", "oracle_srp" or an explicit SRP
    budget: float
    trials: int
    kind: str = "simulate"


@dataclass(frozen=True)
class RegretExperiment:
    budget_grid: tuple[float, ...]
    trials: int
    kind: str = "regret"


Experiment = Union[OfflineExperiment, SimulateExperiment, RegretExperiment]


@dataclass(frozen=True)
class ExperimentConfig:
    groups: tuple[GroupModel, ...]
    deadlines: DeadlineSet
    utilities: tuple[UtilitySpec, ...]
    experiment: Experiment
    seed: int
    v: float | None = None
    feedback_delay: int = 1
    target_rate_cap: float | None = None
    truncate_last: bool = False
    trace: bool = False


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append((path, message))

    def build(self, make, path: str, *args, **kwargs):
        """``make(*args, **kwargs)``, or None with its ValueError reported at ``path``."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None

    def require_keys(self, obj: dict, path: str, required: tuple[str, ...],
                     optional: tuple[str, ...] = ()) -> bool:
        """Missing keys in ``required``'s order, then unknown ones in ``obj``'s."""
        ok = True
        for key in required:
            if key not in obj:
                self.fail(f"{path}.{key}" if path else key, "missing required field")
                ok = False
        for key in obj:
            if key not in required and key not in optional:
                self.fail(f"{path}.{key}" if path else key, "unknown field")
                ok = False
        return ok

    def number(self, obj, path, *, minimum=None, exclusive_min=None) -> float | None:
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, f"expected a number, got {type(obj).__name__}")
            return None
        x = float(obj) if abs(obj) < 2 ** 1024 else math.inf  # float() raises on huge ints
        if not math.isfinite(x):
            self.fail(path, f"must be finite, got {obj}")
            return None
        if exclusive_min is not None and not x > exclusive_min:
            self.fail(path, f"must be > {exclusive_min}, got {obj}")
            return None
        if minimum is not None and not x >= minimum:
            self.fail(path, f"must be >= {minimum}, got {obj}")
            return None
        return x

    def numbers(self, obj, path: str, **constraints) -> list[float] | None:
        """``number`` on every element of the non-empty list ``obj``; None if any is bad."""
        if not isinstance(obj, list) or not obj:
            self.fail(path, "expected a non-empty list of numbers")
            return None
        values = [self.number(x, f"{path}[{i}]", **constraints) for i, x in enumerate(obj)]
        return None if None in values else values

    def integer(self, obj, path, *, minimum=None) -> int | None:
        if not isinstance(obj, int) or isinstance(obj, bool):
            self.fail(path, f"expected an integer, got {type(obj).__name__}")
            return None
        if minimum is not None and obj < minimum:
            self.fail(path, f"must be >= {minimum}, got {obj}")
            return None
        return obj

    def boolean(self, obj, path) -> bool | None:
        if not isinstance(obj, bool):
            self.fail(path, f"expected a boolean, got {type(obj).__name__}")
            return None
        return obj


# a field table maps each field to (_Checker method, constraints)
_POSITIVE = (_Checker.number, {"exclusive_min": 0.0})
_NON_NEGATIVE = (_Checker.number, {"minimum": 0.0})
# {variant: (type, field table of its parameters)}
_VARIANTS = {
    "completion": {
        "pareto": (Pareto, {"scale": _POSITIVE, "shape": _POSITIVE}),
        "exponential": (Exponential, {"rate": _POSITIVE}),
        "deterministic": (Deterministic, {"value": _POSITIVE}),
        "empirical": (Empirical, {"samples": (_Checker.numbers, {"exclusive_min": 0.0})}),
    },
    "reward": {
        "power_of_time": (PowerOfTime, {"exponent": _NON_NEGATIVE}),
        "constant": (Constant, {"value": _NON_NEGATIVE}),
        "scaled_uniform": (ScaledUniform, {"lo": _NON_NEGATIVE, "hi": _NON_NEGATIVE}),
    },
}


def _parse_variant(chk, obj, path, variants):
    if not isinstance(obj, dict) or len(obj) != 1:
        chk.fail(path, f"expected an object with exactly one of: {', '.join(sorted(variants))}")
        return None
    (variant, params), = obj.items()
    path = f"{path}.{variant}"
    if variant not in variants:
        chk.fail(path, "unknown variant")
        return None
    make, spec = variants[variant]
    if not isinstance(params, dict):
        chk.fail(path, "expected an object of parameters")
        return None
    if not chk.require_keys(params, path, tuple(spec)):
        return None
    values = {name: check(chk, params[name], f"{path}.{name}", **constraints)
              for name, (check, constraints) in spec.items()}
    if None in values.values():
        return None
    return chk.build(make, path, **values)


def _parse_groups(chk, obj, alpha):
    if not isinstance(obj, list) or not obj:
        chk.fail("groups", "expected a non-empty list")
        return None, None
    groups, utilities = [], []
    for i, g in enumerate(obj):
        path = f"groups[{i}]"
        if not isinstance(g, dict):
            chk.fail(path, "expected an object")
            continue
        chk.require_keys(g, path, ("completion", "reward"), ("label", "weight"))
        label = g.get("label", f"group{i + 1}")
        if not isinstance(label, str) or not label:
            chk.fail(f"{path}.label", "expected a non-empty string")
            label = f"group{i + 1}"
        weight = 1.0
        if "weight" in g:
            weight = chk.number(g["weight"], f"{path}.weight", exclusive_min=0.0) or 1.0
        parts = {part: _parse_variant(chk, g[part], f"{path}.{part}", _VARIANTS[part])
                 for part in _VARIANTS if part in g}
        if len(parts) < 2 or None in parts.values():
            continue
        group = chk.build(GroupModel, path, label=label, **parts)
        if group is None:
            continue
        groups.append(group)
        if alpha is not None:
            utilities.append(UtilitySpec(alpha=alpha, weight=weight))
    labels = [g.label for g in groups]
    if len(set(labels)) != len(labels):
        chk.fail("groups", f"labels must be unique, got {labels}")
    return groups, utilities


def _parse_policy(chk, obj, path, n_groups, deadlines):
    if isinstance(obj, str):
        if obj not in ("online", "oracle_srp"):
            chk.fail(path, f'expected "online", "oracle_srp" or an srp object, got "{obj}"')
            return None
        return obj
    if isinstance(obj, dict) and set(obj) == {"srp"}:
        params = obj["srp"]
        if not isinstance(params, dict):
            chk.fail(f"{path}.srp", "expected an object")
            return None
        if not chk.require_keys(params, f"{path}.srp", ("selection", "deadlines")):
            return None
        sel, dls = params["selection"], params["deadlines"]
        if not isinstance(sel, list) or len(sel) != n_groups:
            chk.fail(f"{path}.srp.selection", f"expected a list of {n_groups} probabilities")
            return None
        if not isinstance(dls, list) or len(dls) != n_groups:
            chk.fail(f"{path}.srp.deadlines", f"expected a list of {n_groups} deadlines")
            return None
        probs = chk.numbers(sel, f"{path}.srp.selection", minimum=0.0)
        values = chk.numbers(dls, f"{path}.srp.deadlines", exclusive_min=0.0)
        if probs is None or values is None:
            return None
        policy = chk.build(SrpPolicy, f"{path}.srp.selection", selection=probs, deadlines=values)
        for i, t in enumerate(values):
            if deadlines is not None and t not in deadlines.deadlines:
                chk.fail(f"{path}.srp.deadlines[{i}]", f"{dls[i]} is not in the deadline set")
                policy = None
        return policy
    chk.fail(path, 'expected "online", "oracle_srp" or {"srp": {...}}')
    return None


def _parse_experiment(chk, obj, n_groups, deadlines):
    if not isinstance(obj, dict) or "kind" not in obj:
        chk.fail("experiment", 'expected an object with a "kind" field')
        return None
    kind = obj["kind"]
    if kind == "offline":
        chk.require_keys(obj, "experiment", ("kind",))
        return OfflineExperiment()
    if kind == "simulate":
        if not chk.require_keys(obj, "experiment", ("kind", "policy", "budget", "trials")):
            return None
        budget = chk.number(obj["budget"], "experiment.budget", exclusive_min=0.0)
        trials = chk.integer(obj["trials"], "experiment.trials", minimum=2)
        policy = _parse_policy(chk, obj["policy"], "experiment.policy", n_groups, deadlines)
        if budget is None or trials is None or policy is None:
            return None
        return SimulateExperiment(policy=policy, budget=budget, trials=trials)
    if kind == "regret":
        if not chk.require_keys(obj, "experiment", ("kind", "budget_grid", "trials")):
            return None
        trials = chk.integer(obj["trials"], "experiment.trials", minimum=2)
        grid = chk.numbers(obj["budget_grid"], "experiment.budget_grid", exclusive_min=0.0)
        if grid is not None:
            grid = chk.build(check_budget_grid, "experiment.budget_grid", grid)
        if grid is None or trials is None:
            return None
        return RegretExperiment(budget_grid=grid, trials=trials)
    chk.fail("experiment.kind", f'expected "offline", "simulate" or "regret", got {kind!r}')
    return None


# top-level field -> (_Checker method, constraints); the defaults are ExperimentConfig's
_OPTIONAL = {
    "v": _POSITIVE,
    "feedback_delay": (_Checker.integer, {"minimum": 1}),
    "target_rate_cap": _POSITIVE,
    "truncate_last": (_Checker.boolean, {}),
    "trace": (_Checker.boolean, {}),
}


def load_config(data: dict) -> ExperimentConfig:
    """Validate an already-decoded document; raises ConfigError listing every
    problem with its field path."""
    chk = _Checker()
    if not isinstance(data, dict):
        raise ConfigError([("", "top level must be an object")])
    chk.require_keys(
        data, "",
        ("schema_version", "seed", "groups", "deadlines", "utility", "experiment"),
        tuple(_OPTIONAL),
    )
    if data.get("schema_version") != SCHEMA_VERSION:
        chk.fail("schema_version", f"must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}")

    seed = chk.integer(data.get("seed", 0), "seed", minimum=0)

    alpha = None
    if "utility" in data:
        u = data["utility"]
        if not isinstance(u, dict) or set(u) != {"alpha"}:
            chk.fail("utility", 'expected {"alpha": <number>}')
        else:
            alpha = chk.number(u["alpha"], "utility.alpha", minimum=0.0)

    groups, utilities = (None, None)
    if "groups" in data:
        groups, utilities = _parse_groups(chk, data["groups"], alpha)

    deadlines = None
    if "deadlines" in data:
        values = chk.numbers(data["deadlines"], "deadlines", exclusive_min=0.0)
        if values is not None:
            deadlines = chk.build(DeadlineSet, "deadlines", tuple(values))

    experiment = None
    if "experiment" in data and groups:
        # the groups as written: one that failed to parse still has a slot
        # in an explicit policy's lists
        experiment = _parse_experiment(chk, data["experiment"], len(data["groups"]), deadlines)

    knobs = {name: check(chk, data[name], name, **constraints)
             for name, (check, constraints) in _OPTIONAL.items() if name in data}

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(
        groups=tuple(groups),
        deadlines=deadlines,
        utilities=tuple(utilities),
        experiment=experiment,
        seed=seed,
        **knobs,
    )


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([("", f"cannot read {path}: {exc}")]) from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to convert
        raise ConfigError([("", f"invalid JSON: {exc}")]) from exc
    return load_config(data)
