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
    v                optional float > 0; default for the online learner is
                     sqrt(budget / log(budget))
    feedback_delay   optional int >= 1 (default 1)
    target_rate_cap  optional float > 0 (default: empirical cap)
    truncate_last    optional bool (default false)
    trace            optional bool (default false)

Validation never stops at the first problem: every schema error is reported
with its field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
from .utility import UtilitySpec

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Carries a list of (field path, message) pairs."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{p}: {m}" for p, m in errors))


@dataclass(frozen=True)
class SrpPolicySpec:
    selection: tuple[float, ...]
    deadlines: tuple[float, ...]


PolicySpec = Union[str, SrpPolicySpec]  # "online" | "oracle_srp" | explicit SRP


@dataclass(frozen=True)
class OfflineExperiment:
    kind: str = "offline"


@dataclass(frozen=True)
class SimulateExperiment:
    policy: PolicySpec
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
    labels: tuple[str, ...] = field(default=())


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append((path, message))

    def require_keys(self, obj: dict, path: str, required: set[str], optional: set[str]) -> bool:
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

    def numbers(self, obj: list, path: str, **constraints) -> list[float] | None:
        """``number`` on every element of the list ``obj``; None if any is bad."""
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


_COMPLETION_FIELDS = {
    "pareto": {"scale": dict(exclusive_min=0.0), "shape": dict(exclusive_min=0.0)},
    "exponential": {"rate": dict(exclusive_min=0.0)},
    "deterministic": {"value": dict(exclusive_min=0.0)},
}
_REWARD_FIELDS = {
    "power_of_time": {"exponent": dict(minimum=0.0)},
    "constant": {"value": dict(minimum=0.0)},
    "scaled_uniform": {"lo": dict(minimum=0.0), "hi": dict(minimum=0.0)},
}
_COMPLETION_TYPES = {"pareto": Pareto, "exponential": Exponential, "deterministic": Deterministic}
_REWARD_TYPES = {"power_of_time": PowerOfTime, "constant": Constant, "scaled_uniform": ScaledUniform}


def _parse_variant(chk, obj, path, fields_by_variant, types_by_variant, extra_variants=()):
    if not isinstance(obj, dict) or len(obj) != 1:
        names = sorted(list(fields_by_variant) + list(extra_variants))
        chk.fail(path, f"expected an object with exactly one of: {', '.join(names)}")
        return None
    (variant, params), = obj.items()
    if variant in extra_variants:
        return variant, params
    if variant not in fields_by_variant:
        chk.fail(f"{path}.{variant}", "unknown variant")
        return None
    spec = fields_by_variant[variant]
    if not isinstance(params, dict):
        chk.fail(f"{path}.{variant}", "expected an object of parameters")
        return None
    if not chk.require_keys(params, f"{path}.{variant}", set(spec), set()):
        return None
    values = {}
    for name, constraints in spec.items():
        x = chk.number(params[name], f"{path}.{variant}.{name}", **constraints)
        if x is None:
            return None
        values[name] = x
    try:
        return variant, types_by_variant[variant](**values)
    except ValueError as exc:
        chk.fail(f"{path}.{variant}", str(exc))
        return None


def _parse_completion(chk, obj, path):
    if isinstance(obj, dict) and set(obj) == {"empirical"}:
        params = obj["empirical"]
        if not isinstance(params, dict) or set(params) != {"samples"}:
            chk.fail(f"{path}.empirical", 'expected {"samples": [...]}')
            return None
        samples = params["samples"]
        if not isinstance(samples, list) or not samples:
            chk.fail(f"{path}.empirical.samples", "expected a non-empty list of numbers")
            return None
        values = chk.numbers(samples, f"{path}.empirical.samples", exclusive_min=0.0)
        return Empirical(tuple(values)) if values is not None else None
    parsed = _parse_variant(chk, obj, path, _COMPLETION_FIELDS, _COMPLETION_TYPES,
                            extra_variants=("empirical",))
    return parsed[1] if parsed else None


def _parse_reward(chk, obj, path):
    parsed = _parse_variant(chk, obj, path, _REWARD_FIELDS, _REWARD_TYPES)
    return parsed[1] if parsed else None


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
        chk.require_keys(g, path, {"completion", "reward"}, {"label", "weight"})
        label = g.get("label", f"group{i + 1}")
        if not isinstance(label, str) or not label:
            chk.fail(f"{path}.label", "expected a non-empty string")
            label = f"group{i + 1}"
        weight = 1.0
        if "weight" in g:
            w = chk.number(g["weight"], f"{path}.weight", exclusive_min=0.0)
            weight = w if w is not None else 1.0
        completion = _parse_completion(chk, g.get("completion"), f"{path}.completion") \
            if "completion" in g else None
        reward = _parse_reward(chk, g.get("reward"), f"{path}.reward") if "reward" in g else None
        if completion is None or reward is None:
            continue
        try:
            groups.append(GroupModel(completion=completion, reward=reward, label=label))
        except ValueError as exc:
            chk.fail(path, str(exc))
            continue
        if alpha is not None:
            utilities.append(UtilitySpec(alpha=alpha, weight=weight))
    labels = [g.label for g in groups]
    if len(set(labels)) != len(labels):
        chk.fail("groups", f"labels must be unique, got {labels}")
    return groups, utilities


def _parse_policy(chk, obj, path, n_groups, deadline_values):
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
        if not chk.require_keys(params, f"{path}.srp", {"selection", "deadlines"}, set()):
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
        ok = abs(sum(probs) - 1.0) <= 1e-9
        if not ok:
            chk.fail(f"{path}.srp.selection", f"must sum to 1, got {sum(probs)}")
        for i, t in enumerate(values):
            if deadline_values is not None and t not in deadline_values:
                chk.fail(f"{path}.srp.deadlines[{i}]", f"{dls[i]} is not in the deadline set")
                ok = False
        return SrpPolicySpec(selection=tuple(probs), deadlines=tuple(values)) if ok else None
    chk.fail(path, 'expected "online", "oracle_srp" or {"srp": {...}}')
    return None


def _parse_experiment(chk, obj, n_groups, deadline_values):
    if not isinstance(obj, dict) or "kind" not in obj:
        chk.fail("experiment", 'expected an object with a "kind" field')
        return None
    kind = obj["kind"]
    if kind == "offline":
        chk.require_keys(obj, "experiment", {"kind"}, set())
        return OfflineExperiment()
    if kind == "simulate":
        if not chk.require_keys(obj, "experiment", {"kind", "policy", "budget", "trials"}, set()):
            return None
        budget = chk.number(obj["budget"], "experiment.budget", exclusive_min=0.0)
        trials = chk.integer(obj["trials"], "experiment.trials", minimum=2)
        policy = _parse_policy(chk, obj["policy"], "experiment.policy", n_groups, deadline_values)
        if budget is None or trials is None or policy is None:
            return None
        return SimulateExperiment(policy=policy, budget=budget, trials=trials)
    if kind == "regret":
        if not chk.require_keys(obj, "experiment", {"kind", "budget_grid", "trials"}, set()):
            return None
        grid_obj = obj["budget_grid"]
        trials = chk.integer(obj["trials"], "experiment.trials", minimum=2)
        if not isinstance(grid_obj, list) or len(grid_obj) < 4:
            chk.fail("experiment.budget_grid", "expected a list of at least 4 budgets")
            return None
        grid = chk.numbers(grid_obj, "experiment.budget_grid", exclusive_min=0.0)
        if grid is None:
            return None
        if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
            chk.fail("experiment.budget_grid", "must be strictly increasing")
            return None
        if grid[-1] / grid[0] < 10 ** 1.5:
            chk.fail("experiment.budget_grid",
                     "must span at least 1.5 decades for the slope fit")
            return None
        if trials is None:
            return None
        return RegretExperiment(budget_grid=tuple(grid), trials=trials)
    chk.fail("experiment.kind", f'expected "offline", "simulate" or "regret", got {kind!r}')
    return None


def load_config(data: dict) -> ExperimentConfig:
    """Validate an already-decoded document; raises ConfigError listing every
    problem with its field path."""
    chk = _Checker()
    if not isinstance(data, dict):
        raise ConfigError([("", "top level must be an object")])
    chk.require_keys(
        data, "",
        {"schema_version", "seed", "groups", "deadlines", "utility", "experiment"},
        {"v", "feedback_delay", "target_rate_cap", "truncate_last", "trace"},
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
        d = data["deadlines"]
        if not isinstance(d, list) or not d:
            chk.fail("deadlines", "expected a non-empty list of numbers")
        else:
            values = chk.numbers(d, "deadlines", exclusive_min=0.0)
            try:
                deadlines = DeadlineSet(tuple(values)) if values is not None else None
            except ValueError as exc:
                chk.fail("deadlines", str(exc))

    experiment = None
    if "experiment" in data and groups:
        # the groups as written: one that failed to parse still has a slot
        # in an explicit policy's lists
        experiment = _parse_experiment(
            chk, data["experiment"], len(data["groups"]),
            deadlines.deadlines if deadlines else None,
        )

    v = None
    if "v" in data:
        v = chk.number(data["v"], "v", exclusive_min=0.0)
    delay = 1
    if "feedback_delay" in data:
        delay = chk.integer(data["feedback_delay"], "feedback_delay", minimum=1) or 1
    cap = None
    if "target_rate_cap" in data:
        cap = chk.number(data["target_rate_cap"], "target_rate_cap", exclusive_min=0.0)
    flags = {}
    for name in ("truncate_last", "trace"):
        flags[name] = data.get(name, False)
        if not isinstance(flags[name], bool):
            chk.fail(name, f"expected a boolean, got {type(flags[name]).__name__}")
            flags[name] = False

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(
        groups=tuple(groups),
        deadlines=deadlines,
        utilities=tuple(utilities),
        experiment=experiment,
        seed=seed,
        v=v,
        feedback_delay=delay,
        target_rate_cap=cap,
        truncate_last=flags["truncate_last"],
        trace=flags["trace"],
        labels=tuple(g.label for g in groups),
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
