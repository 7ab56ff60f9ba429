import json
from pathlib import Path

import pytest

from fairtime import ConfigError, Pareto, PowerOfTime, load_config, parse_config
from fairtime.config import RegretExperiment, SimulateExperiment
from fairtime.sim import SrpPolicy

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def base_config(**overrides):
    data = {
        "schema_version": 1,
        "seed": 7,
        "groups": [
            {
                "label": "g1",
                "completion": {"pareto": {"scale": 1.0, "shape": 1.2}},
                "reward": {"power_of_time": {"exponent": 0.6}},
            },
            {
                "label": "g2",
                "completion": {"exponential": {"rate": 0.5}},
                "reward": {"constant": {"value": 2.0}},
                "weight": 3.0,
            },
        ],
        "deadlines": [1.0, 2.0, 4.0],
        "utility": {"alpha": 1.0},
        "experiment": {"kind": "offline"},
    }
    data.update(overrides)
    return data


def error_paths(exc_info):
    return [path for path, _ in exc_info.value.errors]


def test_bundled_config_reproduces_experiment_parameters():
    cfg = parse_config(str(CONFIG_DIR / "two_group_online.json"))
    assert len(cfg.groups) == 2
    assert cfg.groups[0].completion == Pareto(1.0, 1.2)
    assert cfg.groups[0].reward == PowerOfTime(0.6)
    assert cfg.groups[1].completion == Pareto(1.0, 1.4)
    assert cfg.groups[1].reward == PowerOfTime(0.2)
    assert [u.weight for u in cfg.utilities] == [1.0, 1.0]
    assert cfg.utilities[0].alpha == 1.0
    assert cfg.v == 20.0
    assert cfg.feedback_delay == 1
    assert cfg.experiment == SimulateExperiment(policy="online", budget=4000.0, trials=1000)
    assert len(cfg.deadlines) == 9


def test_minimal_valid_config():
    cfg = load_config(base_config())
    assert tuple(g.label for g in cfg.groups) == ("g1", "g2")
    assert [u.weight for u in cfg.utilities] == [1.0, 3.0]
    assert cfg.truncate_last is False and cfg.trace is False
    assert cfg.v is None
    assert cfg.target_rate_cap is None


def test_optional_knobs_round_trip():
    cfg = load_config(base_config(v=12.5, feedback_delay=3, target_rate_cap=0.8,
                                  truncate_last=True, trace=True))
    assert (cfg.v, cfg.feedback_delay, cfg.target_rate_cap) == (12.5, 3, 0.8)
    assert cfg.truncate_last and cfg.trace
    with pytest.raises(ConfigError) as exc:
        load_config(base_config(target_rate_cap=0.0))
    assert "target_rate_cap" in error_paths(exc)


def test_negative_shape_reports_exact_path():
    data = base_config()
    data["groups"][0]["completion"]["pareto"]["shape"] = -1.2
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert "groups[0].completion.pareto.shape" in error_paths(exc)


def test_multiple_errors_accumulate():
    data = base_config(seed=-1)
    data["groups"][1]["weight"] = 0.0
    data["deadlines"] = [2.0, 1.0]
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    paths = error_paths(exc)
    assert "seed" in paths
    assert "groups[1].weight" in paths
    assert "deadlines" in paths


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d.pop("utility"), "utility"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["groups"][0].update(extra=1), "groups[0].extra"),
        (lambda d: d.update(utility={"alpha": -0.5}), "utility.alpha"),
        (lambda d: d.update(v=0.0), "v"),
        (lambda d: d.update(feedback_delay=0), "feedback_delay"),
        (lambda d: d.update(trace="yes"), "trace"),
        (lambda d: d["groups"][0].update(reward={"power_of_time": {"exponent": -1}}),
         "groups[0].reward.power_of_time.exponent"),
        (lambda d: d["groups"][0].update(reward={"nonsense": {}}),
         "groups[0].reward.nonsense"),
        (lambda d: d["groups"][0].update(completion={"empirical": {}}),
         "groups[0].completion.empirical.samples"),
        (lambda d: d["groups"][0].update(completion={"empirical": {"samples": [1.0], "p": [1.0]}}),
         "groups[0].completion.empirical.p"),
    ],
)
def test_single_field_errors(mutate, path):
    data = base_config()
    mutate(data)
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert path in error_paths(exc)


def test_missing_fields_reported_in_schema_order():
    # the same order in every process, whatever its string hash seed
    with pytest.raises(ConfigError) as exc:
        load_config({"schema_version": 1, "experiment": {"kind": "regret"}, "x": 1})
    assert error_paths(exc) == ["seed", "groups", "deadlines", "utility", "x"]
    with pytest.raises(ConfigError) as exc:
        load_config(base_config(experiment={"kind": "simulate"}))
    assert error_paths(exc) == ["experiment.policy", "experiment.budget", "experiment.trials"]


def test_pareto_power_tail_conflict_reported_on_group():
    data = base_config()
    data["groups"][0]["reward"] = {"power_of_time": {"exponent": 1.5}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert "groups[0]" in error_paths(exc)


def test_duplicate_labels_rejected():
    data = base_config()
    data["groups"][1]["label"] = "g1"
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert "groups" in error_paths(exc)


def test_empirical_and_scaled_uniform_variants():
    data = base_config()
    data["groups"][0]["completion"] = {"empirical": {"samples": [0.5, 1.5, 2.5]}}
    data["groups"][0]["reward"] = {"scaled_uniform": {"lo": 0.5, "hi": 1.5}}
    cfg = load_config(data)
    assert cfg.groups[0].completion.samples == (0.5, 1.5, 2.5)

    data["groups"][0]["reward"] = {"scaled_uniform": {"lo": 2.0, "hi": 1.0}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert "groups[0].reward.scaled_uniform" in error_paths(exc)

    data["groups"][0]["completion"] = {"empirical": {"samples": []}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert "groups[0].completion.empirical.samples" in error_paths(exc)


def test_simulate_experiment_with_explicit_srp():
    data = base_config(
        experiment={
            "kind": "simulate",
            "policy": {"srp": {"selection": [0.25, 0.75], "deadlines": [2.0, 4.0]}},
            "budget": 100,
            "trials": 10,
        }
    )
    cfg = load_config(data)
    assert cfg.experiment.policy == SrpPolicy((0.25, 0.75), (2.0, 4.0))


def test_srp_policy_validation():
    bad_sum = {"srp": {"selection": [0.4, 0.4], "deadlines": [2.0, 4.0]}}
    off_menu = {"srp": {"selection": [0.5, 0.5], "deadlines": [2.0, 3.0]}}
    for policy, path in [
        (bad_sum, "experiment.policy.srp.selection"),
        (off_menu, "experiment.policy.srp.deadlines[1]"),
        ("bogus", "experiment.policy"),
    ]:
        data = base_config(
            experiment={"kind": "simulate", "policy": policy, "budget": 10, "trials": 2}
        )
        with pytest.raises(ConfigError) as exc:
            load_config(data)
        assert path in error_paths(exc)


def test_bad_group_leaves_explicit_policy_lengths_valid():
    # the policy lists are checked against the groups as written, so a group
    # that fails to parse reports only its own errors
    data = base_config(experiment={
        "kind": "simulate", "budget": 10, "trials": 2,
        "policy": {"srp": {"selection": [0.5, 0.5], "deadlines": [2.0, 4.0]}},
    })
    data["groups"][0]["completion"] = {"empirical": {"samples": [0.5, 0, "y", 2.0]}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert error_paths(exc) == [
        "groups[0].completion.empirical.samples[1]", "groups[0].completion.empirical.samples[2]"]


def test_regret_experiment_grid_rules():
    data = base_config(
        experiment={"kind": "regret", "budget_grid": [100, 200, 800, 3200], "trials": 5}
    )
    cfg = load_config(data)
    assert cfg.experiment == RegretExperiment(budget_grid=(100.0, 200.0, 800.0, 3200.0), trials=5)

    for grid, path in [
        ([100, 200, 400], "experiment.budget_grid"),
        ([100, 400, 200, 800], "experiment.budget_grid"),
        ([100, 200, 400, 800], "experiment.budget_grid"),  # under 1.5 decades
    ]:
        data = base_config(experiment={"kind": "regret", "budget_grid": grid, "trials": 5})
        with pytest.raises(ConfigError) as exc:
            load_config(data)
        assert path in error_paths(exc)


def test_number_lists_report_every_bad_element():
    data = base_config(deadlines=[1, "x", 3])
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert exc.value.errors == [("deadlines[1]", "expected a number, got str")]

    grid = [100, "a", -1, 3200, 6400]
    data = base_config(experiment={"kind": "regret", "budget_grid": grid, "trials": 5})
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert error_paths(exc) == ["experiment.budget_grid[1]", "experiment.budget_grid[2]"]

    data = base_config()
    data["groups"][0]["completion"] = {"empirical": {"samples": [0.5, 0, "y", 2.0]}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert error_paths(exc) == [
        "groups[0].completion.empirical.samples[1]", "groups[0].completion.empirical.samples[2]"]

    for srp, paths in [
        ({"selection": [-0.5, True], "deadlines": [2.0, "z"]},
         ["selection[0]", "selection[1]", "deadlines[1]"]),
        ({"selection": [0.5, 0.4], "deadlines": [3.0, 5.0]},
         ["selection", "deadlines[0]", "deadlines[1]"]),
    ]:
        policy = {"srp": srp}
        data = base_config(experiment={"kind": "simulate", "policy": policy, "budget": 10, "trials": 2})
        with pytest.raises(ConfigError) as exc:
            load_config(data)
        assert error_paths(exc) == [f"experiment.policy.srp.{p}" for p in paths]


def test_parse_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        parse_config(str(missing))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(broken))
    broken.write_text('{"seed": 1' + "0" * 5000 + "}")  # past Python's int conversion limit
    with pytest.raises(ConfigError):
        parse_config(str(broken))
    broken.write_bytes(b'{"label": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError):
        parse_config(str(broken))
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(base_config()))
    assert parse_config(str(good)).seed == 7
