import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairtime
from fairtime.cli import main

CONFIG_DIR = Path(__file__).parent.parent / "configs"

SUMMARY_HEADER = [
    "policy", "alpha", "budget", "v", "trials", "group", "label",
    "mean_time_share", "se_time_share", "mean_reward_rate", "se_reward_rate",
    "utility", "regret",
]


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "schema_version": 1,
        "seed": 99,
        "groups": [
            {
                "label": "group1",
                "completion": {"pareto": {"scale": 1.0, "shape": 1.2}},
                "reward": {"power_of_time": {"exponent": 0.6}},
            },
            {
                "label": "group2",
                "completion": {"pareto": {"scale": 1.0, "shape": 1.4}},
                "reward": {"power_of_time": {"exponent": 0.2}},
            },
        ],
        "deadlines": [1.5, 2, 3, 4, 5, 7, 10, 15, 20],
        "utility": {"alpha": 1.0},
        "experiment": {"kind": "simulate", "policy": "oracle_srp", "budget": 300, "trials": 8},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_offline_subcommand(tmp_path, capsys):
    code = main(["offline", str(CONFIG_DIR / "two_group_offline.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "offline.csv")
    assert rows[0] == ["group", "label", "deadline", "rate", "mean_processing_time",
                       "mean_reward", "time_share", "selection", "multiplier",
                       "utility_rate"]
    assert len(rows) == 3
    # proportional fairness splits the budget evenly
    assert float(rows[1][6]) == pytest.approx(0.5, abs=1e-9)
    assert float(rows[2][6]) == pytest.approx(0.5, abs=1e-9)
    assert "multiplier = 2" in capsys.readouterr().out


def test_moments_subcommand(tmp_path):
    code = main(["moments", write_config(tmp_path), "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "moments.csv")
    assert rows[0] == ["group", "label", "deadline", "mean_processing_time",
                       "expected_reward", "rate"]
    assert len(rows) == 1 + 2 * 9


def test_simulate_oracle_srp(tmp_path):
    code = main(["simulate", write_config(tmp_path), "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "summary.csv")
    assert rows[0] == SUMMARY_HEADER
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["oracle_srp", "oracle_srp"]
    assert [r[5] for r in rows[1:]] == ["1", "2"]
    assert rows[1][3] == ""  # v is not applicable to SRP policies


def test_simulate_online_auto_v_echo(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "simulate", "policy": "online", "budget": 200, "trials": 4},
    )
    assert main(["simulate", cfg, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "auto: sqrt(budget/log(budget))" in out
    rows = read_rows(tmp_path / "summary.csv")
    assert float(rows[1][3]) == pytest.approx(math.sqrt(200 / math.log(200)))


def test_simulate_trace_written(tmp_path):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "simulate", "policy": "online", "budget": 100, "trials": 4},
        v=15.0,
        trace=True,
    )
    assert main(["simulate", cfg, "--out-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert rows[0] == ["task", "group", "deadline", "elapsed", "reward",
                       "queue_1", "queue_2", "target_rate_1", "target_rate_2"]
    assert len(rows) > 20
    assert [r[0] for r in rows[1:4]] == ["1", "2", "3"]



@pytest.mark.parametrize("policy", [
    "online",
    "oracle_srp",
    pytest.param({"srp": {"selection": [0.5, 0.5], "deadlines": [7, 4]}}, id="srp"),
])
def test_simulate_solves_the_offline_problem_once(tmp_path, monkeypatch, policy):
    # the oracle policy and the regret baseline share one offline solution
    import fairtime.offline
    import fairtime.sim

    real_solve, calls = fairtime.offline.solve, []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    for module in (fairtime.cli, fairtime.offline, fairtime.sim):
        monkeypatch.setattr(module, "solve", counting_solve)
    cfg = write_config(
        tmp_path,
        experiment={"kind": "simulate", "policy": policy, "budget": 100, "trials": 2},
    )
    assert main(["simulate", cfg, "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1

def test_regret_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "regret", "budget_grid": [50, 100, 400, 2000], "trials": 4},
    )
    assert main(["regret", cfg, "--out-dir", str(tmp_path)]) == 0
    assert "v per point: sqrt(budget/log(budget))" in capsys.readouterr().out
    rows = read_rows(tmp_path / "regret.csv")
    assert rows[0] == ["budget", "v", "regret", "stderr", "slope_fit"]
    assert len(rows) == 1 + 4 + 1            # one row per budget plus the slope row
    assert [r[0] for r in rows[1:5]] == ["50", "100", "400", "2000"]
    assert all(r[4] == "" for r in rows[1:5])
    assert rows[5][:4] == ["", "", "", ""]
    float(rows[5][4])  # the slope parses as a number


def test_seed_and_trials_overrides(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path),
                 "--seed", "123", "--trials", "6"]) == 0
    rows = read_rows(tmp_path / "summary.csv")
    assert rows[1][4] == "6"


def test_byte_identical_outputs_across_runs_and_threads(tmp_path):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "simulate", "policy": "online", "budget": 200, "trials": 10},
        v=10.0,
    )
    bodies = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"run{i}"
        out.mkdir()
        assert main(["simulate", cfg, "--out-dir", str(out), "--threads", threads]) == 0
        bodies.append((out / "summary.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    assert main(["offline", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


NON_FINITE = "@non-finite@"


@pytest.mark.parametrize(
    "literal", ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
    ids=["inf", "-inf", "nan", "1e400", "10**400"],
)
@pytest.mark.parametrize(
    "mutate,path",
    [
        pytest.param(lambda d: d.update(v=NON_FINITE), "v", id="v"),
        pytest.param(lambda d: d.update(target_rate_cap=NON_FINITE), "target_rate_cap",
                     id="target_rate_cap"),
        pytest.param(lambda d: d.update(utility={"alpha": NON_FINITE}), "utility.alpha",
                     id="alpha"),
        pytest.param(lambda d: d["groups"][0].update(
            completion={"pareto": {"scale": NON_FINITE, "shape": 1.2}}),
            "groups[0].completion.pareto.scale", id="pareto_scale"),
        pytest.param(lambda d: d["groups"][1].update(reward={"constant": {"value": NON_FINITE}}),
                     "groups[1].reward.constant.value", id="constant_value"),
        pytest.param(lambda d: d["groups"][0].update(weight=NON_FINITE), "groups[0].weight",
                     id="weight"),
        pytest.param(lambda d: d["experiment"].update(budget=NON_FINITE), "experiment.budget",
                     id="budget"),
    ],
)
def test_non_finite_numbers_exit_2_with_field_path(tmp_path, capsys, mutate, path, literal):
    data = json.loads(Path(write_config(tmp_path)).read_text())
    mutate(data)
    cfg = tmp_path / "non_finite.json"
    cfg.write_text(json.dumps(data).replace(f'"{NON_FINITE}"', literal))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg = write_config(tmp_path)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path), "--threads", threads]) == 2
    assert "config error at threads:" in capsys.readouterr().err


OUTPUT_COMMANDS = {
    "offline": ({"kind": "offline"}, "offline.csv"),
    "simulate": ({"kind": "simulate", "policy": "oracle_srp", "budget": 300, "trials": 8},
                 "summary.csv"),
    "regret": ({"kind": "regret", "budget_grid": [50, 100, 400, 2000], "trials": 2},
               "regret.csv"),
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_unwritable_output_paths_exit_2_with_out_dir(tmp_path, capsys, command):
    experiment, csv_name = OUTPUT_COMMANDS[command]
    cfg = write_config(tmp_path, experiment=experiment)
    # --out-dir names an existing file
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main([command, cfg, "--out-dir", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert "config error at out_dir:" in err and str(blocker) in err
    # the CSV path is a directory
    out = tmp_path / "out"
    (out / csv_name).mkdir(parents=True)
    assert main([command, cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at out_dir:" in err and str(out / csv_name) in err


def assert_imports_no_scipy(tmp_path, command, cfg):
    code = (
        "import sys\n"
        "import fairtime.cli\n"
        f"code = fairtime.cli.main([{command!r}, {cfg!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(fairtime.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_pareto_simulate_does_not_import_scipy(tmp_path):
    assert_imports_no_scipy(tmp_path, "simulate", write_config(tmp_path))


def test_exp_pow_regret_does_not_import_scipy(tmp_path):
    # the Exponential + PowerOfTime moment takes the in-tree quadrature
    cfg = write_config(
        tmp_path,
        groups=[
            {"label": "exp_pow", "completion": {"exponential": {"rate": 0.5}},
             "reward": {"power_of_time": {"exponent": 0.8}}},
            {"label": "group2", "completion": {"pareto": {"scale": 1.0, "shape": 1.4}},
             "reward": {"power_of_time": {"exponent": 0.2}}},
        ],
        experiment={"kind": "regret", "budget_grid": [50, 100, 400, 2000], "trials": 2},
    )
    assert_imports_no_scipy(tmp_path, "regret", cfg)


def test_kind_mismatch_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment={"kind": "offline"})
    assert main(["simulate", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "experiment.kind" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        groups=[
            {
                "label": "never-finishes",
                "completion": {"deterministic": {"value": 50.0}},
                "reward": {"constant": {"value": 1.0}},
            }
        ],
        deadlines=[1.0, 2.0],
        experiment={"kind": "offline"},
    )
    assert main(["offline", cfg, "--out-dir", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("group1", [
    # E[X**50] = 50! / rate**50 overflows float64 for rate 1e-6
    {"exponential": {"rate": 1e-6}},
    {"deterministic": {"value": 1e10}},
    {"empirical": {"samples": [1e10, 2.0]}},
], ids=["exponential", "deterministic", "empirical"])
@pytest.mark.parametrize("command", ["offline", "moments"])
def test_overflowing_moment_exits_3_naming_group_and_deadline(tmp_path, capsys, command, group1):
    cfg = write_config(
        tmp_path,
        groups=[
            {"label": "huge", "completion": group1,
             "reward": {"power_of_time": {"exponent": 50.0}}},
            {"label": "group2", "completion": {"pareto": {"scale": 1.0, "shape": 1.4}},
             "reward": {"power_of_time": {"exponent": 0.2}}},
        ],
        deadlines=[1.5, 2, 1e12],
        experiment={"kind": "offline"},
    )
    assert main([command, cfg, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "'huge'" in err and "deadline 1e+12" in err
    assert not (tmp_path / f"{command}.csv").exists()
