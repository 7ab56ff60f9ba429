"""``tools/bench_record.py`` on synthetic record directories: the seed-matched
pairs, the change's wins in each metric's better direction and the parent's
IQR that a claimed gain is judged by."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def write_records(out_dir, workload, table):
    """One record per seed: ``table`` maps seed to (tasks_per_s, wall_s)."""
    for seed, (tasks_per_s, wall_s) in table.items():
        path = bench_record.record_path(out_dir, workload, seed)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "end_to_end": {"wall_s": wall_s, "tasks_per_s": tasks_per_s, "success_rate": 1.0},
            "per_layer": {"sim.tasks": 100.0},
            "failed": 0,
            "attempted": 10,
        }))


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0], [0.1, 7.0, 2.5, 2.5]])
def test_iqr_interpolates_as_numpy_percentile(values):
    expected = 0.0 if len(values) < 2 else np.percentile(values, 75) - np.percentile(values, 25)
    assert bench_record.iqr(values) == pytest.approx(expected)


def test_claim_rule_counts_pairs_wins_and_parent_iqr(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "online_pareto2", {1: (100.0, 0.40), 2: (110.0, 0.38), 3: (90.0, 0.41), 4: (120.0, 0.30)})
    # seed 3 loses on both metrics, seed 4 ties wall_s; seed 5 has no parent record
    write_records(change, "online_pareto2", {1: (130.0, 0.35), 2: (140.0, 0.33), 3: (80.0, 0.45), 4: (150.0, 0.30),
                                             5: (999.0, 0.01)})
    write_records(parent, "srp_pareto2", {1: (5.0, 1.0)})
    log = tmp_path / "tier1.log"
    log.write_text("18.50s call     tests/test_acceptance.py::test_07_regret_slope\n"
                   "476 passed, 2 warnings in 67.40s (0:01:07)\n")
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change), "--seeds", "1", "2", "3", "4", "5",
                              "--tier1", str(log), "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert list(bench["workloads"]) == ["online_pareto2"]
    online = bench["workloads"]["online_pareto2"]
    assert online["seeds"] == [1, 2, 3, 4]
    rule = online["claim_rule"]
    assert rule["tasks_per_s"] == {"pairs": 4, "change_wins": 3,
                                   "parent_iqr": pytest.approx(np.subtract(*np.percentile([100, 110, 90, 120], [75, 25])))}
    assert rule["wall_s"]["pairs"] == 4 and rule["wall_s"]["change_wins"] == 2
    assert rule["success_rate"]["change_wins"] == 0
    assert "peak_rss_mb" not in rule  # no record holds it
    assert online["change_over_parent"]["tasks_per_s"] == pytest.approx(135.0 / 105.0)
    assert bench["tier1"] == {"passed": 476, "failed": 0, "errors": 0, "wall_s": 67.4, "test_07_s": 18.5}
    assert bench["src_lines"]["total"] == sum(v for k, v in bench["src_lines"].items() if k != "total")
    # tmp_path/"parent" is no checkout's perfbench/out
    assert "parent_src_lines" not in bench and "parent_src_code_lines" not in bench


@pytest.mark.parametrize("summary, expected", [
    ("2 failed, 511 passed, 1 error in 70.12s", {"passed": 511, "failed": 2, "errors": 1, "wall_s": 70.12}),
    ("1 failed in 3.2s", {"passed": 0, "failed": 1, "errors": 0, "wall_s": 3.2}),
    ("===== 3 passed, 2 errors, 1 warning in 1.50s (0:00:01) =====",
     {"passed": 3, "failed": 0, "errors": 2, "wall_s": 1.5}),
])
def test_tier1_records_failures_and_errors(tmp_path, summary, expected):
    log = tmp_path / "tier1.log"
    log.write_text(f"FAILED tests/test_a.py::test_b - assert 1 == 2\n{summary}\n")
    assert bench_record.tier1(log) == {**expected, "test_07_s": None}


def test_parent_checkout_line_counts(tmp_path):
    # a parent checkout two levels above its perfbench/out, with two modules
    parent = tmp_path / "parent_checkout" / "perfbench" / "out"
    package = tmp_path / "parent_checkout" / "src" / "fairtime"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc\nstring."""\n\nX = 1  # one\n\n\ndef f():\n    """Doc."""\n    return X\n')
    (package / "b.py").write_text("# only a comment\n")
    write_records(parent, "online_pareto2", {1: (1.0, 1.0)})
    write_records(tmp_path / "change", "online_pareto2", {1: (1.0, 1.0)})
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(tmp_path / "change"),
                              "--seeds", "1", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["parent_src_lines"] == {"a.py": 9, "b.py": 1, "total": 10}
    assert bench["parent_src_code_lines"] == {"a.py": 3, "b.py": 0, "total": 3}
    assert bench["src_code_lines"] == bench_record.src_counts(TOOL.parents[1])[1]


def test_every_workload_in_the_benchmark_file_is_recorded(tmp_path, monkeypatch):
    # a workload added to BENCHMARK.json is recorded without a change to the tool
    benchmark = json.loads(bench_record.BENCHMARK.read_text())
    benchmark["workloads"].append({"name": "online_k8", "why": "a fourth workload"})
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark))
    monkeypatch.setattr(bench_record, "BENCHMARK", path)
    for side in ("parent", "change"):
        write_records(tmp_path / side, "online_pareto2", {1: (1.0, 1.0)})
        write_records(tmp_path / side, "online_k8", {1: (2.0, 1.0)})
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--seeds", "1", "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())["workloads"]) == ["online_pareto2", "online_k8"]


def test_no_shared_seed_is_an_error(tmp_path):
    write_records(tmp_path / "parent", "online_pareto2", {1: (1.0, 1.0)})
    write_records(tmp_path / "change", "online_pareto2", {2: (1.0, 1.0)})
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                              "--seeds", "1", "2", "--out", str(tmp_path / "BENCH.json")]) == 1


@pytest.mark.parametrize("value, recorded", [(None, False), ("", False), ("1", True), ("x", True)])
def test_host_records_whether_bytecode_writing_is_off(monkeypatch, value, recorded):
    # Python writes no bytecode when the variable is non-empty, and the
    # benchmark's processes inherit it
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_record.host()["PYTHONDONTWRITEBYTECODE"] is recorded
