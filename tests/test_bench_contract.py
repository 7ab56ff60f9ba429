"""The benchmark's instrumentation contract.

``perfbench/traced.py`` times each layer by replacing names in fairtime's
module namespaces (``sim.run_episode``, the samplers ``_draw_stages`` reaches
through ``sim``'s globals, the learner's methods).  If fairtime stops calling
a traced name, the benchmark's per-layer metrics read zero instead of
failing, so each workload is run here traced, with two trials and its
outputs in a temporary directory, and its spans are checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

TRIALS = 2


def run_traced(tmp_path, command, config_path, threads=1):
    """Run one CLI command under ``traced.py`` with ``TRIALS`` trials; return
    its trace and its output directory."""
    out_dir, trace_path = tmp_path / "csv", tmp_path / "trace.json"
    argv = [sys.executable, str(PERFBENCH / "traced.py"), str(trace_path), command, str(config_path),
            "--out-dir", str(out_dir), "--trials", str(TRIALS),
            "--threads", str(min(threads, os.cpu_count() or 1))]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(trace_path.read_text()), out_dir


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_workload_calls_every_traced_layer(workload, tmp_path):
    command, threads = run.WORKLOADS[workload]
    config_path = PERFBENCH / "workloads" / f"{workload}.json"
    config = json.loads(config_path.read_text())
    trace, out_dir = run_traced(tmp_path, command, config_path, threads)
    assert run.task_problems(trace, out_dir) == []
    calls = {name: stat["calls"] for name, stat in trace["stats"].items()}
    assert calls.get("distributions.sample_completions", 0) > 0
    assert calls.get("distributions.base_rewards", 0) > 0
    experiment = config["experiment"]
    if experiment["kind"] == "regret" or experiment["policy"] == "online":
        assert calls.get("learning.decide", 0) > 0
        assert calls.get("learning.ingest_feedback", 0) > 0
    points = len(experiment.get("budget_grid", [experiment.get("budget")]))
    episodes = [s for s in trace["spans"] if s["name"].startswith("sim.run_episode.")]
    assert len(episodes) == TRIALS * points + bool(config.get("trace"))


def test_traced_episode_counts_its_trace_rows_when_the_last_task_is_truncated(tmp_path):
    # with truncate_last the Monte Carlo totals drop the crossing task, but
    # trace.csv still lists it; the traced episode must report as many tasks
    config = json.loads((PERFBENCH / "workloads" / "online_pareto2.json").read_text())
    config["truncate_last"] = True
    config["experiment"]["budget"] = 300
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    trace, out_dir = run_traced(tmp_path, "simulate", config_path)
    assert (out_dir / "trace.csv").is_file()
    assert run.task_problems(trace, out_dir) == []
