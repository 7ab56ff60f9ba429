"""fairtime benchmark: end-to-end CLI timings plus a traced per-layer table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `fairtime simulate` or `fairtime regret` command on a
config in perfbench/workloads/, run with `--seed N` from the source tree in
src/.  A run first makes one warm-up setup process and one traced run (see
traced.py), then until S seconds have passed it alternates two fresh, untraced
processes: a setup probe (import fairtime.cli, parse the config, offline.solve)
and the full CLI command, which also times its own call to fairtime.cli.main.
End-to-end numbers are medians over those processes; per-layer numbers come
from the traced run only.  Every CLI run's CSVs are checked (checks.py).  The
run record and the spans go to perfbench/out/<workload>/seed<N>/, a readable
table to stdout, and the last stdout line is the JSON result: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  Metric names, units
and bounds are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# workload -> (CLI subcommand, worker threads, capped at nproc)
WORKLOADS = {
    "online_pareto2": ("simulate", 1),
    "srp_pareto2": ("simulate", 1),
    "regret_k8_delay3": ("regret", 2),
}
LAYERS = ("config", "offline", "distributions", "learning", "sim", "utility", "cli")
LEARNER_CALLS = ("decide", "target_rates", "update_queues", "ingest_feedback")
MIN_PAIRS = 3
# The shared host's CPU speed drifts by tens of percent over seconds to minutes,
# each CPU on its own, moving every timing of a run together.  A fixed pure-Python
# loop, timed in this process on the CPUs the workload runs on before and after
# each timed process, measures that speed, and each timing is scaled to a host on
# which the loop takes HOST_PROBE_NOMINAL_S.
HOST_PROBE_ITERS = 1_000_000
HOST_PROBE_NOMINAL_S = 0.08
CHILD_TIMEOUT_S = 120.0
SETUP_CODE = (
    "import sys\n"
    "import fairtime.cli\n"
    "from fairtime.config import parse_config\n"
    "from fairtime.offline import solve\n"
    "cfg = parse_config(sys.argv[1])\n"
    "solve(list(cfg.groups), cfg.deadlines, list(cfg.utilities))\n"
)
# the CLI command as `python -m fairtime.cli` runs it, writing the seconds spent
# in fairtime.cli.main (everything past interpreter start and import) to argv[1]
CLI_CODE = (
    "import sys, time\n"
    "import fairtime.cli\n"
    "start = time.perf_counter()\n"
    "code = fairtime.cli.main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(repr(time.perf_counter() - start))\n"
    "sys.exit(code)\n"
)


@dataclass(frozen=True)
class Run:
    code: int
    wall_s: float
    peak_rss_mb: float


def launch(argv: list[str], log_path: Path, env: dict) -> Run:
    """Run ``argv`` in a fresh process, stdout and stderr to ``log_path``,
    timed from launch to exit; killed after CHILD_TIMEOUT_S."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def host_probe_s(cpus: list[int]) -> float:
    """Seconds this host takes, right now, for a fixed pure-Python loop split
    evenly over ``cpus``; this process's CPU affinity is restored after."""
    mask = os.sched_getaffinity(0)
    start = time.perf_counter()
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            acc = 0.0
            for i in range(HOST_PROBE_ITERS // len(cpus)):
                acc += (i % 7) * 0.5
    finally:
        os.sched_setaffinity(0, mask)
    return time.perf_counter() - start


def to_nominal(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` measured between two host probes, scaled to the nominal host."""
    return seconds * 2 * HOST_PROBE_NOMINAL_S / (probe_before + probe_after)


def run_checked(argv, out_dir: Path, log_path: Path, env, config, expected):
    """Launch one CLI run into a fresh ``out_dir`` and check what it wrote.

    Returns (run, CSV digests, problems); a run fails when it exits non-zero
    or any check finds a problem.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    run = launch(argv, log_path, env)
    if run.code != 0:
        return run, {}, [f"exit code {run.code}, see {log_path}"]
    digests, problems = checks.check_outputs(str(out_dir), config, expected)
    return run, digests, problems


def task_problems(trace: dict, out_dir: Path) -> list[str]:
    """The traced task count must agree with what the program reports."""
    episodes = [s for s in trace["spans"] if s["name"].startswith("sim.run_episode")]
    counted = sum(s["units"] for s in episodes if s["parent"] == "sim.monte_carlo")
    reported = sum(r["mean_tasks"] * r["trials"] for r in trace["monte_carlo"])
    problems = []
    if abs(counted - reported) > 1e-9 * max(counted, 1):
        problems.append(f"traced task count {counted} != Monte Carlo total {reported}")
    trace_csv = out_dir / "trace.csv"
    if trace_csv.is_file():
        rows = len(trace_csv.read_text().splitlines()) - 1
        traced = [s["units"] for s in episodes if s["parent"] == "cli.main"]
        if traced != [rows]:
            problems.append(f"trace.csv has {rows} tasks, traced episode {traced}")
    return problems


def regret_slope(out_dir: Path) -> float | None:
    """The fitted log-log slope of a regret command, from its last CSV row."""
    path = out_dir / "regret.csv"
    if not path.is_file():
        return None
    return float(path.read_text().splitlines()[-1].split(",")[-1])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(trace: dict, traced_wall_s: float, wall_s: float, threads: int) -> dict:
    """Per-layer metrics of one traced run (see perfbench/README.md)."""
    stats = trace["stats"]

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def per_call(name: str, scale: float) -> float:
        return _ratio(get(name, "self") * scale, get(name, "calls"))

    online = get("sim.run_episode.online", "units")
    srp = get("sim.run_episode.srp", "units")
    tasks = online + srp
    mc_spans = [s for s in trace["spans"] if s["name"] == "sim.monte_carlo"]
    episodes = sorted(
        s["end"] - s["start"] for s in trace["spans"]
        if s["name"].startswith("sim.run_episode") and s["parent"] == "sim.monte_carlo"
    )
    draws = get("distributions.sample_completions", "units")
    sampling = get("distributions.sample_completions", "self") + get("distributions.base_rewards", "self")
    self_total = sum(st["self"] for st in stats.values())

    m = {f"learning.{c}_us": per_call(f"learning.{c}", 1e6) for c in LEARNER_CALLS}
    m["learning.calls_per_task"] = _ratio(sum(get(f"learning.{c}", "calls") for c in LEARNER_CALLS), online)
    m["sim.online_us_per_task"] = _ratio(get("sim.run_episode.online", "self") * 1e6, online)
    m["sim.srp_us_per_task"] = _ratio(get("sim.run_episode.srp", "self") * 1e6, srp)
    m["sim.episode_ms_p50"] = _nearest_rank(episodes, 0.50) * 1e3
    m["sim.episode_ms_p95"] = _nearest_rank(episodes, 0.95) * 1e3
    m["sim.tasks"] = tasks
    m["sim.mc_reduce_ms"] = per_call("sim.monte_carlo", 1e3)
    m["sim.pool_busy_frac"] = _ratio(sum(episodes), threads * sum(s["end"] - s["start"] for s in mc_spans))
    m["distributions.sample_us_per_draw"] = _ratio(sampling * 1e6, draws)
    m["distributions.draws_per_task"] = _ratio(draws, tasks)
    m["utility.total_utility_us"] = per_call("utility.total_utility", 1e6)
    m["fairtime.import_s"] = get("fairtime.import", "self")
    m["config.parse_ms"] = per_call("config.parse_config", 1e3)
    m["offline.moment_grid_ms"] = per_call("offline.moment_grid", 1e3)
    m["offline.solve_ms"] = per_call("offline.solve", 1e3)
    m["cli.write_csv_ms"] = get("cli.write_csv", "self") * 1e3
    m["cli.other_ms"] = (traced_wall_s - self_total) * 1e3
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * sum(st["self"] for name, st in stats.items()
                                          if name.split(".")[0] == layer)
    m["trace.wall_ms"] = traced_wall_s * 1e3
    m["trace_overhead_frac"] = (traced_wall_s - trace["probe_s"]) / wall_s - 1.0
    return m


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def count_failures(problem_lists: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) over the CLI runs' problem lists."""
    return len(problem_lists), sum(1 for p in problem_lists if p)


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fairtime" / "cli.py").is_file():
        print(f"error: no fairtime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    config_path = HERE / "workloads" / f"{args.workload}.json"
    config = json.loads(config_path.read_text())
    command, threads = WORKLOADS[args.workload]
    threads = min(threads, os.cpu_count() or 1)
    # a one-thread workload runs on one CPU, the one the host probe times; its
    # processes inherit this process's affinity
    cpus = sorted(os.sched_getaffinity(0))[:threads]
    os.sched_setaffinity(0, cpus)
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    expected = reference.get(str(args.seed))

    run_dir = OUT / args.workload / f"seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli_args = [command, str(config_path), "--out-dir", str(out_dir),
                "--seed", str(args.seed), "--threads", str(threads)]
    main_s_path = run_dir / "main_s.txt"
    cli_argv = [sys.executable, "-c", CLI_CODE, str(main_s_path)] + cli_args
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    trace_path = run_dir / "trace.json"
    traced_argv = [sys.executable, str(HERE / "traced.py"), str(trace_path)] + cli_args

    started = time.perf_counter()
    deadline = started + args.seconds
    # warm-up: fills the file cache and bytecode cache, and stops here if the
    # package cannot even be imported
    if launch(setup_argv, run_dir / "setup.log", env).code != 0:
        print(f"error: setup probe failed, see {run_dir / 'setup.log'}", file=sys.stderr)
        return 1

    traced, digests, problems = run_checked(traced_argv, out_dir, run_dir / "traced.log",
                                            env, config, expected)
    if traced.code != 0:
        print(f"error: traced run failed, see {run_dir / 'traced.log'}", file=sys.stderr)
        return 1
    trace = json.loads(trace_path.read_text())
    problems += task_problems(trace, out_dir)
    if expected is None and not problems:
        expected = digests  # later runs must reproduce the traced run's bytes
    outcomes = [problems]
    setups, runs, mains, probes = [], [], [], [host_probe_s(cpus)]
    nominal = {"wall_s": [], "setup_s": [], "main_s": []}
    while True:
        pair_start = time.perf_counter()
        setups.append(launch(setup_argv, run_dir / "setup.log", env))
        probes.append(host_probe_s(cpus))
        nominal["setup_s"].append(to_nominal(setups[-1].wall_s, *probes[-2:]))
        main_s_path.unlink(missing_ok=True)
        run, _, problems = run_checked(cli_argv, out_dir, run_dir / "cli.log", env, config, expected)
        probes.append(host_probe_s(cpus))
        outcomes.append(problems)
        if run.code == 0:  # timed even if its output is wrong; it counts as failed
            runs.append(run)
            mains.append(float(main_s_path.read_text()))
            nominal["wall_s"].append(to_nominal(run.wall_s, *probes[-2:]))
            nominal["main_s"].append(to_nominal(mains[-1], *probes[-2:]))
        now = time.perf_counter()
        if len(setups) >= MIN_PAIRS and now + (now - pair_start) > deadline:
            break
    if not runs or any(s.code != 0 for s in setups):
        print(f"error: no timed run exited 0, see {run_dir}", file=sys.stderr)
        return 1

    attempted, failed = count_failures(outcomes)
    median = {name: statistics.median(values) for name, values in nominal.items()}
    per_layer = layer_metrics(trace, traced.wall_s, statistics.median(r.wall_s for r in runs), threads)
    end_to_end = {
        "wall_s": median["wall_s"],
        "setup_s": median["setup_s"],
        "tasks_per_s": per_layer["sim.tasks"] / median["main_s"],
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "success_rate": 1.0 - failed / attempted,
    }
    for name in units:
        if name not in end_to_end and name not in per_layer:
            raise KeyError(f"BENCHMARK.json names {name}, which the benchmark does not compute")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - started,
        "command": ["fairtime"] + cli_args,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": [p for ps in outcomes for p in ps],
        "samples": {
            "wall_s": [r.wall_s for r in runs],
            "setup_s": [s.wall_s for s in setups],
            "main_s": mains,
            "host_probe_s": probes,
            "nominal": nominal,
            "peak_rss_mb": [r.peak_rss_mb for r in runs],
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "result": {"monte_carlo": trace["monte_carlo"], "slope": regret_slope(out_dir),
                   "csv_sha256": digests},
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"fairtime benchmark: workload {args.workload}, seed {args.seed}, threads {threads}, "
          f"{attempted} CLI runs ({attempted - 1} timed + 1 traced), {failed} failed")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    _print_table(f"end to end (medians of {len(runs)} runs and {len(setups)} setup probes, "
                 f"timings scaled to a host probe of {HOST_PROBE_NOMINAL_S} s)", end_to_end, units)
    print(f"  unscaled medians: wall {statistics.median(r.wall_s for r in runs):.4g} s, "
          f"setup {statistics.median(s.wall_s for s in setups):.4g} s, "
          f"cli.main {statistics.median(mains):.4g} s, host probe {statistics.median(probes):.4g} s")
    _print_table(f"per layer (traced run, {traced.wall_s:.3f} s)", per_layer, units)
    print(f"record: {run_dir / 'record.json'}")
    chosen = per_layer if args.trace else end_to_end
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": chosen[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
