"""Tests of the benchmark's own logic: span accounting, output checks and
failure counting.  They run no workload."""

import json
import os
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SRP_CONFIG = json.loads((run.HERE / "workloads" / "srp_pareto2.json").read_text())
SUMMARY = (
    ",".join(checks.SUMMARY_HEADER) + "\r\n"
    "oracle_srp,1,4000,,2000,1,group1,0.5,0.001,0.2,0.001,-2.8,0.01\r\n"
    "oracle_srp,1,4000,,2000,2,group2,0.5,0.001,0.25,0.001,-2.8,0.01\r\n"
)


class Clock:
    """A clock that reads whatever the test last set."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_calls(tracer, clock, events):
    """Replay (time, "open" name | "close" units) events on the tracer."""
    open_spans = []
    for when, action, arg in events:
        clock.now = when
        if action == "open":
            open_spans.append(tracer.open(arg))
        else:
            tracer.close(open_spans.pop(), units=arg)


def test_self_time_of_nested_spans():
    # a: 0..10 holds b: 2..6 (which holds c: 3..4) and d: 7..8; e: 12..13
    clock = Clock()
    t = Tracer(clock=clock, cpu_clock=clock, keep=("a", "c"))
    traced_calls(t, clock, [
        (0, "open", "a"), (2, "open", "b"), (3, "open", "c"), (4, "close", 0),
        (6, "close", 0), (7, "open", "d"), (8, "close", 0), (10, "close", 0),
        (12, "open", "e"), (13, "close", 0),
    ])
    totals = t.totals()
    assert {n: st["self"] for n, st in totals.items()} == {"a": 5, "b": 3, "c": 1, "d": 1, "e": 1}
    assert totals["a"]["total"] == 10 and totals["b"]["total"] == 4
    assert [(s["name"], s["parent"], s["start"], s["end"]) for s in t.dump()["spans"]] == [
        ("c", "b", 3, 4), ("a", None, 0, 10)]


def test_pool_thread_is_charged_its_own_cpu_time_only():
    # monte_carlo: 0..6 on the main thread, which works 0..1 and 5..6 and
    # waits in between; the episode runs 1..5 in a pool thread, holding the
    # interpreter lock for 3 of those 4 seconds
    wall = Clock()
    cpu = {"MainThread": 0.0, "pool": 0.0}
    t = Tracer(clock=wall, cpu_clock=lambda: cpu[threading.current_thread().name],
               keep=("episode",))

    def episode():
        wall.now = 1
        span = t.open("episode")
        wall.now, cpu["pool"] = 5, 3
        t.close(span, units=7)

    mc = t.open("monte_carlo")
    worker = threading.Thread(target=episode, name="pool")
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    wall.now, cpu["MainThread"] = 6, 2
    t.close(mc)

    totals = t.totals()
    assert (totals["monte_carlo"]["self"], totals["episode"]["self"]) == (2, 3)
    assert (totals["monte_carlo"]["total"], totals["episode"]["total"]) == (6, 4)
    assert totals["episode"]["units"] == 7
    assert t.spans[0].parent is mc


def test_layer_self_times_and_other_add_up_to_the_wall():
    # import 0..1; cli.main 2..11 holds monte_carlo 3..8 (episode 4..7, draw
    # 5..6) and write_csv 9..10; the process ends at 12
    clock = Clock()
    t = Tracer(clock=clock, cpu_clock=clock,
               keep=("sim.monte_carlo", "sim.run_episode.srp", "cli.main"))
    traced_calls(t, clock, [
        (0, "open", "fairtime.import"), (1, "close", 0), (2, "open", "cli.main"),
        (3, "open", "sim.monte_carlo"), (4, "open", "sim.run_episode.srp"),
        (5, "open", "distributions.sample_completions"), (6, "close", 1024),
        (7, "close", 500), (8, "close", 0), (9, "open", "cli.write_csv"),
        (10, "close", 0), (11, "close", 0),
    ])
    trace = dict(t.dump(), probe_s=0.0, monte_carlo=[])

    m = run.layer_metrics(trace, traced_wall_s=12.0, wall_s=8.0, threads=1)
    layers = sum(m[f"{layer}.self_ms"] for layer in run.LAYERS)
    assert m["fairtime.import_s"] * 1e3 + layers + m["cli.other_ms"] == m["trace.wall_ms"] == 12e3
    assert (m["cli.self_ms"], m["sim.self_ms"], m["cli.other_ms"]) == (4e3, 4e3, 2e3)
    assert m["sim.srp_us_per_task"] == 2e6 / 500
    assert m["sim.tasks"] == 500 and m["sim.pool_busy_frac"] == 3 / 5
    assert m["distributions.draws_per_task"] == 1024 / 500
    assert m["trace_overhead_frac"] == 0.5


def test_hash_check_catches_one_flipped_byte(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_bytes(SUMMARY.encode())
    digests, problems = checks.check_outputs(str(tmp_path), SRP_CONFIG, None)
    assert problems == []
    assert checks.check_outputs(str(tmp_path), SRP_CONFIG, digests)[1] == []

    data = bytearray(path.read_bytes())
    data[data.index(b"0.2,")] ^= 0x01  # 0.2 -> 0.3: still a well-formed summary
    path.write_bytes(bytes(data))
    assert checks.check_outputs(str(tmp_path), SRP_CONFIG, None)[1] == []
    assert checks.check_outputs(str(tmp_path), SRP_CONFIG, digests)[1] == [
        "summary.csv: sha256 differs from the reference"]


def test_structure_check_rejects_shares_that_do_not_sum_to_one(tmp_path):
    (tmp_path / "summary.csv").write_text(SUMMARY.replace(",0.5,0.001,0.25", ",0.4,0.001,0.25"))
    _, problems = checks.check_outputs(str(tmp_path), SRP_CONFIG, None)
    assert problems == [f"{tmp_path / 'summary.csv'}: time shares do not sum to 1"]


def test_nonzero_exit_and_missing_output_count_as_failures(tmp_path):
    env = dict(os.environ)
    failing = [sys.executable, "-c", "import sys; sys.exit(3)"]
    silent = [sys.executable, "-c", "pass"]
    outcomes = []
    for argv in (failing, silent):
        result, digests, problems = run.run_checked(
            argv, tmp_path / "csv", tmp_path / "log", env, SRP_CONFIG, None)
        outcomes.append(problems)
    assert outcomes[0] == [f"exit code 3, see {tmp_path / 'log'}"]
    assert outcomes[1] == ["summary.csv: missing"]
    assert run.count_failures(outcomes + [[]]) == (3, 2)


def test_cli_launcher_times_main_and_passes_its_exit_code_on(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    main_s = tmp_path / "main_s.txt"
    argv = [sys.executable, "-c", run.CLI_CODE, str(main_s),
            "simulate", str(tmp_path / "missing.json")]
    result = run.launch(argv, tmp_path / "log", env)
    assert result.code == 2  # fairtime's exit code for a config error
    assert 0 < float(main_s.read_text()) < result.wall_s


def test_timings_are_scaled_by_the_host_probes_around_them():
    nominal = run.HOST_PROBE_NOMINAL_S
    assert run.to_nominal(2.0, nominal, nominal) == 2.0
    # the probes ran at half speed on average, so the host was slow by 2x
    assert run.to_nominal(2.0, 1.5 * nominal, 2.5 * nominal) == 1.0


def test_host_probe_restores_the_cpu_affinity():
    mask = os.sched_getaffinity(0)
    assert run.host_probe_s(sorted(mask)) > 0
    assert os.sched_getaffinity(0) == mask
