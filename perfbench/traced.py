"""Run one fairtime CLI command with a span around every call into a layer.

    PYTHONPATH=src python perfbench/traced.py TRACE.json CLI_ARG...

The package is imported under a span, then each traced function is replaced,
for this process only, in every fairtime module namespace that holds it;
nothing under src/ changes.  After the command, ``offline.moment_grid`` is
timed on the command's config, because no simulate or regret path calls it.
The spans, per-name totals and each Monte Carlo result go to TRACE.json, and
the process exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer

MOMENT_GRID_PROBES = 5

# spans kept whole in TRACE.json; the rest are folded into per-name totals
KEEP = (
    "fairtime.import", "cli.main", "cli.write_csv", "config.parse_config",
    "offline.solve", "offline.moment_grid", "sim.regret_curve", "sim.monte_carlo",
    "sim.run_episode.online", "sim.run_episode.srp",
)


def _episode_name(args) -> str:
    from fairtime.sim import SrpPolicy

    return "sim.run_episode." + ("srp" if isinstance(args[3], SrpPolicy) else "online")


def instrument(tracer: Tracer, mc_results: list) -> None:
    import fairtime.cli
    from fairtime import config, distributions, offline, sim, utility
    from fairtime.learning import OnlineLearner

    def mc_units(args, res):
        mc_results.append({
            "budget": args[4], "trials": res.trials, "regret": res.regret,
            "floored_frac": res.floored_frac, "mean_tasks": res.mean_tasks,
        })
        return res.trials

    functions = [
        (fairtime.cli.main, "cli.main", None),
        (fairtime.cli._write_csv, "cli.write_csv", None),
        (config.parse_config, "config.parse_config", None),
        (offline.solve, "offline.solve", None),
        (offline.moment_grid, "offline.moment_grid", None),
        (sim.regret_curve, "sim.regret_curve", None),
        (sim.monte_carlo, "sim.monte_carlo", mc_units),
        (sim.run_episode, _episode_name, lambda args, res: res.n_tasks),
        (distributions.sample_completions, "distributions.sample_completions",
         lambda args, res: args[2]),
        (distributions.base_rewards, "distributions.base_rewards",
         lambda args, res: res.size),
        (utility.total_utility, "utility.total_utility", None),
    ]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fairtime"]
    for fn, name, units in functions:
        wrapped = tracer.wrap(fn, name, units)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    for method in ("decide", "target_rates", "update_queues", "ingest_feedback"):
        setattr(OnlineLearner, method,
                tracer.wrap(getattr(OnlineLearner, method), f"learning.{method}"))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(keep=KEEP)
    with tracer.span("fairtime.import"):
        import fairtime.cli
    from fairtime import offline
    from fairtime.config import parse_config  # bound before wrapping: the probe's parse is not traced

    mc_results: list = []
    instrument(tracer, mc_results)
    code = fairtime.cli.main(cli_args)

    cfg = parse_config(cli_args[1])
    start = time.perf_counter()
    for _ in range(MOMENT_GRID_PROBES):
        offline.moment_grid(list(cfg.groups), cfg.deadlines)
    trace = tracer.dump()
    trace["probe_s"] = time.perf_counter() - start
    trace["exit_code"] = code
    trace["monte_carlo"] = mc_results
    with open(out_path, "w") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
