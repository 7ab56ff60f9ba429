"""Command-line experiment driver.

    fairtime offline  <config.json>   solve and print the optimal policy
    fairtime simulate <config.json>   Monte Carlo run of the configured policy
    fairtime regret   <config.json>   learner regret across a budget grid
    fairtime moments  <config.json>   moment table over the deadline menu

Outputs are CSV files in --out-dir plus a human-readable summary on stdout:
each command prints each of its rows and collects it for the CSV in one
loop, and one ``_write_csv`` writes and reports every file.  CSV bodies are
byte-identical for identical config + seed; trials always run serially, so
--threads does not change them.  Exit codes: 0 success, 2 configuration or
--out-dir error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    RegretExperiment,
    SimulateExperiment,
    parse_config,
)
from .learning import LearnerParams
from .offline import NumericalError, moment_grid, solve
from .sim import SrpPolicy, default_v, monte_carlo, regret_curve, run_episode


# rows of a float64 table that _write_csv lists as Python floats at once, so
# writing a table holds one slice's objects, not the whole table's
_TABLE_SLICE = 256


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(out_dir: str, name: str, header: list[str], rows, note: str = "") -> None:
    """Write ``header`` and ``rows`` to ``out_dir/name`` and print its path and ``note``.

    ``rows`` is a list of rows, each cell written by ``_fmt``, or a float64
    table, written one ``"%.12g"`` format per row: the rule ``_fmt`` applies to
    a float, so both give the same bytes.  A table is listed and written
    ``_TABLE_SLICE`` rows at a time, so its Python objects never outnumber a
    slice's.  Only mixed rows go through ``csv.writer``, since a label may
    need quoting.
    """
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            if isinstance(rows, np.ndarray):
                line = ",".join(["%.12g"] * rows.shape[1]) + writer.dialect.lineterminator
                for start in range(0, len(rows), _TABLE_SLICE):
                    part = rows[start:start + _TABLE_SLICE].tolist()
                    fh.writelines(line % row for row in map(tuple, part))
            else:
                for row in rows:
                    writer.writerow([_fmt(cell) for cell in row])
    except OSError as exc:
        raise ConfigError([("out_dir", str(exc))]) from exc
    print(f"wrote {path}{note}")


def _cmd_offline(cfg: ExperimentConfig, out_dir: str) -> int:
    solution = solve(cfg.groups, cfg.deadlines, cfg.utilities)
    header = ["group", "label", "deadline", "rate", "mean_processing_time", "mean_reward",
              "time_share", "selection", "multiplier", "utility_rate"]
    rows = []
    print(f"{'group':>5} {'label':>10} {'deadline':>9} {'rate':>10} "
          f"{'proc_time':>10} {'reward':>10} {'share':>8} {'select':>8}")
    for st, phi, sel in zip(solution.stats, solution.time_shares, solution.selection):
        print(f"{st.group + 1:>5} {st.label:>10} {st.deadline:>9.4g} {st.rate:>10.6f} "
              f"{st.mean_processing_time:>10.6f} {st.mean_reward:>10.6f} "
              f"{phi:>8.4f} {sel:>8.4f}")
        rows.append([st.group + 1, st.label, st.deadline, st.rate, st.mean_processing_time,
                     st.mean_reward, phi, sel, solution.multiplier, solution.utility_rate])
    print(f"multiplier = {solution.multiplier:.10g}")
    print(f"utility rate = {solution.utility_rate:.10g}")
    if solution.excluded:
        print(f"excluded (no achievable reward): groups {[i + 1 for i in solution.excluded]}")
    _write_csv(out_dir, "offline.csv", header, rows)
    return 0


def _cmd_moments(cfg: ExperimentConfig, out_dir: str) -> int:
    mu, theta = moment_grid(cfg.groups, cfg.deadlines)
    header = ["group", "label", "deadline", "mean_processing_time", "expected_reward", "rate"]
    rows = []
    print(f"{'group':>5} {'label':>10} {'deadline':>9} {'proc_time':>12} "
          f"{'exp_reward':>12} {'rate':>10}")
    for k, g in enumerate(cfg.groups):
        for j, t in enumerate(cfg.deadlines.deadlines):
            rate = theta[k, j] / mu[k, j]
            print(f"{k + 1:>5} {g.label:>10} {t:>9.4g} {mu[k, j]:>12.6f} "
                  f"{theta[k, j]:>12.6f} {rate:>10.6f}")
            rows.append([k + 1, g.label, t, mu[k, j], theta[k, j], rate])
    _write_csv(out_dir, "moments.csv", header, rows)
    return 0


def _cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    exp = cfg.experiment
    solution = solve(cfg.groups, cfg.deadlines, cfg.utilities)
    # v applies only to the online learner; an SRP policy's CSV rows leave it blank
    policy, v = exp.policy, None
    label = policy if isinstance(policy, str) else "srp"
    if policy == "oracle_srp":
        policy = SrpPolicy.from_solution(solution)
    elif policy == "online":
        v = cfg.v
        if v is None:
            v = default_v(exp.budget)
            print(f"v = {_fmt(v)} (auto: sqrt(budget/log(budget)))")
        policy = LearnerParams(v=v, delay=cfg.feedback_delay, target_rate_cap=cfg.target_rate_cap)
    mc = monte_carlo(
        cfg.groups, cfg.deadlines, cfg.utilities, policy,
        exp.budget, exp.trials, cfg.seed, truncate_last=cfg.truncate_last,
        opt_utility_rate=solution.utility_rate,
    )
    alpha = cfg.utilities[0].alpha
    print(f"policy={label} alpha={_fmt(alpha)} budget={_fmt(exp.budget)} "
          f"trials={exp.trials} mean tasks/episode={mc.mean_tasks:.1f}")
    header = ["policy", "alpha", "budget", "v", "trials", "group", "label", "mean_time_share",
              "se_time_share", "mean_reward_rate", "se_reward_rate", "utility", "regret"]
    rows = []
    for k, g in enumerate(cfg.groups):
        print(f"  {g.label}: time share {mc.mean_time_shares[k]:.4f} "
              f"(se {mc.se_time_shares[k]:.4f}), reward rate "
              f"{mc.mean_reward_rates[k]:.4f} (se {mc.se_reward_rates[k]:.4f})")
        rows.append([label, alpha, exp.budget, "" if v is None else v, exp.trials,
                     k + 1, g.label, mc.mean_time_shares[k], mc.se_time_shares[k],
                     mc.mean_reward_rates[k], mc.se_reward_rates[k],
                     mc.utility_of_mean_rates, mc.regret])
    print(f"utility(mean rates) = {mc.utility_of_mean_rates:.6f}, "
          f"optimal = {mc.opt_utility_rate:.6f}, regret = {mc.regret:.6f} "
          f"(se {mc.regret_se:.6f})")
    if mc.floored_frac > 0:
        print(f"note: {mc.floored_frac:.1%} of episodes had a starved group "
              "(utility evaluated at the rate floor)")
    _write_csv(out_dir, "summary.csv", header, rows)

    if cfg.trace and isinstance(policy, LearnerParams):
        _write_trace(cfg, policy, out_dir)
    return 0


def _write_trace(cfg: ExperimentConfig, policy: LearnerParams, out_dir: str) -> None:
    # the trace always ends with the crossing task; truncate_last would change
    # only the episode's totals, which the trace does not write
    result = run_episode(cfg.groups, cfg.deadlines, cfg.utilities, policy,
                         cfg.experiment.budget, cfg.seed, collect_trace=True)
    K = len(cfg.groups)
    header = ["task", "group", "deadline", "elapsed", "reward"]
    header += [f"queue_{k + 1}" for k in range(K)]
    header += [f"target_rate_{k + 1}" for k in range(K)]
    table = result.trace
    table[:, 1] += 1  # groups are 1-based in the CSV
    _write_csv(out_dir, "trace.csv", header, table, f" ({len(table)} tasks, first trial)")


def _cmd_regret(cfg: ExperimentConfig, out_dir: str) -> int:
    exp = cfg.experiment
    curve = regret_curve(
        cfg.groups, cfg.deadlines, cfg.utilities, exp.budget_grid, exp.trials, cfg.seed,
        delay=cfg.feedback_delay, target_rate_cap=cfg.target_rate_cap,
        v_override=cfg.v, truncate_last=cfg.truncate_last,
    )
    if cfg.v is None:
        print("v per point: sqrt(budget/log(budget))")
    header = ["budget", "v", "regret", "stderr", "slope_fit"]
    rows = []
    print(f"{'budget':>10} {'v':>8} {'regret':>12} {'stderr':>10}")
    for p in curve.points:
        note = "  (excluded from fit)" if p.excluded else ""
        print(f"{p.budget:>10.4g} {p.v:>8.4g} {p.regret:>12.6f} {p.stderr:>10.6f}{note}")
        rows.append([p.budget, p.v, p.regret, p.stderr, ""])
    print(f"log-log slope = {curve.slope:.4f}")
    rows.append(["", "", "", "", curve.slope])
    _write_csv(out_dir, "regret.csv", header, rows)
    return 0


# subcommand -> (handler, experiment type it needs, help); object admits any kind
_COMMANDS = {
    "offline": (_cmd_offline, object, "solve for the optimal stationary randomized policy"),
    "simulate": (_cmd_simulate, SimulateExperiment,
                 "Monte Carlo evaluation of the configured policy"),
    "regret": (_cmd_regret, RegretExperiment, "learner regret across a budget grid"),
    "moments": (_cmd_moments, object, "moment table over the deadline menu (debug)"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairtime",
        description="Budget-constrained fair task allocation: offline optimum, "
                    "online learning, and Monte Carlo evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out-dir", default=".", help="directory for CSV outputs")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; trials run serially, so "
                            "the value does not change the run or its output")

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError([("seed", f"must be >= 0, got {args.seed}")])
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.trials is not None:
            if args.trials < 2:
                raise ConfigError([("trials", f"must be >= 2, got {args.trials}")])
            if isinstance(cfg.experiment, (SimulateExperiment, RegretExperiment)):
                experiment = dataclasses.replace(cfg.experiment, trials=args.trials)
                cfg = dataclasses.replace(cfg, experiment=experiment)
        if args.threads < 1:
            raise ConfigError([("threads", f"must be >= 1, got {args.threads}")])
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError([("out_dir", str(exc))]) from exc
        handler, experiment_type, _ = _COMMANDS[args.command]
        if not isinstance(cfg.experiment, experiment_type):
            raise ConfigError([("experiment.kind", f'subcommand "{args.command}" needs kind '
                                f'"{experiment_type.kind}", got "{cfg.experiment.kind}"')])
        # a division by zero, overflow or invalid operation that numpy would
        # only warn about is a numerical failure, not a result
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return handler(cfg, args.out_dir)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path or '<root>'}: {message}", file=sys.stderr)
        return 2
    except (NumericalError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
