"""Command-line experiment driver.

    fairtime offline  <config.json>   solve and print the optimal policy
    fairtime simulate <config.json>   Monte Carlo run of the configured policy
    fairtime regret   <config.json>   learner regret across a budget grid
    fairtime moments  <config.json>   moment table over the deadline menu

Outputs are CSV files in --out-dir plus a human-readable summary on stdout.
CSV bodies are byte-identical for identical config + seed; trials always run
serially, so --threads does not change them.  Exit codes: 0 success,
2 configuration or --out-dir error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from .config import (
    ConfigError,
    ExperimentConfig,
    OfflineExperiment,
    RegretExperiment,
    SimulateExperiment,
    SrpPolicySpec,
    parse_config,
)
from .learning import LearnerParams
from .offline import NoRewardError, NumericalError, OfflineSolution, moment_grid, solve
from .sim import OnlinePolicy, SrpPolicy, default_v, monte_carlo, regret_curve, run_episode


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(cell) for cell in row])
    except OSError as exc:
        raise ConfigError([("out_dir", str(exc))]) from exc


def _offline_solution(cfg: ExperimentConfig) -> OfflineSolution:
    return solve(list(cfg.groups), cfg.deadlines, list(cfg.utilities))


def _print_offline(solution: OfflineSolution) -> None:
    print(f"{'group':>5} {'label':>10} {'deadline':>9} {'rate':>10} "
          f"{'proc_time':>10} {'reward':>10} {'share':>8} {'select':>8}")
    for st, phi, sel in zip(solution.stats, solution.time_shares, solution.selection):
        print(f"{st.group + 1:>5} {st.label:>10} {st.deadline:>9.4g} {st.rate:>10.6f} "
              f"{st.mean_processing_time:>10.6f} {st.mean_reward:>10.6f} "
              f"{phi:>8.4f} {sel:>8.4f}")
    print(f"multiplier = {solution.multiplier:.10g}")
    print(f"utility rate = {solution.utility_rate:.10g}")
    if solution.excluded:
        print(f"excluded (no achievable reward): groups {[i + 1 for i in solution.excluded]}")


def _cmd_offline(cfg: ExperimentConfig, out_dir: str) -> int:
    solution = _offline_solution(cfg)
    _print_offline(solution)
    rows = [
        [st.group + 1, st.label, st.deadline, st.rate, st.mean_processing_time,
         st.mean_reward, phi, sel, solution.multiplier, solution.utility_rate]
        for st, phi, sel in zip(solution.stats, solution.time_shares, solution.selection)
    ]
    path = os.path.join(out_dir, "offline.csv")
    _write_csv(path, ["group", "label", "deadline", "rate", "mean_processing_time",
                      "mean_reward", "time_share", "selection", "multiplier",
                      "utility_rate"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_moments(cfg: ExperimentConfig, out_dir: str) -> int:
    mu, theta = moment_grid(list(cfg.groups), cfg.deadlines)
    rows = []
    print(f"{'group':>5} {'label':>10} {'deadline':>9} {'proc_time':>12} "
          f"{'exp_reward':>12} {'rate':>10}")
    for k, g in enumerate(cfg.groups):
        for j, t in enumerate(cfg.deadlines.deadlines):
            rate = theta[k, j] / mu[k, j]
            print(f"{k + 1:>5} {g.label:>10} {t:>9.4g} {mu[k, j]:>12.6f} "
                  f"{theta[k, j]:>12.6f} {rate:>10.6f}")
            rows.append([k + 1, g.label, t, mu[k, j], theta[k, j], rate])
    path = os.path.join(out_dir, "moments.csv")
    _write_csv(path, ["group", "label", "deadline", "mean_processing_time",
                      "expected_reward", "rate"], rows)
    print(f"wrote {path}")
    return 0


def _build_policy(cfg: ExperimentConfig, exp: SimulateExperiment, solution: OfflineSolution):
    """Returns (policy, v_for_csv); v applies only to the online learner."""
    if isinstance(exp.policy, SrpPolicySpec):
        return SrpPolicy(selection=exp.policy.selection, deadlines=exp.policy.deadlines), None
    if exp.policy == "oracle_srp":
        return SrpPolicy.from_solution(solution), None
    v = cfg.v
    if v is None:
        v = default_v(exp.budget)
        print(f"v = {_fmt(v)} (auto: sqrt(budget/log(budget)))")
    params = LearnerParams(v=v, delay=cfg.feedback_delay, target_rate_cap=cfg.target_rate_cap)
    return OnlinePolicy(params), v


def _cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    exp = cfg.experiment
    solution = _offline_solution(cfg)
    policy, v = _build_policy(cfg, exp, solution)
    mc = monte_carlo(
        list(cfg.groups), cfg.deadlines, list(cfg.utilities), policy,
        exp.budget, exp.trials, cfg.seed, truncate_last=cfg.truncate_last,
        opt_utility_rate=solution.utility_rate,
    )
    alpha = cfg.utilities[0].alpha
    print(f"policy={policy.label} alpha={_fmt(alpha)} budget={_fmt(exp.budget)} "
          f"trials={exp.trials} mean tasks/episode={mc.mean_tasks:.1f}")
    for k, label in enumerate(cfg.labels):
        print(f"  {label}: time share {mc.mean_time_shares[k]:.4f} "
              f"(se {mc.se_time_shares[k]:.4f}), reward rate "
              f"{mc.mean_reward_rates[k]:.4f} (se {mc.se_reward_rates[k]:.4f})")
    print(f"utility(mean rates) = {mc.utility_of_mean_rates:.6f}, "
          f"optimal = {mc.opt_utility_rate:.6f}, regret = {mc.regret:.6f} "
          f"(se {mc.regret_se:.6f})")
    if mc.floored_frac > 0:
        print(f"note: {mc.floored_frac:.1%} of episodes had a starved group "
              "(utility evaluated at the rate floor)")

    rows = [
        [policy.label, alpha, exp.budget, "" if v is None else v, exp.trials,
         k + 1, cfg.labels[k], mc.mean_time_shares[k], mc.se_time_shares[k],
         mc.mean_reward_rates[k], mc.se_reward_rates[k],
         mc.utility_of_mean_rates, mc.regret]
        for k in range(len(cfg.groups))
    ]
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, ["policy", "alpha", "budget", "v", "trials", "group", "label",
                      "mean_time_share", "se_time_share", "mean_reward_rate",
                      "se_reward_rate", "utility", "regret"], rows)
    print(f"wrote {path}")

    if cfg.trace and isinstance(policy, OnlinePolicy):
        _write_trace(cfg, policy, exp.budget, out_dir)
    return 0


def _write_trace(cfg: ExperimentConfig, policy: OnlinePolicy, budget: float, out_dir: str) -> None:
    result = run_episode(
        list(cfg.groups), cfg.deadlines, list(cfg.utilities), policy, budget,
        cfg.seed, truncate_last=cfg.truncate_last, collect_trace=True,
    )
    K = len(cfg.groups)
    header = ["task", "group", "deadline", "elapsed", "reward"]
    header += [f"queue_{k + 1}" for k in range(K)]
    header += [f"target_rate_{k + 1}" for k in range(K)]
    rows = []
    for entry in result.trace:
        rows.append(
            [entry["task"], entry["group"] + 1, entry["deadline"], entry["elapsed"],
             entry["reward"]]
            + [float(q) for q in entry["queues"]]
            + [float(g) for g in entry["targets"]]
        )
    path = os.path.join(out_dir, "trace.csv")
    _write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} tasks, first trial)")


def _cmd_regret(cfg: ExperimentConfig, out_dir: str) -> int:
    exp = cfg.experiment
    curve = regret_curve(
        list(cfg.groups), cfg.deadlines, list(cfg.utilities),
        list(exp.budget_grid), exp.trials, cfg.seed,
        delay=cfg.feedback_delay, target_rate_cap=cfg.target_rate_cap,
        v_override=cfg.v, truncate_last=cfg.truncate_last,
    )
    if cfg.v is None:
        print("v per point: sqrt(budget/log(budget))")
    print(f"{'budget':>10} {'v':>8} {'regret':>12} {'stderr':>10}")
    for p in curve.points:
        note = "  (excluded from fit)" if p.excluded else ""
        print(f"{p.budget:>10.4g} {p.v:>8.4g} {p.regret:>12.6f} {p.stderr:>10.6f}{note}")
    print(f"log-log slope = {curve.slope:.4f}")
    rows = [[p.budget, p.v, p.regret, p.stderr, ""] for p in curve.points]
    rows.append(["", "", "", "", curve.slope])
    path = os.path.join(out_dir, "regret.csv")
    _write_csv(path, ["budget", "v", "regret", "stderr", "slope_fit"], rows)
    print(f"wrote {path}")
    return 0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.trials is not None:
        if isinstance(cfg.experiment, (SimulateExperiment, RegretExperiment)):
            cfg = dataclasses.replace(
                cfg, experiment=dataclasses.replace(cfg.experiment, trials=args.trials)
            )
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairtime",
        description="Budget-constrained fair task allocation: offline optimum, "
                    "online learning, and Monte Carlo evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("offline", "solve for the optimal stationary randomized policy"),
        ("simulate", "Monte Carlo evaluation of the configured policy"),
        ("regret", "learner regret across a budget grid"),
        ("moments", "moment table over the deadline menu (debug)"),
    ]:
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
        if args.seed is not None and args.seed < 0:
            raise ConfigError([("seed", f"must be >= 0, got {args.seed}")])
        if args.trials is not None and args.trials < 2:
            raise ConfigError([("trials", f"must be >= 2, got {args.trials}")])
        if args.threads < 1:
            raise ConfigError([("threads", f"must be >= 1, got {args.threads}")])
        cfg = _apply_overrides(cfg, args)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError([("out_dir", str(exc))]) from exc

        if args.command == "offline":
            return _cmd_offline(cfg, args.out_dir)
        if args.command == "moments":
            return _cmd_moments(cfg, args.out_dir)
        if args.command == "simulate":
            if not isinstance(cfg.experiment, SimulateExperiment):
                raise ConfigError(
                    [("experiment.kind",
                      f'subcommand "simulate" needs kind "simulate", got "{cfg.experiment.kind}"')]
                )
            return _cmd_simulate(cfg, args.out_dir)
        if args.command == "regret":
            if not isinstance(cfg.experiment, RegretExperiment):
                raise ConfigError(
                    [("experiment.kind",
                      f'subcommand "regret" needs kind "regret", got "{cfg.experiment.kind}"')]
                )
            return _cmd_regret(cfg, args.out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path or '<root>'}: {message}", file=sys.stderr)
        return 2
    except (NumericalError, NoRewardError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
