"""Command-line interface: regenerate any table or figure from a terminal.

Installed as the ``repro`` module's ``__main__``-style entry point::

    python -m repro.cli fig3 --users 400 --trials 3
    python -m repro.cli table1
    python -m repro.cli ablation-baselines --users 250 --trials 2
    python -m repro.cli all --full
    python -m repro.cli fig3 --users 1000000 --trials 2 --history-mode aggregate
    python -m repro.cli campaign --spec grid.toml --campaign-cache .campaign-cache

Each sub-command prints the plain-text rendering of the corresponding
artefact of the paper (Table I, Figures 2-5) or of the ablations and
extension experiments; ``campaign`` sweeps a declarative scenario grid
through the content-addressed result cache (see :mod:`repro.campaign`).
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, Sequence

from repro.core.planner import EXECUTION_MODES
from repro.experiments import (
    CaseStudyConfig,
    baseline_comparison,
    drift_comparison,
    ergodicity_ablation,
    fig2_income_distribution,
    fig3_race_adr,
    fig4_user_adr,
    fig5_density,
    run_experiment,
    steering_comparison,
    table1_scorecard_result,
)

__all__ = ["build_parser", "main"]


#: Sub-commands whose group-level output supports the memory-bounded
#: ``--history-mode aggregate`` path; everything else needs per-user rows.
#: fig5 joined the list when the streaming per-step rate histograms landed.
_AGGREGATE_CAPABLE = ("fig3", "fig4", "fig5")


def _config_from_arguments(arguments: argparse.Namespace) -> CaseStudyConfig:
    shared = dict(
        seed=arguments.seed,
        history_mode=arguments.history_mode,
        checkpoint_dir=arguments.checkpoint_dir,
        checkpoint_every=arguments.checkpoint_every,
        resume=arguments.resume,
        execution=arguments.execution,
    )
    if arguments.full:
        return CaseStudyConfig(**shared)
    return CaseStudyConfig(
        num_users=arguments.users,
        num_trials=arguments.trials,
        **shared,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the closed-loop equal-impact paper.",
        epilog=(
            "The lender's yearly refit always fits its logistic scorecard "
            "on a count table of the offered users' (income code, previous "
            "default rate, repayment) rows, from a cold start."
        ),
    )
    parser.add_argument("--users", type=int, default=300, help="users per trial (default 300)")
    parser.add_argument("--trials", type=int, default=2, help="number of trials (default 2)")
    parser.add_argument("--seed", type=int, default=20240101, help="master random seed")
    parser.add_argument(
        "--full", action="store_true", help="use the paper-scale configuration (1000 users, 5 trials)"
    )
    parser.add_argument(
        "--execution",
        choices=EXECUTION_MODES,
        default="serial",
        help=(
            "how the run executes, resolved by the planner from "
            "(cpu_count, trials, users, steps, checkpoint knobs): 'serial' "
            "(default) runs in-process, 'batch' runs trials in lockstep "
            "on the tensor engine, whose threads spread each trial's users "
            "over the cores, 'pool' runs trials on a process pool, and "
            "'auto' picks one of them ('shard' is a second name for "
            "'batch').  Every choice is bit-identical; this knob only "
            "changes the wall clock"
        ),
    )
    parser.add_argument(
        "--history-mode",
        choices=["full", "aggregate"],
        default="full",
        help=(
            "trajectory recording mode: 'full' retains per-user history, "
            "'aggregate' streams group-level series and per-step rate "
            "histograms in bounded memory (million-user runs; fig3/fig4/fig5, "
            "bit-identical results)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for crash-consistent per-trial snapshots and "
            "completed-trial results (enables fault-tolerant runs; see "
            "--checkpoint-every and --resume)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help=(
            "snapshot each trial's full loop state every N steps (0 "
            "disables; requires --checkpoint-dir).  Resumed runs are "
            "bit-identical to uninterrupted ones: the random streams are "
            "stateless per (trial, shard, step)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue an interrupted run from --checkpoint-dir: completed "
            "trials are skipped, interrupted trials restore their latest "
            "intact snapshot; a configuration mismatch is rejected with an "
            "actionable error"
        ),
    )
    parser.add_argument(
        "--spec",
        default=None,
        help=(
            "campaign spec file (.toml or .json) declaring the scenario x "
            "policy x population x seed grid; required by (and only used "
            "with) the campaign command"
        ),
    )
    parser.add_argument(
        "--campaign-cache",
        default=None,
        help=(
            "directory of the campaign's content-addressed result cache "
            "(default: .campaign-cache).  Re-running a completed campaign "
            "from the same cache is a pure cache read; an interrupted sweep "
            "resumes from the jobs already published"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "with campaign: print the plan (jobs, cache hits, core budget) "
            "and exit without running anything"
        ),
    )
    parser.add_argument(
        "command",
        choices=[
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "ablation-baselines",
            "ablation-ergodicity",
            "steering",
            "drift",
            "campaign",
            "all",
        ],
        help="which artefact to regenerate",
    )
    return parser


def _run_campaign_command(
    arguments: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Handle the ``campaign`` sub-command: plan, sweep, report hit rate."""
    from repro.campaign import load_campaign_spec, plan_campaign, run_campaign

    if arguments.spec is None:
        parser.error("campaign needs a spec file: pass --spec grid.toml")
    cache_dir = arguments.campaign_cache or ".campaign-cache"
    try:
        spec = load_campaign_spec(arguments.spec)
    except (OSError, ValueError) as error:
        parser.error(str(error))
    plan = plan_campaign(spec, cache_dir)
    print(plan.describe())
    if arguments.dry_run:
        return 0
    result = run_campaign(spec, cache_dir)
    print()
    print(result.summary())
    return 0


def _figures(config: CaseStudyConfig, which: Sequence[str]) -> str:
    """Run the shared simulation once and render the requested figures."""
    experiment = run_experiment(config)
    renderers: Dict[str, Callable[[], str]] = {
        "fig3": lambda: fig3_race_adr(result=experiment).summary(),
        "fig4": lambda: fig4_user_adr(result=experiment).summary(),
        "fig5": lambda: fig5_density(result=experiment).summary(),
    }
    sections = []
    for name in which:
        sections.append(f"== {name} ==\n{renderers[name]()}")
    return "\n\n".join(sections)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments, run the requested artefact, print it."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "campaign":
        # The campaign spec file carries its own grid and run options; the
        # per-experiment flags above do not apply.
        return _run_campaign_command(arguments, parser)
    if arguments.history_mode == "aggregate" and arguments.command not in _AGGREGATE_CAPABLE:
        parser.error(
            "--history-mode aggregate only supports the group-series figures "
            f"({', '.join(_AGGREGATE_CAPABLE)}); {arguments.command!r} needs per-user history"
        )
    try:
        config = _config_from_arguments(arguments)
    except ValueError as error:
        # e.g. --resume without --checkpoint-dir: surface the actionable
        # validation message as a usage error, not a traceback.
        parser.error(str(error))

    if arguments.command == "table1":
        print(table1_scorecard_result(config.scaled(num_trials=1)).summary())
    elif arguments.command == "fig2":
        print(fig2_income_distribution(config.end_year).summary())
    elif arguments.command in ("fig3", "fig4", "fig5"):
        print(_figures(config, [arguments.command]))
    elif arguments.command == "ablation-baselines":
        print(baseline_comparison(config).summary())
    elif arguments.command == "ablation-ergodicity":
        print(ergodicity_ablation().summary())
    elif arguments.command == "steering":
        print(steering_comparison(config).summary())
    elif arguments.command == "drift":
        print(drift_comparison(config).summary())
    elif arguments.command == "all":
        print("== table1 ==")
        print(table1_scorecard_result(config.scaled(num_trials=1)).summary())
        print("\n== fig2 ==")
        print(fig2_income_distribution(config.end_year).summary())
        print()
        print(_figures(config, ["fig3", "fig4", "fig5"]))
        print("\n== ablation-baselines ==")
        print(baseline_comparison(config).summary())
        print("\n== ablation-ergodicity ==")
        print(ergodicity_ablation().summary())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI tests
    raise SystemExit(main())
