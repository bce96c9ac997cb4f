"""Command-line interface: regenerate any paper exhibit from a shell.

Usage::

    python -m repro list                 # what can be run
    python -m repro run e1 e5 a3         # selected experiments
    python -m repro run all              # everything (minutes)
    python -m repro run e3 --quick       # reduced scale for smoke runs
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .analysis import ablations, experiments
from .clock import perf_now

#: experiment id -> (description, full-scale thunk, quick thunk)
_REGISTRY: dict = {
    "e1": (
        "Table 1: the PIS classification matrix",
        lambda: experiments.run_e1_table1(population_size=2000),
        lambda: experiments.run_e1_table1(population_size=200),
    ),
    "e2": (
        "Table 2: transformation under a deployed reputation system",
        lambda: experiments.run_e2_table2(users=30, simulated_days=45, population_size=150),
        lambda: experiments.run_e2_table2(users=12, simulated_days=20, population_size=80),
    ),
    "e3": (
        "Infection rates (>80% home / >30% corporate)",
        lambda: experiments.run_e3_infection(users=25, simulated_days=45),
        lambda: experiments.run_e3_infection(users=10, simulated_days=20),
    ),
    "e4": (
        "Trust-factor growth cap (5/week, clamp [1,100])",
        lambda: experiments.run_e4_trust_growth(max_weeks=30),
        lambda: experiments.run_e4_trust_growth(max_weeks=25),
    ),
    "e5": (
        "Attack/mitigation matrix (flood, Sybil, defamation, shilling)",
        lambda: experiments.run_e5_attacks(),
        lambda: experiments.run_e5_attacks(),
    ),
    "e5v2": (
        "Detection lift: ring/slow-burn/burst vs trust models (DESIGN §15)",
        lambda: experiments.run_e5v2_detection_lift(),
        lambda: experiments.run_e5v2_detection_lift(),
    ),
    "e6": (
        "Comparison with AV/anti-spyware (Sec. 4.3)",
        lambda: experiments.run_e6_countermeasures(users=20, simulated_days=40),
        lambda: experiments.run_e6_countermeasures(users=10, simulated_days=20),
    ),
    "e6v2": (
        "Slow-burn Sybil recovery trajectory by trust countermeasure",
        lambda: experiments.run_e6v2_trust_countermeasures(),
        lambda: experiments.run_e6v2_trust_countermeasures(),
    ),
    "e7": (
        "Coverage growth and bootstrapping",
        lambda: experiments.run_e7_coverage(users=30, simulated_days=45),
        lambda: experiments.run_e7_coverage(users=12, simulated_days=20),
    ),
    "e8": (
        "Interruption budget (50 executions, <=2 prompts/week)",
        lambda: experiments.run_e8_interruption(simulated_weeks=16, programs=15),
        lambda: experiments.run_e8_interruption(simulated_weeks=8, programs=8),
    ),
    "e9": (
        "Policy module outcomes (Sec. 4.2 example policy)",
        lambda: experiments.run_e9_policy(population_size=600),
        lambda: experiments.run_e9_policy(population_size=150),
    ),
    "e10": (
        "The daily publication tick + vendor ratings vs polymorphism",
        lambda: experiments.run_e10_aggregation(software_count=500, user_count=100),
        lambda: experiments.run_e10_aggregation(software_count=120, user_count=30),
    ),
    "e10f": (
        "Vote-to-visible freshness: streaming scoring vs the 24h batch",
        lambda: experiments.run_e10_freshness(
            software_count=60, user_count=50, votes_per_day=200, sim_days=2
        ),
        lambda: experiments.run_e10_freshness(
            software_count=20, user_count=20, votes_per_day=60, sim_days=2
        ),
    ),
    "a1": (
        "Ablation: trust-weighted aggregation vs plain mean",
        lambda: ablations.run_a1_weighting(experts=8, novices=40),
        lambda: ablations.run_a1_weighting(experts=6, novices=20),
    ),
    "a2": (
        "Ablation: comment moderation vs open board under spam",
        lambda: ablations.run_a2_moderation(honest_comments=50, spam_comments=200),
        lambda: ablations.run_a2_moderation(honest_comments=10, spam_comments=30),
    ),
    "a3": (
        "Ablation: anonymity-circuit latency overhead",
        lambda: ablations.run_a3_anonymity_overhead(requests=500),
        lambda: ablations.run_a3_anonymity_overhead(requests=100),
    ),
    "a4": (
        "Ablation: runtime-analysis evidence feeding the policy",
        lambda: ablations.run_a4_runtime_analysis(users=18, simulated_days=30),
        lambda: ablations.run_a4_runtime_analysis(users=10, simulated_days=15),
    ),
    "a5": (
        "Ablation: version churn vs vendor-level reputation",
        lambda: ablations.run_a5_version_churn(users=18, simulated_days=35),
        lambda: ablations.run_a5_version_churn(users=10, simulated_days=20),
    ),
    "a6": (
        "Extension: EULA analysis recovers the consent axis",
        lambda: ablations.run_a6_eula_analysis(population_size=600),
        lambda: ablations.run_a6_eula_analysis(population_size=150),
    ),
}


def _command_list(args: argparse.Namespace) -> int:
    width = max(len(key) for key in _REGISTRY)
    for key, (description, __, __unused) in _REGISTRY.items():
        print(f"  {key.upper():<{width + 2}} {description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    requested = [name.lower() for name in args.experiments]
    if "all" in requested:
        requested = list(_REGISTRY)
    unknown = [name for name in requested if name not in _REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("run `python -m repro list` to see what exists", file=sys.stderr)
        return 2
    for name in requested:
        description, full, quick = _REGISTRY[name]
        runner: Callable = quick if args.quick else full
        started = perf_now()
        result = runner()
        elapsed = perf_now() - started
        print("=" * 72)
        print(f"{name.upper()} — {description}   [{elapsed:.1f}s]")
        print("=" * 72)
        print(result["rendered"])
        print()
    return 0


def _command_report(args: argparse.Namespace) -> int:
    """Regenerate every exhibit into one markdown report."""
    lines = [
        "# Reproduction report",
        "",
        "Auto-generated by `python -m repro report`. One section per paper",
        "exhibit (E-series) and design-choice ablation (A-series); see",
        "EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
    ]
    total_started = perf_now()
    for name, (description, full, quick) in _REGISTRY.items():
        runner: Callable = quick if args.quick else full
        started = perf_now()
        result = runner()
        elapsed = perf_now() - started
        print(f"{name.upper():<4} done in {elapsed:5.1f}s — {description}")
        lines.append(f"## {name.upper()} — {description}")
        lines.append("")
        lines.append("```")
        lines.append(result["rendered"])
        lines.append("```")
        lines.append("")
    total_elapsed = perf_now() - total_started
    lines.append(f"_Total generation time: {total_elapsed:.1f}s._")
    report = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as output:
            output.write(report)
        print(f"\nreport written to {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Preventing Privacy-Invasive Software Using "
            "Collaborative Reputation Systems' (Boldt et al., 2007): "
            "regenerate the paper's exhibits."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(func=_command_list)
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help="experiment ids (e1..e10, a1..a4) or 'all'",
    )
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (seconds instead of minutes)",
    )
    run_parser.set_defaults(func=_command_run)
    report_parser = subparsers.add_parser(
        "report", help="regenerate all exhibits into a markdown report"
    )
    report_parser.add_argument(
        "-o", "--output", metavar="FILE", help="write to FILE instead of stdout"
    )
    report_parser.add_argument(
        "--quick", action="store_true", help="reduced scale"
    )
    report_parser.set_defaults(func=_command_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
