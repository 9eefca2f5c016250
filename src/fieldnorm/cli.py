"""Command-line entry point.

Subcommands:

* ``compute``     load a cell directory, compute indicators and intervals,
                  write the report CSV (plus a JSON metadata sidecar)
* ``sample``      down-sample every cell to a target size
* ``simulate``    write synthetic corpora over a parameter grid
* ``compare-ci``  formula-vs-bootstrap interval comparison tables

Every command is deterministic given its flags and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bootstrap import (
    COMPARE_CI_RESAMPLE_WORLD_DEFAULT,
    ComparisonRow,
    ComparisonSummary,
    bootstrap_plan,
    comparison_suite,
    corpus_label,
    summarize_comparisons,
)
from .corpus import WORLD, ExclusionPolicy, SampleSpec, load_corpus, sample_files, write_corpus
from .indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
)
from .intervals import EXPANSION_MODES, check_alpha
from .report import (
    CI_METHODS,
    ReportConfig,
    build_report,
    write_csv,
    write_metadata,
    write_table,
)
from .scopes import CONTINUITY_MODES
from .synthetic import scenario_grid

INDICATOR_NAMES = {
    "mnlcs": (MNLCS,),
    "mncs": (MNCS,),
    "lundberg": (LUNDBERG_Z,),
    "emnpc": (EMNPC,),
    "mnpc": (MNPC,),
    "prop": (PROP_CITED, EQ_PROP_CITED),
}


def _parse_indicators(text: str) -> tuple[str, ...]:
    tags: list[str] = []
    for name in text.split(","):
        name = name.strip().lower()
        if name not in INDICATOR_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown indicator {name!r} (choose from {', '.join(INDICATOR_NAMES)})"
            )
        for tag in INDICATOR_NAMES[name]:
            if tag not in tags:
                tags.append(tag)
    return tuple(tags)


# --resample-world: None leaves each row to its command's auto rule.
_RESAMPLE_WORLD = {"auto": None, "on": True, "off": False}

# The flags compute and compare-ci share, each declared once with
# ReportConfig's default ("auto" is its resample_world of None).
_RUN_FLAGS = {
    "--indicators": dict(type=_parse_indicators, default=ReportConfig.indicators,
                         help="comma-separated subset of mnlcs,mncs,lundberg,emnpc,mnpc,prop"),
    "--alpha": dict(type=float, default=ReportConfig.alpha),
    "--seed": dict(type=int, default=ReportConfig.seed),
    "--continuity": dict(choices=CONTINUITY_MODES, default=ReportConfig.continuity),
    "--resample-world": dict(choices=tuple(_RESAMPLE_WORLD), default="auto"),
}


# The synthetic grid's flags, each setting the ``scenario_grid`` axis it names.
# A flag left out is None, and its axis takes ``scenario_grid``'s default.
_GRID_FLAGS = {
    "--mu": dict(dest="mus", type=float),
    "--sigma": dict(dest="sigmas", type=float),
    "--zero-inflation": dict(dest="zero_inflations", type=float),
    "--n": dict(dest="ns", type=int),
    "--group-shift": dict(dest="group_shifts", type=float,
                          help="additive log-scale shift of each synthetic group"),
}


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    for flag, settings in _GRID_FLAGS.items():
        parser.add_argument(flag, nargs="+", **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldnorm",
        description="Field/year-normalised impact indicators with confidence intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute indicators and intervals")
    compute.add_argument("--input-dir", type=Path, required=True)
    compute.add_argument("--output", type=Path, required=True)
    compute.add_argument("--ci", choices=(*CI_METHODS, "all"), default=ReportConfig.ci_methods[0])
    compute.add_argument("--bootstrap-iters", type=int, default=ReportConfig.bootstrap_iterations)
    compute.add_argument("--sample-size", type=int, default=ReportConfig.sample_size)
    compute.add_argument("--min-articles", type=int, default=ExclusionPolicy.min_articles)
    compute.add_argument("--min-fraction-of-mean", type=float,
                         default=ExclusionPolicy.min_fraction_of_mean)
    compute.add_argument("--expansion-mode", choices=EXPANSION_MODES,
                         default=ReportConfig.expansion_mode)

    sample = sub.add_parser("sample", help="down-sample every cell to a target size")
    sample.add_argument("--input-dir", type=Path, required=True)
    sample.add_argument("--output-dir", type=Path, required=True)
    sample.add_argument("--size", type=int, default=SampleSpec.size)
    sample.add_argument("--seed", **_RUN_FLAGS["--seed"])

    simulate = sub.add_parser("simulate", help="write synthetic corpora for a parameter grid")
    simulate.add_argument("--output-dir", type=Path, required=True)
    simulate.add_argument("--seed", **_RUN_FLAGS["--seed"])
    _add_grid_arguments(simulate)

    compare = sub.add_parser("compare-ci", help="formula vs bootstrap interval comparison")
    compare.add_argument("--input-dir", type=Path, default=None,
                         help="existing corpus directory; omit to use the synthetic grid flags")
    compare.add_argument("--output", type=Path, required=True)
    compare.add_argument("--details", type=Path, default=None,
                         help="optional per-scenario comparison CSV")
    compare.add_argument("--iterations", type=int, default=None)
    _add_grid_arguments(compare)
    for command in (compute, compare):
        for flag, settings in _RUN_FLAGS.items():
            command.add_argument(flag, **settings)
    return parser


def cmd_compute(args: argparse.Namespace) -> int:
    # Every flag is checked, by ReportConfig, before any cell is read.
    methods = CI_METHODS if args.ci == "all" else (args.ci,)
    config = ReportConfig(
        indicators=args.indicators,
        ci_methods=tuple(methods),
        alpha=args.alpha,
        seed=args.seed,
        bootstrap_iterations=args.bootstrap_iters,
        resample_world=_RESAMPLE_WORLD[args.resample_world],
        exclusion=ExclusionPolicy(args.min_articles, args.min_fraction_of_mean),
        continuity=args.continuity,
        expansion_mode=args.expansion_mode,
        sample_size=args.sample_size,
    )
    corpus = load_corpus(args.input_dir)
    report = build_report(corpus, config)
    write_csv(report, args.output)
    write_metadata(report, args.output, input_dir=str(args.input_dir))
    for group in sorted(corpus.groups) + [WORLD]:
        summary = [
            f"{row.indicator}={row.estimate:.3f}" if row.estimate is not None
            else f"{row.indicator}=undefined"
            for row in report.rows
            if row.group == group and row.scope == "ALL"
        ]
        n = max((r.n for r in report.rows if r.group == group), default=0)
        print(f"{group}: n={n} " + " ".join(dict.fromkeys(summary)))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cells = sample_files(args.input_dir, args.output_dir, args.size, args.seed)
    print(f"sampled {cells} cells to {args.output_dir}")
    return 0


def _grid_flags(args: argparse.Namespace) -> dict[str, list]:
    """The grid flags given on the command line, with their values."""
    given = {flag: getattr(args, settings["dest"]) for flag, settings in _GRID_FLAGS.items()}
    return {flag: values for flag, values in given.items() if values is not None}


def _grid(args: argparse.Namespace):
    axes = {_GRID_FLAGS[flag]["dest"]: values for flag, values in _grid_flags(args).items()}
    return scenario_grid(**axes, base_seed=args.seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    corpora = _grid(args)
    for corpus in corpora:
        write_corpus(corpus, args.output_dir / corpus_label(corpus))
    print(f"wrote {len(corpora)} scenario corpora to {args.output_dir}")
    return 0


def cmd_compare_ci(args: argparse.Namespace) -> int:
    if args.input_dir is not None and (given := _grid_flags(args)):
        raise ValueError(f"{', '.join(given)} set the synthetic grid"
                         " and cannot be used with --input-dir")
    # Every flag is checked before any cell is read or generated.
    if args.details is not None and args.details.resolve() == args.output.resolve():
        raise ValueError("--details and --output name the same file")
    resample_world = _RESAMPLE_WORLD[args.resample_world]
    specs = {indicator: bootstrap_plan(indicator, COMPARE_CI_RESAMPLE_WORLD_DEFAULT,
                                       args.iterations, resample_world, args.seed)
             for indicator in args.indicators}
    check_alpha(args.alpha)
    scenarios = _grid(args) if args.input_dir is None else [load_corpus(args.input_dir)]
    rows = comparison_suite(scenarios, args.indicators, specs, args.alpha, args.continuity)
    write_table(args.output, [f.name for f in fields(ComparisonSummary)],
                summarize_comparisons(rows))
    if args.details is not None:
        write_table(args.details, [f.name for f in fields(ComparisonRow)],
                    sorted(rows, key=lambda r: (r.scenario, r.group, r.indicator)))
    gaps = sum(1 for r in rows if not r.defined)
    print(f"compared {len(rows)} cells ({gaps} gaps) -> {args.output}")
    return 0


_COMMANDS = {
    "compute": cmd_compute,
    "sample": cmd_sample,
    "simulate": cmd_simulate,
    "compare-ci": cmd_compare_ci,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
