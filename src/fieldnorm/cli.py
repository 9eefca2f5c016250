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
from pathlib import Path

from .bootstrap import (
    COMPARE_CI_RESAMPLE_WORLD_DEFAULT,
    bootstrap_plan,
    comparison_suite,
    summarize_comparisons,
)
from .corpus import (
    WORLD,
    Corpus,
    CorpusError,
    ExclusionPolicy,
    SampleSpec,
    derive_cell_seed,
    load_corpus,
    sample_cell,
    write_cell,
    write_corpus,
)
from .indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
)
from .report import (
    CI_METHODS,
    FORMULA,
    ReportConfig,
    build_report,
    format_field,
    write_csv,
    write_metadata,
    write_table,
)
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


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, nargs="+", default=[1.0])
    parser.add_argument("--sigma", type=float, nargs="+", default=[1.0])
    parser.add_argument("--zero-inflation", type=float, nargs="+", default=[0.0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000])
    parser.add_argument("--group-shift", type=float, nargs="+", default=[0.0],
                        help="additive log-scale shift of each synthetic group")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldnorm",
        description="Field/year-normalised impact indicators with confidence intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute indicators and intervals")
    compute.add_argument("--input-dir", type=Path, required=True)
    compute.add_argument("--output", type=Path, required=True)
    compute.add_argument("--indicators", type=_parse_indicators, default=(MNLCS,),
                         help="comma-separated subset of mnlcs,mncs,lundberg,emnpc,mnpc,prop")
    compute.add_argument("--ci", "--ci-method", dest="ci",
                         choices=(*CI_METHODS, "all"), default=FORMULA)
    compute.add_argument("--alpha", type=float, default=0.05)
    compute.add_argument("--bootstrap-iters", type=int, default=None)
    compute.add_argument("--seed", type=int, default=0)
    compute.add_argument("--sample-size", type=int, default=None)
    compute.add_argument("--min-articles", type=int, default=100)
    compute.add_argument("--min-fraction-of-mean", type=float, default=0.25)
    compute.add_argument("--continuity", choices=("auto", "on", "off"), default="auto")
    compute.add_argument("--expansion-mode", choices=("literal", "expand_from_mean"),
                         default="literal")
    compute.add_argument("--resample-world", choices=("auto", "on", "off"), default="auto")

    sample = sub.add_parser("sample", help="down-sample every cell to a target size")
    sample.add_argument("--input-dir", type=Path, required=True)
    sample.add_argument("--output-dir", type=Path, required=True)
    sample.add_argument("--size", type=int, default=500)
    sample.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="write synthetic corpora for a parameter grid")
    simulate.add_argument("--output-dir", type=Path, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    _add_grid_arguments(simulate)

    compare = sub.add_parser("compare-ci", help="formula vs bootstrap interval comparison")
    compare.add_argument("--input-dir", type=Path, default=None,
                         help="existing corpus directory; omit to use the synthetic grid flags")
    compare.add_argument("--output", type=Path, required=True)
    compare.add_argument("--details", type=Path, default=None,
                         help="optional per-scenario comparison CSV")
    compare.add_argument("--indicators", type=_parse_indicators, default=(MNLCS,))
    compare.add_argument("--iterations", type=int, default=None)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--alpha", type=float, default=0.05)
    compare.add_argument("--resample-world", choices=("auto", "on", "off"), default="auto")
    compare.add_argument("--continuity", choices=("auto", "on", "off"), default="auto")
    _add_grid_arguments(compare)
    return parser


def _sampled(corpus: Corpus, size: int | None, seed: int) -> Corpus:
    if size is None:
        return corpus
    cells = [
        sample_cell(aset, SampleSpec(size, derive_cell_seed(seed, group, key)))
        for (group, key), aset in sorted(corpus.cells.items())
    ]
    return Corpus.from_cells(cells)


def cmd_compute(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.input_dir)
    corpus = _sampled(corpus, args.sample_size, args.seed)
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
        extra_metadata={
            "input_dir": str(args.input_dir),
            "sample_size": args.sample_size,
        },
    )
    report = build_report(corpus, config)
    write_csv(report, args.output)
    write_metadata(report, args.output)
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
    corpus = load_corpus(args.input_dir)
    for (group, key), aset in sorted(corpus.cells.items()):
        spec = SampleSpec(args.size, derive_cell_seed(args.seed, group, key))
        write_cell(sample_cell(aset, spec), args.output_dir)
    print(f"sampled {len(corpus.cells)} cells to {args.output_dir}")
    return 0


def _grid(args: argparse.Namespace):
    return scenario_grid(
        args.mu, args.sigma, args.zero_inflation, args.n,
        group_shifts=args.group_shift, base_seed=args.seed,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    corpora = _grid(args)
    for corpus in corpora:
        label = "+".join(sorted({k.field for k in corpus.keys}))
        write_corpus(corpus, args.output_dir / label)
    print(f"wrote {len(corpora)} scenario corpora to {args.output_dir}")
    return 0


_SUMMARY_HEADER = ("label", "cells", "gaps", "lower_mean", "upper_mean",
                   "lower_abs_mean", "upper_abs_mean", "lower_max_abs", "upper_max_abs")


def cmd_compare_ci(args: argparse.Namespace) -> int:
    if args.input_dir is not None:
        scenarios = [load_corpus(args.input_dir)]
    else:
        scenarios = _grid(args)
    rows = []
    for indicator in args.indicators:
        spec = bootstrap_plan(
            indicator, COMPARE_CI_RESAMPLE_WORLD_DEFAULT, args.iterations,
            _RESAMPLE_WORLD[args.resample_world], args.seed, args.alpha,
        )
        rows.extend(comparison_suite(scenarios, [indicator], spec, continuity=args.continuity))
    write_table(args.output, _SUMMARY_HEADER, (
        [s.label, s.cells, s.gaps]
        + [format_field(v) for v in (s.lower_mean, s.upper_mean, s.lower_abs_mean,
                                     s.upper_abs_mean, s.lower_max_abs, s.upper_max_abs)]
        for s in summarize_comparisons(rows)
    ))
    if args.details is not None:
        header = ("scenario", "group", "indicator", "lower_pct_diff", "upper_pct_diff",
                  "defined", "note")
        write_table(args.details, header, (
            [row.scenario, row.group, row.indicator, format_field(row.lower_pct_diff),
             format_field(row.upper_pct_diff), "true" if row.defined else "false", row.note]
            for row in sorted(rows, key=lambda r: (r.scenario, r.group, r.indicator))
        ))
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
    except (CorpusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
