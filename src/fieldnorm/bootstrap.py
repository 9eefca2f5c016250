"""Indicator rows with their intervals, percentile bootstrap, and comparisons.

Rows.  ``report.build_report`` (``compute``) and ``comparison_suite``
(``compare-ci``) only plan rows, and ``bootstrap_indicator`` plans one from
raw cell sets that only ``corpus.pair_cells`` checks; ``row_results`` computes
every row of all three, drawing all bootstrap rows of a run in one
``bootstrap_intervals`` call.  A planned row is a ``Scope`` with its
indicator, interval route and spec, and from plan to draw a bootstrap row
is a ``Scope`` with its indicator and spec, a ``BootstrapSpec`` of
iterations, seed and ``resample_world``.  The level alpha is the run's, not
a row's: ``row_results`` takes it once for every interval of the run.

Replicates resample every group cell with replacement at its original size;
when ``resample_world`` is set the world cells are resampled too.  ``_cells``
lists the cells a row draws and what each records, ``index_scheme.draw``
fills them, and every other cell is read as itself, so a row that draws
nothing is its point R times.  ``indicators.indicator_estimate`` evaluates
all R replicates at once; undefined ones come back as NaN and are counted,
and ``bootstrap_intervals`` takes the percentiles.  This module also holds
the bootstrap defaults (``bootstrap_plan``) and the ``compare-ci`` comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import (
    WORLD, ArticleSet, Corpus, Scope, check_integers, derive_stream_seed, pair_cells,
)
from .indicators import (
    CELL_STATISTICS,
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
    PROPORTION_INDICATORS,
    IndicatorValue,
    check_indicators,
    indicator_estimate,
    indicator_result,
)
from .index_scheme import draw
from .intervals import ALPHA_DEFAULT, BOOTSTRAP_PERCENTILE, EXPANSION_DEFAULT, IntervalEstimate
from .scopes import (
    BOOTSTRAP, CONTINUITY_DEFAULT, FORMULA, check_run, fieller_interval, formula_interval,
    method_tag, route_applies,
)

# The note of a row with no cell.
_EMPTY_SCOPE = "no cells retained by exclusion policy"

BOOTSTRAP_ITERATIONS_DEFAULT = {
    MNLCS: 1000, MNCS: 1000, LUNDBERG_Z: 1000,
    EMNPC: 10000, MNPC: 10000, PROP_CITED: 10000, EQ_PROP_CITED: 10000,
}
# What ``--resample-world auto`` means, per command.  ``compute`` holds the
# world fixed for MNCS (world mean treated as exact) and the group-side
# proportions; ``compare-ci`` resamples it only where the formula limits
# carry the world's variance (the proportions draw nothing from it anyway).
RESAMPLE_WORLD_DEFAULT = {
    MNLCS: True, LUNDBERG_Z: True, EMNPC: True, MNPC: True,
    MNCS: False, PROP_CITED: False, EQ_PROP_CITED: False,
}
COMPARE_CI_RESAMPLE_WORLD_DEFAULT = {
    MNLCS: False, MNCS: False, LUNDBERG_Z: False,
    EMNPC: True, MNPC: True, PROP_CITED: True, EQ_PROP_CITED: True,
}


@dataclass(frozen=True)
class BootstrapSpec:
    iterations: int
    seed: int = 0
    resample_world: bool = True

    def __post_init__(self) -> None:
        check_integers(self, "bootstrap", "iterations", "seed")
        if self.iterations < 100:
            raise ValueError("at least 100 bootstrap iterations are required")
        if not isinstance(self.resample_world, bool):
            raise ValueError(f"resample_world must be a bool, got {self.resample_world!r}")


def bootstrap_plan(
    indicator: str, auto_rule: Mapping[str, bool], iterations: int | None,
    resample_world: bool | None, seed: int,
) -> BootstrapSpec:
    """One bootstrap row's spec from a command's flags.

    A flag left at None takes its default: ``BOOTSTRAP_ITERATIONS_DEFAULT``,
    or ``auto_rule``, the command's resample table.
    """
    if iterations is None:
        iterations = BOOTSTRAP_ITERATIONS_DEFAULT[indicator]
    if resample_world is None:
        resample_world = auto_rule[indicator]
    return BootstrapSpec(iterations, seed, resample_world)


@dataclass(frozen=True)
class CiComparison:
    """Signed per-side half-width differences, positive = formula narrower."""

    lower_pct_diff: float
    upper_pct_diff: float
    basis: float


def percentile(sorted_replicates: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: element ceil(q*N) of the ascending list."""
    n = len(sorted_replicates)
    if n == 0:
        raise ValueError("no replicates")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    rank = min(max(math.ceil(q * n) - 1, 0), n - 1)
    return sorted_replicates[rank]


def _cells(row: tuple) -> list[tuple[int, ArticleSet, set[str]]]:
    """(slot, cell, statistics it records) of each cell a (Scope, indicator, spec) row draws.

    Slots count the group cells, then the world cells; a one-article cell is never drawn.
    """
    (_, group, world), indicator, spec = row
    group_stats, world_stats = CELL_STATISTICS[indicator]
    cells = [(cell, group_stats) for cell in group]
    # World draws come after every group draw, so they are skipped, not
    # shifted, when the indicator reads nothing from the world cells.
    if spec.resample_world and world_stats:
        cells += [(cell, world_stats) for cell in world]
    return [(slot, cell, stats) for slot, (cell, stats) in enumerate(cells) if cell.n > 1]


def _row_values(row: tuple, drawn: list) -> np.ndarray:
    """Entry r: the row on replicate r, NaN if undefined; a cell not ``drawn`` is read as itself."""
    (keys, group, world), indicator, spec = row
    cells = [*group, *world]
    for (slot, _, _), replicates in zip(_cells(row), drawn):
        cells[slot] = replicates
    value, _ = indicator_estimate(indicator, keys, cells[:len(group)], cells[len(group):])
    return np.broadcast_to(value, spec.iterations)


def _replicate_rows(rows: Sequence[tuple]) -> Iterator[np.ndarray]:
    """``_row_values`` of each row, in order; ``map`` keeps no row's replicates past its call."""
    plans = ((row[-1].seed, row[-1].iterations, [(cell, stats) for _, cell, stats in _cells(row)])
             for row in rows)
    return map(_row_values, rows, draw(plans))


def bootstrap_intervals(rows: Sequence[tuple], alpha: float) -> list[IntervalEstimate]:
    """Each (Scope, indicator, BootstrapSpec) row's percentile interval at ``alpha``, in order.

    Each scope is sorted with a world cell per key, as ``Corpus.scope`` builds
    it, and its indicator is defined; the intervals carry no estimate or ``n``.
    """
    intervals = []
    for (_, indicator, spec), replicates in zip(rows, _replicate_rows(rows)):
        undefined_mask = np.isnan(replicates)
        undefined = int(np.count_nonzero(undefined_mask))
        note = f"resample_world={'true' if spec.resample_world else 'false'}"
        if undefined:
            note += f"; {undefined} undefined replicates excluded"
        if undefined > alpha / 2.0 * spec.iterations:
            intervals.append(IntervalEstimate.undefined(
                BOOTSTRAP_PERCENTILE, alpha, note + "; undefined replicates exceed alpha/2"
            ))
            continue
        # A stable sort, like list.sort, so that equal values keep their order.
        estimates = np.sort(replicates[~undefined_mask], kind="stable")
        intervals.append(IntervalEstimate(
            estimate=None, lower=float(percentile(estimates, alpha / 2.0)),
            upper=float(percentile(estimates, 1.0 - alpha / 2.0)), alpha=alpha,
            method=BOOTSTRAP_PERCENTILE, note=note,
        ))
    return intervals


def bootstrap_indicator(
    group_sets: Sequence[ArticleSet],
    world_sets: Sequence[ArticleSet],
    indicator: str,
    spec: BootstrapSpec,
    alpha: float = ALPHA_DEFAULT,
) -> IntervalEstimate:
    """Percentile bootstrap interval at level ``alpha`` for one indicator over one scope.

    The cell sets are paired by ``corpus.pair_cells`` and the row is the one
    ``row_results`` computes, notes included.  Raises ValueError, before any
    draw, when the indicator is undefined on the original data.
    Replicates where the indicator is undefined are excluded; once more
    than alpha/2 of all replicates are undefined the interval itself is
    flagged undefined.
    """
    scope = pair_cells(group_sets, world_sets, same_keys=indicator in PROPORTION_INDICATORS)
    (row,) = row_results([(scope, indicator, BOOTSTRAP, spec)], alpha)
    if row.estimate is None:  # an undefined point is flagged without a draw
        raise ValueError(f"{indicator} is undefined on the original data")
    return row


def row_results(
    plan: Sequence[tuple], alpha: float, continuity: str = CONTINUITY_DEFAULT,
    expansion_mode: str = EXPANSION_DEFAULT,
) -> list[IntervalEstimate]:
    """The interval of each planned (Scope, indicator, route, BootstrapSpec | None) row.

    Each holds the point, computed once per (Scope, indicator), the group's
    article count as ``n``, and the point's and interval's notes joined as
    ``note``.  A row whose point is undefined, or whose scope is empty, is
    flagged with the method tag it would have carried (``scopes.method_tag``).
    Raises ValueError before any row is computed when a row's route does not
    serve its indicator (``scopes.route_applies``), or when a bootstrap row
    has no spec or another row has one.
    """
    check_run(alpha, continuity, expansion_mode)
    for _, indicator, route, spec in plan:
        if not route_applies(indicator, route):
            raise ValueError(f"route {route!r} does not serve {indicator}")
        if (spec is None) == (route == BOOTSTRAP):
            raise ValueError(f"a {route} row for {indicator} with spec {spec!r}: a bootstrap"
                             " row needs a BootstrapSpec and no other row takes one")
    points: dict[tuple[Scope, str], IndicatorValue] = {}
    rows, draws = [], []
    for scope, indicator, method, spec in plan:
        if (scope, indicator) not in points:
            points[scope, indicator] = (
                indicator_result(indicator, *scope) if scope.keys
                else IndicatorValue(indicator, None, False, _EMPTY_SCOPE)
            )
        point = points[scope, indicator]
        if not point.defined:
            tag = method_tag(indicator, method, scope.keys)
            interval = IntervalEstimate.undefined(tag, alpha, "")
        elif method == BOOTSTRAP:
            draws.append((scope, indicator, spec))
            interval = None
        elif method == FORMULA:
            interval = formula_interval(scope, indicator, alpha, continuity)
        else:
            interval = fieller_interval(scope, alpha, expansion_mode)
        rows.append((scope, point, interval))
    boots = iter(bootstrap_intervals(draws, alpha))
    results = []
    for scope, point, interval in rows:
        interval = next(boots) if interval is None else interval
        note = "; ".join(n for n in (point.note, interval.note) if n)
        n = sum(cell.n for cell in scope.group)
        results.append(replace(interval, estimate=point.estimate, n=n, note=note))
    return results


def compare_ci(formula: IntervalEstimate, boot: IntervalEstimate, point: float) -> CiComparison:
    """Per-side half-width differences relative to the bootstrap width.

    Each side's difference is (bootstrap half - formula half) divided by the
    full bootstrap width, reported as ``basis``, so positive values mean
    the formula is narrower on that side.
    """
    if not formula.defined or not boot.defined:
        raise ValueError("both intervals must be defined")
    if not (formula.lower <= point <= formula.upper and boot.lower <= point <= boot.upper):
        raise ValueError("point estimate must lie inside both intervals")
    width = boot.upper - boot.lower
    if width <= 0.0:
        raise ValueError("zero-width bootstrap interval")
    lower_diff = (point - boot.lower) - (point - formula.lower)
    upper_diff = (boot.upper - point) - (formula.upper - point)
    return CiComparison(
        lower_pct_diff=lower_diff / width, upper_pct_diff=upper_diff / width, basis=width
    )


@dataclass(frozen=True)
class ComparisonRow:
    scenario: str
    group: str
    indicator: str
    lower_pct_diff: float | None
    upper_pct_diff: float | None
    defined: bool
    note: str = ""


@dataclass(frozen=True)
class ComparisonSummary:
    label: str
    cells: int
    gaps: int
    lower_mean: float | None
    upper_mean: float | None
    lower_abs_mean: float | None
    upper_abs_mean: float | None
    lower_max_abs: float | None
    upper_max_abs: float | None


def corpus_label(corpus: Corpus) -> str:
    """A scenario's label (compare-ci) and directory (simulate): its sorted fields, '+'-joined."""
    return "+".join(sorted({k.field for k in corpus.keys}))


def comparison_suite(
    scenarios: Sequence[Corpus],
    indicators: Sequence[str],
    specs: BootstrapSpec | Mapping[str, BootstrapSpec],
    alpha: float = ALPHA_DEFAULT,
    continuity: str = CONTINUITY_DEFAULT,
) -> list[ComparisonRow]:
    """Formula-vs-bootstrap comparison for every scenario, group and indicator.

    ``specs`` holds each indicator's BootstrapSpec, and no other's; a lone
    spec serves every indicator.  The formula and bootstrap limits are both
    at level ``alpha``.
    Undefined intervals (either route) become gap rows rather than errors.
    Each run draws from its own seed stream derived from the scenario
    label, group and indicator, so the table is independent of run order.
    """
    check_indicators(indicators)
    if isinstance(specs, BootstrapSpec):
        specs = dict.fromkeys(indicators, specs)
    missing, extra = sorted(set(indicators) - set(specs)), sorted(set(specs) - set(indicators))
    if missing or extra:
        raise ValueError(f"specs must cover exactly the indicators run: missing {missing},"
                         f" extra {extra}")
    if not any(corpus.groups for corpus in scenarios):
        raise ValueError(f"no scenario has a group other than {WORLD}")
    labels, plan = [], []
    for corpus in scenarios:
        label = corpus_label(corpus)
        for group in sorted(corpus.groups):
            scope = corpus.scope(group, corpus.keys_for(group))
            for indicator in indicators:
                spec = specs[indicator]
                seed = derive_stream_seed(spec.seed, label, group, indicator)
                labels.append((label, group, indicator))
                plan += [(scope, indicator, FORMULA, None),
                         (scope, indicator, BOOTSTRAP, replace(spec, seed=seed))]
    results = row_results(plan, alpha, continuity)
    rows = []
    for (label, group, indicator), formula, boot in zip(labels, results[::2], results[1::2]):
        try:
            diff = compare_ci(formula, boot, formula.estimate)
            rows.append(ComparisonRow(
                label, group, indicator, diff.lower_pct_diff, diff.upper_pct_diff, True
            ))
        except ValueError as exc:
            # An undefined formula row says why it is undefined.
            note = str(exc) if formula.defined else formula.note
            rows.append(ComparisonRow(label, group, indicator, None, None, False, note))
    return rows


def summarize_comparisons(rows: Sequence[ComparisonRow]) -> list[ComparisonSummary]:
    """Signed average, absolute average and maximum per side, per indicator."""
    by_label: dict[str, list[ComparisonRow]] = {}
    for row in rows:
        by_label.setdefault(row.indicator, []).append(row)
    summaries = []
    for label in sorted(by_label):
        group_rows = by_label[label]
        defined = [r for r in group_rows if r.defined]
        stats = [None] * 6
        if defined:
            lows = np.array([r.lower_pct_diff for r in defined])
            ups = np.array([r.upper_pct_diff for r in defined])
            stats = [float(v) for v in (lows.mean(), ups.mean(), np.abs(lows).mean(),
                                        np.abs(ups).mean(), np.abs(lows).max(), np.abs(ups).max())]
        gaps = len(group_rows) - len(defined)
        summaries.append(ComparisonSummary(label, len(group_rows), gaps, *stats))
    return summaries
