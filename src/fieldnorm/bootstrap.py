"""Percentile bootstrap intervals and formula-vs-bootstrap comparisons.

Replicates resample every group cell with replacement at its original size;
when ``resample_world`` is set the world cells are resampled too.  Replicate
r draws from an independent substream derived from (seed, r), so results do
not depend on execution order, and the draws index each cell's counts in
ascending order, so results do not depend on the input article order either.

A replicate is the ``CellSummary.resample`` of each cell's cached summary at
its index draw, and its value comes from the same kernel as every point
estimate, ``indicators.indicator_estimate``.  A replicate computes only the
statistics its indicator reads: cited counts as ``idx >= first cited
position``, ln(1+c) means gathered from the cell's precomputed values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import ArticleSet, Corpus
from .indicators import PROPORTION_INDICATORS, UndefinedNormalizationError, indicator_estimate
from .intervals import BOOTSTRAP_PERCENTILE, IntervalEstimate
from .scopes import formula_interval, indicator_value


@dataclass(frozen=True)
class BootstrapSpec:
    iterations: int = 1000
    seed: int = 0
    resample_world: bool = True
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations < 100:
            raise ValueError("at least 100 bootstrap iterations are required")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


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


def bootstrap_indicator(
    group_sets: Sequence[ArticleSet],
    world_sets: Sequence[ArticleSet],
    indicator: str,
    spec: BootstrapSpec,
) -> IntervalEstimate:
    """Percentile bootstrap interval for one indicator over one scope.

    Replicates where the indicator is undefined are excluded; once more
    than alpha/2 of all replicates are undefined the interval itself is
    flagged undefined.
    """
    group = {a.key: a.summary for a in group_sets}
    world = {a.key: a.summary for a in world_sets}
    if len(group) != len(group_sets) or len(world) != len(world_sets):
        raise ValueError("duplicate cell keys")
    missing = set(group) - set(world)
    if missing:
        raise ValueError(f"missing world cells for {sorted(missing)}")
    if indicator in PROPORTION_INDICATORS and set(world) != set(group):
        raise ValueError("group and world must cover the same cell keys")
    keys = sorted(group)
    group_cells = [group[k] for k in keys]
    world_cells = [world[k] for k in keys]
    try:
        original, _ = indicator_estimate(indicator, keys, group_cells, world_cells)
    except UndefinedNormalizationError:
        raise ValueError(f"{indicator} is undefined on the original data") from None

    seed_entropy = spec.seed & (2**64 - 1)
    estimates: list[float] = []
    undefined = 0
    for r in range(spec.iterations):
        rng = np.random.default_rng(np.random.SeedSequence([seed_entropy, r]))
        rep_group = [c.resample(rng.integers(0, c.n, c.n)) for c in group_cells]
        rep_world = world_cells
        if spec.resample_world:
            rep_world = [c.resample(rng.integers(0, c.n, c.n)) for c in world_cells]
        try:
            estimates.append(indicator_estimate(indicator, keys, rep_group, rep_world)[0])
        except UndefinedNormalizationError:
            undefined += 1

    n_articles = sum(c.n for c in group_cells)
    note = f"resample_world={'true' if spec.resample_world else 'false'}"
    if undefined:
        note += f"; {undefined} undefined replicates excluded"
    if undefined > spec.alpha / 2.0 * spec.iterations:
        return IntervalEstimate(
            estimate=original, lower=None, upper=None, alpha=spec.alpha,
            method=BOOTSTRAP_PERCENTILE, defined=False, n=n_articles,
            note=note + "; undefined replicates exceed alpha/2",
        )
    estimates.sort()
    return IntervalEstimate(
        estimate=original,
        lower=percentile(estimates, spec.alpha / 2.0),
        upper=percentile(estimates, 1.0 - spec.alpha / 2.0),
        alpha=spec.alpha,
        method=BOOTSTRAP_PERCENTILE,
        n=n_articles,
        note=note,
    )


def compare_ci(
    formula: IntervalEstimate,
    boot: IntervalEstimate,
    point: float,
    half_width_basis: bool = False,
) -> CiComparison:
    """Per-side half-width differences relative to the bootstrap width.

    Each side's difference is (bootstrap half - formula half); the default
    denominator is the full bootstrap width, so positive values mean the
    formula is narrower on that side.  ``half_width_basis`` divides each
    side by that side's bootstrap half width instead, as a sensitivity
    variant; ``basis`` always reports the full bootstrap width.
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
    if half_width_basis:
        return CiComparison(
            lower_pct_diff=lower_diff / (point - boot.lower),
            upper_pct_diff=upper_diff / (boot.upper - point),
            basis=width,
        )
    return CiComparison(
        lower_pct_diff=lower_diff / width, upper_pct_diff=upper_diff / width, basis=width
    )


def derive_stream_seed(master_seed: int, *parts: str) -> int:
    """Stable per-run seed so concurrent runs stay order-independent."""
    text = f"{master_seed & (2**64 - 1)}|" + "|".join(parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


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


def comparison_suite(
    scenarios: Sequence[Corpus],
    indicators: Sequence[str],
    spec: BootstrapSpec,
    continuity: str = "auto",
) -> list[ComparisonRow]:
    """Formula-vs-bootstrap comparison for every scenario, group and indicator.

    Undefined intervals (either route) become gap rows rather than errors.
    Each run draws from its own seed stream derived from the scenario
    label, group and indicator, so the table is independent of run order.
    """
    if not scenarios:
        raise ValueError("no scenarios supplied")
    rows: list[ComparisonRow] = []
    for corpus in scenarios:
        label = "+".join(sorted({k.field for k in corpus.keys}))
        for group in sorted(corpus.groups):
            keys = corpus.keys_for(group)
            group_sets = [corpus.cell(group, k) for k in sorted(keys)]
            world_sets = [corpus.world(k) for k in sorted(keys)]
            for indicator in indicators:
                point = indicator_value(corpus, group, keys, indicator)
                formula = formula_interval(corpus, group, keys, indicator, spec.alpha, continuity)
                if not point.defined or not formula.defined:
                    rows.append(
                        ComparisonRow(
                            label, group, indicator, None, None, False,
                            note=point.note or formula.note,
                        )
                    )
                    continue
                run_spec = replace(
                    spec, seed=derive_stream_seed(spec.seed, label, group, indicator)
                )
                boot = bootstrap_indicator(group_sets, world_sets, indicator, run_spec)
                try:
                    result = compare_ci(formula, boot, point.estimate)
                except ValueError as exc:
                    rows.append(ComparisonRow(label, group, indicator, None, None, False, str(exc)))
                    continue
                rows.append(
                    ComparisonRow(
                        label, group, indicator,
                        result.lower_pct_diff, result.upper_pct_diff, True,
                    )
                )
    return rows


def summarize_comparisons(rows: Sequence[ComparisonRow], key=None) -> list[ComparisonSummary]:
    """Signed average, absolute average and maximum per side, per label."""
    if key is None:
        key = lambda row: row.indicator
    by_label: dict[str, list[ComparisonRow]] = {}
    for row in rows:
        by_label.setdefault(key(row), []).append(row)
    summaries = []
    for label in sorted(by_label):
        group_rows = by_label[label]
        defined = [r for r in group_rows if r.defined]
        gaps = len(group_rows) - len(defined)
        if not defined:
            summaries.append(
                ComparisonSummary(label, len(group_rows), gaps, *([None] * 6))
            )
            continue
        lows = np.array([r.lower_pct_diff for r in defined])
        ups = np.array([r.upper_pct_diff for r in defined])
        summaries.append(
            ComparisonSummary(
                label=label,
                cells=len(group_rows),
                gaps=gaps,
                lower_mean=float(lows.mean()),
                upper_mean=float(ups.mean()),
                lower_abs_mean=float(np.abs(lows).mean()),
                upper_abs_mean=float(np.abs(ups).mean()),
                lower_max_abs=float(np.abs(lows).max()),
                upper_max_abs=float(np.abs(ups).max()),
            )
        )
    return summaries
