"""Point estimates of the field/year-normalised indicators.

Every indicator is a function of a few statistics per (group, field, year)
cell, which each ``ArticleSet`` computes once: n, the number cited (c > 0),
and the mean and M2 of both c and ln(1+c).  One kernel reads these
statistics straight off the cells: ``indicator_estimate`` computes all
seven indicators, and ``score_moments`` and ``pooled_moments`` give the
moments behind the NORMAL_T and heuristic-expansion intervals.
Point estimates, analytic intervals and bootstrap replicates all call it;
for the bootstrap, any cell may be a ``CellReplicates``, the same statistics
as arrays with one entry per replicate (``fieldnorm.index_scheme`` fills
them), and ``indicator_estimate`` evaluates every replicate in one call.

Mean-type indicators average a per-article score over all N articles of a
scope.  Each cell contributes a term, and the terms are summed and divided
by N (mean_w and sd_w are the world cell's):

* MNLCS     n_g * mean_g / mean_w               over ln(1+c)
* MNCS      n_g * mean_g / mean_w               over c
* Lundberg  n_g * (mean_g - mean_w) / sd_w      over ln(1+c), a difference score

Proportion-type indicators compare shares of articles with c > 0:

* PROP_CITED     pooled share cited
* EQ_PROP_CITED  unweighted average of per-cell shares (equalised)
* EMNPC     ratio of equalised (unweighted across cells) proportions cited
* MNPC      cell-size-weighted sum of per-cell proportion ratios

The world set scores exactly 1 against itself for MNLCS, MNCS and EMNPC,
exactly 0 for the Lundberg variant, and 1 up to rounding for MNPC.

``normalize_log`` and ``mnlcs`` keep the per-article MNLCS as a reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import WORLD, ArticleSet, FieldYearKey, pair_cells

# Indicator tags.
MNLCS = "MNLCS"
MNCS = "MNCS"
LUNDBERG_Z = "LUNDBERG_Z"
EMNPC = "EMNPC"
MNPC = "MNPC"
PROP_CITED = "PROP_CITED"
EQ_PROP_CITED = "EQ_PROP_CITED"

MEAN_INDICATORS = (MNLCS, MNCS, LUNDBERG_Z)
PROPORTION_INDICATORS = (EMNPC, MNPC, PROP_CITED, EQ_PROP_CITED)


def check_indicators(indicators: Sequence[str]) -> None:
    """Reject an empty indicator list, an unknown tag or a repeated one."""
    if not indicators:
        raise ValueError("at least one indicator is required")
    unknown = set(indicators) - set(MEAN_INDICATORS + PROPORTION_INDICATORS)
    if unknown:
        raise ValueError(f"unknown indicators {sorted(unknown)}")
    if len(set(indicators)) != len(indicators):
        raise ValueError(f"duplicate indicators in {list(indicators)}")


class UndefinedNormalizationError(ValueError):
    """Raised when an indicator is undefined on its data; the message is the note."""


@dataclass(frozen=True)
class NormalizationBaseline:
    """Per-cell world statistics every indicator divides by.

    log_sd is None for single-article world cells, where the sample
    standard deviation does not exist.
    """

    key: FieldYearKey
    log_mean: float
    log_sd: float | None
    raw_mean: float
    prop_cited: float
    n_world: int


@dataclass(frozen=True)
class NormalizedScores:
    """Per-article ln(1+c) / world log-mean scores of one cell."""

    group: str
    key: FieldYearKey
    values: np.ndarray


@dataclass(frozen=True)
class ProportionSummary:
    """Cited/total counts of one cell (articles with value > 0 are 'cited')."""

    group: str
    key: FieldYearKey
    cited: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.cited <= self.n or self.n < 1:
            raise ValueError(f"invalid proportion summary {self.cited}/{self.n}")


# What the proportion front end takes: cells or bare cited/n summaries.
ProportionCells = Sequence[ProportionSummary | ArticleSet]


@dataclass(frozen=True)
class IndicatorValue:
    indicator: str
    estimate: float | None
    defined: bool = True
    note: str = ""


def compute_baseline(world: ArticleSet) -> NormalizationBaseline:
    """World-cell statistics: natural-log mean/sd, raw mean, proportion cited."""
    if world.group != WORLD:
        raise ValueError(f"baseline requires a {WORLD} cell, got group {world.group!r}")
    return NormalizationBaseline(
        world.key, world.log_mean, world.log_sd, world.raw_mean, world.cited / world.n, world.n
    )


# ---------------------------------------------------------------- kernel

# The statistics ``indicator_estimate`` reads from the group and from the
# world cells, besides n.
CELL_STATISTICS = {
    MNLCS: ({"log_mean"}, {"log_mean"}),
    MNCS: ({"raw_mean"}, {"raw_mean"}),
    LUNDBERG_Z: ({"log_mean"}, {"log_mean", "log_m2"}),
    EMNPC: ({"cited"}, {"cited"}),
    MNPC: ({"cited"}, {"cited"}),
    PROP_CITED: ({"cited"}, set()),
    EQ_PROP_CITED: ({"cited"}, set()),
}


class CellReplicates:
    """One cell's statistics over R bootstrap replicates, as length-R arrays.

    Only an index scheme makes one, of a cell of more than one article, and
    fills the statistics in ``stats`` (of ``CELL_STATISTICS``); others are None.
    """

    def __init__(self, n: int, stats: set[str], replicates: int) -> None:
        self.n = n
        self.cited = np.empty(replicates, np.int64) if "cited" in stats else None
        self.raw_mean, self.log_mean, self.log_m2 = (
            np.empty(replicates) if name in stats else None
            for name in ("raw_mean", "log_mean", "log_m2")
        )

    @property
    def log_sd(self) -> np.ndarray:
        """Sample sd of ln(1+c) per replicate."""
        return np.sqrt(self.log_m2 / (self.n - 1))


def _check(bad, masks: list | None, message: str, key: FieldYearKey | None = None) -> None:
    """Flag where the indicator is undefined.

    A single estimate (``masks`` None) raises UndefinedNormalizationError
    when ``bad``; replicate arrays record ``bad`` in ``masks``, and a scalar
    ``bad`` then holds for every replicate.
    """
    if masks is None:
        if bad:
            raise UndefinedNormalizationError(message.format(key))
    else:
        masks.append(bad)


def _where(condition, if_true, if_false):
    """``if_true`` where ``condition`` holds, else ``if_false``, per replicate for arrays.

    The kernel divides by ``_where(bad, 1.0, divisor)``, so that no
    replicate flagged by ``_check`` divides by zero.
    """
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def _normaliser(indicator: str, key: FieldYearKey, world: ArticleSet, masks=None):
    """(shift, scale) that turn a cell's x into the scores (x - shift) / scale."""
    if indicator == MNLCS:
        scale = world.log_mean
        message = "undefined normalisation: all world counts zero for {}"
    elif indicator == MNCS:
        scale = world.raw_mean
        message = "undefined normalisation: world mean count is zero for {}"
    else:
        scale = world.log_sd
        message = "undefined standardisation: world log-sd is zero or undefined for {}"
    bad = True if scale is None else scale <= 0.0
    _check(bad, masks, message, key)
    shift = world.log_mean if indicator == LUNDBERG_Z else 0.0
    return shift, _where(bad, 1.0, scale)


def _score_mean(
    indicator: str, key: FieldYearKey, group: ArticleSet, world: ArticleSet, masks=None
):
    shift, scale = _normaliser(indicator, key, world, masks)
    return ((group.raw_mean if indicator == MNCS else group.log_mean) - shift) / scale


def indicator_estimate(
    indicator: str,
    keys: Sequence[FieldYearKey],
    group: Sequence[ArticleSet | CellReplicates],
    world: Sequence[ArticleSet | CellReplicates],
) -> tuple[float | np.ndarray, str]:
    """Point estimate of ``indicator`` over a scope, with its note.

    ``group[i]`` and ``world[i]`` are the cells of ``keys[i]``; only the
    statistics ``CELL_STATISTICS`` names are read, so the proportion
    indicators also take ProportionSummary objects.  Raises
    UndefinedNormalizationError when the indicator is undefined: a zero
    world baseline (log-mean, mean or log-sd) for a mean indicator, all
    world proportions zero for EMNPC, cited articles over a zero world
    proportion for MNPC.

    Given any CellReplicates (length-R statistic arrays of bootstrap
    replicates) among the cells, the estimate is an array with one entry per
    replicate and NaN where the indicator is undefined, instead of raising.
    """
    masks = [] if any(isinstance(c, CellReplicates) for c in (*group, *world)) else None
    notes: list[str] = []
    if indicator in MEAN_INDICATORS:
        value = sum(
            g.n * _score_mean(indicator, k, g, w, masks) for k, g, w in zip(keys, group, world)
        ) / sum(g.n for g in group)
    elif indicator == PROP_CITED:
        value = sum(g.cited for g in group) / sum(g.n for g in group)
    elif indicator == EQ_PROP_CITED:
        value = sum(g.cited / g.n for g in group) / len(group)
    elif indicator == EMNPC:
        sum_world = sum(w.cited / w.n for w in world)
        bad = sum_world == 0.0
        _check(bad, masks, "all world proportions zero")
        value = sum(g.cited / g.n for g in group) / _where(bad, 1.0, sum_world)
    elif indicator == MNPC:
        n_group = sum(g.n for g in group)
        value = 0.0
        for key, g, w in zip(keys, group, world):
            weight = g.n / n_group
            zero = w.cited == 0
            _check(
                zero & (g.cited > 0), masks,
                "positive numerator over zero world proportion for {}", key,
            )
            if masks is None and zero and g.cited == 0:
                notes.append(f"0/0 field ratio replaced by 1 for {key}")
            ratio = (g.cited / g.n) / (_where(zero, 1, w.cited) / w.n)
            value = value + _where(zero, weight, weight * ratio)
    else:
        raise ValueError(f"unknown indicator {indicator!r}")
    if masks:
        value = np.where(functools.reduce(np.logical_or, masks), np.nan, value)
    return value, "; ".join(notes)


def score_moments(
    indicator: str,
    keys: Sequence[FieldYearKey],
    group: Sequence[ArticleSet],
    world: Sequence[ArticleSet],
) -> list[tuple[int, float, float]]:
    """(n, mean, M2) of each group cell's scores under a mean indicator."""
    moments = []
    for key, g, w in zip(keys, group, world):
        shift, scale = _normaliser(indicator, key, w)
        x, m2 = (g.raw_mean, g.raw_m2) if indicator == MNCS else (g.log_mean, g.log_m2)
        moments.append((g.n, (x - shift) / scale, m2 / (scale * scale)))
    return moments


def pooled_moments(cells: Sequence[tuple[int, float, float]]) -> tuple[int, float, float]:
    """(N, mean, M2) of the union of cells given as (n, mean, M2).

    The k-way form of the parallel-variance update of Chan, Golub & LeVeque
    (1983): within-cell M2s plus n_k (mean_k - mean)^2, never a raw sum of
    squares.  The mean is the one ``indicator_estimate`` computes.
    """
    n = sum(n_k for n_k, _, _ in cells)
    mean = sum(n_k * mean_k for n_k, mean_k, _ in cells) / n
    m2 = sum(m2_k + n_k * (mean_k - mean) ** 2 for n_k, mean_k, m2_k in cells)
    return n, mean, m2


def indicator_result(
    indicator: str,
    keys: Sequence[FieldYearKey],
    group: Sequence[ArticleSet],
    world: Sequence[ArticleSet],
) -> IndicatorValue:
    """``indicator_estimate`` as a value that is flagged, not raised, when undefined."""
    try:
        estimate, note = indicator_estimate(indicator, keys, group, world)
    except UndefinedNormalizationError as exc:
        return IndicatorValue(indicator, None, defined=False, note=str(exc))
    return IndicatorValue(indicator, estimate, note=note)


# ------------------------------------------------- per-article reference


def normalize_log(aset: ArticleSet, baseline: NormalizationBaseline) -> NormalizedScores:
    if aset.key != baseline.key:
        raise ValueError(f"baseline key {baseline.key} does not match cell key {aset.key}")
    if baseline.log_mean <= 0.0:
        raise UndefinedNormalizationError(
            f"undefined normalisation: all world counts zero for {baseline.key}"
        )
    values = np.log1p(aset.counts_array()) / baseline.log_mean
    return NormalizedScores(aset.group, aset.key, values)


def mnlcs(scores: Sequence[NormalizedScores]) -> IndicatorValue:
    """Flat mean of per-article log-ratio scores over every article in every cell."""
    if not scores:
        raise ValueError("no scores supplied")
    groups = {s.group for s in scores}
    if len(groups) > 1:
        raise ValueError(f"mixed groups {sorted(groups)}")
    keys = [s.key for s in scores]
    if len(keys) != len(set(keys)):
        raise ValueError("overlapping scopes: duplicate cell keys")
    values = np.concatenate([s.values for s in scores])
    return IndicatorValue(MNLCS, float(values.mean()))


# ------------------------------------------ proportion-summary front end


def proportion_cited(sets: ProportionCells) -> IndicatorValue:
    """Pooled proportion cited: total cited over total articles."""
    return indicator_result(PROP_CITED, *pair_cells(sets))


def equalised_proportion(sets: ProportionCells) -> tuple[IndicatorValue, float]:
    """Unweighted average of per-cell proportions, plus the equalised cell size.

    The second return value is the mean cell size.  No interval reads it:
    the WILSON interval of EQ_PROP_CITED (``scopes.formula_interval``)
    counts round(p * N) cited articles out of N, the scope's total article
    count.
    """
    value = indicator_result(EQ_PROP_CITED, *pair_cells(sets))
    return value, sum(s.n for s in sets) / len(sets)


def emnpc(group_sets: ProportionCells, world_sets: ProportionCells) -> IndicatorValue:
    """Ratio of group to world equalised proportions (a ratio of sums).

    Undefined (flagged, not raised) only when every world proportion is zero.
    """
    return indicator_result(EMNPC, *pair_cells(group_sets, world_sets, same_keys=True))


def mnpc(group_sets: ProportionCells, world_sets: ProportionCells) -> IndicatorValue:
    """Size-weighted sum of per-cell proportion ratios (a sum of ratios).

    A 0/0 cell ratio is replaced by 1 and noted; a cell with cited group
    articles over a zero world proportion makes the whole value undefined.
    """
    return indicator_result(MNPC, *pair_cells(group_sets, world_sets, same_keys=True))
