"""Point estimates of the field/year-normalised indicators.

Every indicator is a function of a few statistics per (group, field, year)
cell, held in the cell's cached ``CellSummary``: n, the number cited
(c > 0), and the mean and M2 of both c and ln(1+c).  One kernel works on
these summaries: ``indicator_estimate`` computes all seven indicators, and
``score_moments``/``pooled_moments`` and ``log_moments`` give the moments
behind the NORMAL_T and Fieller intervals.  Point estimates, analytic
intervals and bootstrap replicates all call it.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import WORLD, ArticleSet, CellSummary, FieldYearKey
from .intervals import SampleMoments

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

    @classmethod
    def from_articles(cls, aset: ArticleSet) -> "ProportionSummary":
        return cls(aset.group, aset.key, aset.summary.cited, aset.summary.n)


@dataclass(frozen=True)
class IndicatorValue:
    group: str
    scope: frozenset[FieldYearKey]
    indicator: str
    estimate: float | None
    defined: bool = True
    note: str = ""


def compute_baseline(world: ArticleSet) -> NormalizationBaseline:
    """World-cell statistics: natural-log mean/sd, raw mean, proportion cited."""
    if world.group != WORLD:
        raise ValueError(f"baseline requires a {WORLD} cell, got group {world.group!r}")
    s = world.summary
    return NormalizationBaseline(world.key, s.log_mean, s.log_sd, s.raw_mean, s.cited / s.n, s.n)


# ---------------------------------------------------------------- kernel


def _normaliser(indicator: str, key: FieldYearKey, world: CellSummary) -> tuple[float, float]:
    """(shift, scale) that turn a cell's x into the scores (x - shift) / scale."""
    if indicator == MNLCS:
        if world.log_mean <= 0.0:
            raise UndefinedNormalizationError(
                f"undefined normalisation: all world counts zero for {key}"
            )
        return 0.0, world.log_mean
    if indicator == MNCS:
        if world.raw_mean <= 0.0:
            raise UndefinedNormalizationError(
                f"undefined normalisation: world mean count is zero for {key}"
            )
        return 0.0, world.raw_mean
    log_sd = world.log_sd
    if log_sd is None or log_sd <= 0.0:
        raise UndefinedNormalizationError(
            f"undefined standardisation: world log-sd is zero or undefined for {key}"
        )
    return world.log_mean, log_sd


def _score_mean(indicator: str, key: FieldYearKey, group: CellSummary, world: CellSummary) -> float:
    shift, scale = _normaliser(indicator, key, world)
    return ((group.raw_mean if indicator == MNCS else group.log_mean) - shift) / scale


def indicator_estimate(
    indicator: str,
    keys: Sequence[FieldYearKey],
    group: Sequence[CellSummary],
    world: Sequence[CellSummary],
) -> tuple[float, str]:
    """Point estimate of ``indicator`` over a scope, with its note.

    ``group[i]`` and ``world[i]`` summarise the cells of ``keys[i]``; only
    the statistics the indicator needs are read, so the proportion
    indicators also take ProportionSummary objects.  Raises
    UndefinedNormalizationError when the indicator is undefined: a zero
    world baseline (log-mean, mean or log-sd) for a mean indicator, all
    world proportions zero for EMNPC, cited articles over a zero world
    proportion for MNPC.
    """
    if indicator in MEAN_INDICATORS:
        total = sum(g.n * _score_mean(indicator, k, g, w) for k, g, w in zip(keys, group, world))
        return total / sum(g.n for g in group), ""
    if indicator == PROP_CITED:
        return sum(g.cited for g in group) / sum(g.n for g in group), ""
    if indicator == EQ_PROP_CITED:
        return sum(g.cited / g.n for g in group) / len(group), ""
    if indicator == EMNPC:
        sum_world = sum(w.cited / w.n for w in world)
        if sum_world == 0.0:
            raise UndefinedNormalizationError("all world proportions zero")
        return sum(g.cited / g.n for g in group) / sum_world, ""
    if indicator == MNPC:
        n_group = sum(g.n for g in group)
        total = 0.0
        notes: list[str] = []
        for key, g, w in zip(keys, group, world):
            weight = g.n / n_group
            if w.cited == 0:
                if g.cited == 0:
                    total += weight
                    notes.append(f"0/0 field ratio replaced by 1 for {key}")
                    continue
                raise UndefinedNormalizationError(
                    f"positive numerator over zero world proportion for {key}"
                )
            total += weight * ((g.cited / g.n) / (w.cited / w.n))
        return total, "; ".join(notes)
    raise ValueError(f"unknown indicator {indicator!r}")


def score_moments(
    indicator: str,
    keys: Sequence[FieldYearKey],
    group: Sequence[CellSummary],
    world: Sequence[CellSummary],
) -> list[tuple[int, float, float]]:
    """(n, mean, M2) of each group cell's scores under a mean indicator."""
    moments = []
    for key, g, w in zip(keys, group, world):
        scale = _normaliser(indicator, key, w)[1]
        m2 = g.raw_m2 if indicator == MNCS else g.log_m2
        moments.append((g.n, _score_mean(indicator, key, g, w), m2 / (scale * scale)))
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


def log_moments(cell: CellSummary) -> SampleMoments:
    """Moments of one cell's ln(1+c) values, as the Fieller interval takes them."""
    return SampleMoments.from_m2(cell.n, cell.log_mean, cell.log_m2)


def indicator_result(
    indicator: str,
    group_label: str,
    keys: Sequence[FieldYearKey],
    group: Sequence[CellSummary],
    world: Sequence[CellSummary],
) -> IndicatorValue:
    """``indicator_estimate`` as a value that is flagged, not raised, when undefined."""
    scope = frozenset(keys)
    try:
        estimate, note = indicator_estimate(indicator, keys, group, world)
    except UndefinedNormalizationError as exc:
        return IndicatorValue(group_label, scope, indicator, None, defined=False, note=str(exc))
    return IndicatorValue(group_label, scope, indicator, estimate, note=note)


# ------------------------------------------------- per-article reference


def _check_key(aset: ArticleSet, baseline: NormalizationBaseline) -> None:
    if aset.key != baseline.key:
        raise ValueError(f"baseline key {baseline.key} does not match cell key {aset.key}")


def normalize_log(aset: ArticleSet, baseline: NormalizationBaseline) -> NormalizedScores:
    _check_key(aset, baseline)
    if baseline.log_mean <= 0.0:
        raise UndefinedNormalizationError(
            f"undefined normalisation: all world counts zero for {baseline.key}"
        )
    values = np.log1p(aset.counts_array()) / baseline.log_mean
    return NormalizedScores(aset.group, aset.key, values)


def _common_group(sets: Sequence[NormalizedScores | ProportionSummary]) -> str:
    groups = {s.group for s in sets}
    if len(groups) > 1:
        raise ValueError(f"mixed groups {sorted(groups)}")
    return groups.pop()


def mnlcs(scores: Sequence[NormalizedScores]) -> IndicatorValue:
    """Flat mean of per-article log-ratio scores over every article in every cell."""
    if not scores:
        raise ValueError("no scores supplied")
    group = _common_group(scores)
    keys = [s.key for s in scores]
    if len(keys) != len(set(keys)):
        raise ValueError("overlapping scopes: duplicate cell keys")
    values = np.concatenate([s.values for s in scores])
    return IndicatorValue(group, frozenset(keys), MNLCS, float(values.mean()))


# ------------------------------------------ proportion-summary front end


def proportion_cited(sets: Sequence[ProportionSummary]) -> IndicatorValue:
    """Pooled proportion cited: total cited over total articles."""
    if not sets:
        raise ValueError("no proportion summaries supplied")
    return indicator_result(PROP_CITED, _common_group(sets), [s.key for s in sets], sets, ())


def equalised_proportion(sets: Sequence[ProportionSummary]) -> tuple[IndicatorValue, float]:
    """Unweighted average of per-cell proportions, plus the equalised cell size.

    The second return value is the mean cell size, needed when an interval
    is attached to the equalised proportion.
    """
    if not sets:
        raise ValueError("no proportion summaries supplied")
    keys = [s.key for s in sets]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate cell keys in equalised proportion")
    value = indicator_result(EQ_PROP_CITED, _common_group(sets), keys, sets, ())
    return value, sum(s.n for s in sets) / len(sets)


def _paired(
    indicator: str,
    group_sets: Sequence[ProportionSummary],
    world_sets: Sequence[ProportionSummary],
) -> IndicatorValue:
    group_by_key = {s.key: s for s in group_sets}
    world_by_key = {s.key: s for s in world_sets}
    if len(group_by_key) != len(group_sets) or len(world_by_key) != len(world_sets):
        raise ValueError("duplicate cell keys")
    if group_by_key.keys() != world_by_key.keys():
        raise ValueError("group and world summaries cover different cell keys")
    keys = sorted(group_by_key)
    return indicator_result(
        indicator, _common_group(group_sets), keys,
        [group_by_key[k] for k in keys], [world_by_key[k] for k in keys],
    )


def emnpc(
    group_sets: Sequence[ProportionSummary], world_sets: Sequence[ProportionSummary]
) -> IndicatorValue:
    """Ratio of group to world equalised proportions (a ratio of sums).

    Undefined (flagged, not raised) only when every world proportion is zero.
    """
    return _paired(EMNPC, group_sets, world_sets)


def mnpc(
    group_sets: Sequence[ProportionSummary], world_sets: Sequence[ProportionSummary]
) -> IndicatorValue:
    """Size-weighted sum of per-cell proportion ratios (a sum of ratios).

    A 0/0 cell ratio is replaced by 1 and noted; a cell with cited group
    articles over a zero world proportion makes the whole value undefined.
    """
    return _paired(MNPC, group_sets, world_sets)
