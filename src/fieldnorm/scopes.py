"""Assembly of indicator values and intervals over a scope of cells.

A scope is a set of field/year keys for one group.  The code that builds a
row resolves it once, with ``Corpus.scope``, into a ``Scope``: the sorted
keys with the group's and the world's cell of each.  ``route_interval``,
the one entry to the analytic routes (formula, Fieller), hands its cells to
the kernel in ``indicators`` for the moments or counts of the indicator's
interval, and ``method_tag`` names the method each route's row carries; the
point estimate is ``indicators.indicator_result`` over the same Scope, a
flagged value that never raises for data-dependent degeneracies.
"""

from __future__ import annotations

from .corpus import ArticleSet, Corpus, FieldYearKey, Scope
from .indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MEAN_INDICATORS,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
    IndicatorValue,
    UndefinedNormalizationError,
    indicator_estimate,
    indicator_result,
    pooled_moments,
    score_moments,
)
from .intervals import (
    BOOTSTRAP_PERCENTILE,
    EXPANSION_DEFAULT,
    FIELLER,
    HEURISTIC_EXPANSION,
    MNPC_WEIGHTED,
    NORMAL_T,
    RISK_RATIO,
    TOO_FEW_VALUES,
    WILSON,
    IntervalEstimate,
    SampleMoments,
    check_alpha,
    check_expansion,
    fieller_ci,
    heuristic_expanded_ci,
    mnpc_combined_ci,
    mnpc_field_ci,
    normal_t_ci,
    risk_ratio_ci,
    wilson_ci,
)

# Analytic method attached to each indicator by the formula route.
FORMULA_METHOD = {
    MNLCS: NORMAL_T,
    MNCS: NORMAL_T,
    LUNDBERG_Z: NORMAL_T,
    EMNPC: RISK_RATIO,
    MNPC: MNPC_WEIGHTED,
    PROP_CITED: WILSON,
    EQ_PROP_CITED: WILSON,
}

CONTINUITY_MODES = ("auto", "on", "off")
CONTINUITY_DEFAULT = "auto"

# The interval routes of a planned row.
FORMULA = "formula"
FIELLER_METHOD = "fieller"
BOOTSTRAP = "bootstrap"
CI_METHODS = (FORMULA, FIELLER_METHOD, BOOTSTRAP)


def check_run(alpha: float, continuity: str, expansion_mode: str) -> None:
    """The one check of a run's level, continuity rule and expansion mode."""
    check_alpha(alpha)
    _check_continuity(continuity)
    check_expansion(expansion_mode)


def _check_continuity(mode: str) -> None:
    if mode not in CONTINUITY_MODES:
        raise ValueError(f"unknown continuity mode {mode!r}")


def route_applies(indicator: str, route: str) -> bool:
    """Whether ``route`` serves ``indicator``: formula and bootstrap serve all, Fieller MNLCS."""
    if route == FIELLER_METHOD:
        return indicator == MNLCS
    return route in (FORMULA, BOOTSTRAP)


def method_tag(indicator: str, route: str, keys: tuple[FieldYearKey, ...]) -> str:
    """The interval method a row of ``route`` over ``keys`` carries, defined or flagged."""
    if route == FORMULA:
        return FORMULA_METHOD[indicator]
    if route == FIELLER_METHOD:
        return FIELLER if len(keys) == 1 else HEURISTIC_EXPANSION
    return BOOTSTRAP_PERCENTILE


def indicator_value(
    corpus: Corpus, group: str, keys: set[FieldYearKey], indicator: str
) -> IndicatorValue:
    """Point estimate over a scope, flagged rather than raised when undefined."""
    if not keys:
        raise ValueError("empty scope")
    return indicator_result(indicator, *corpus.scope(group, keys))


def resolve_continuity(
    mode: str,
    group_sets: tuple[ArticleSet, ...],
    world_sets: tuple[ArticleSet, ...],
) -> bool:
    """'auto' switches the correction on once any cell's cited count drops below 5."""
    _check_continuity(mode)
    if mode == "auto":
        return any(s.cited < 5 for s in group_sets + world_sets)
    return mode == "on"


def _equalised(cells: tuple[ArticleSet, ...]) -> float:
    return indicator_estimate(EQ_PROP_CITED, (), cells, ())[0]


def route_interval(
    scope: Scope, indicator: str, route: str, alpha: float,
    continuity: str = CONTINUITY_DEFAULT, expansion_mode: str = EXPANSION_DEFAULT,
) -> IntervalEstimate:
    """The formula or Fieller interval of ``indicator`` over the scope.

    The run's settings (``check_run``) and the route are checked before the
    scope is read; the bootstrap route, or one that does not serve the
    indicator, raises ValueError.  A data fault, such as an undefined
    normalisation, gives a flagged interval.
    """
    check_run(alpha, continuity, expansion_mode)
    if route == BOOTSTRAP or not route_applies(indicator, route):
        raise ValueError(f"route {route!r} gives no analytic interval for {indicator}")
    try:
        return (_formula_interval(scope, indicator, alpha, continuity) if route == FORMULA
                else _fieller_interval(scope, alpha, expansion_mode))
    except UndefinedNormalizationError as exc:
        return IntervalEstimate.undefined(method_tag(indicator, route, scope.keys), alpha, str(exc))


def _formula_interval(
    scope: Scope, indicator: str, alpha: float, continuity: str
) -> IntervalEstimate:
    """The analytic interval belonging to ``indicator`` over the scope."""
    ordered, group_cells, world_cells = scope
    if indicator in MEAN_INDICATORS:
        n, mean, m2 = pooled_moments(score_moments(indicator, ordered, group_cells, world_cells))
        if n < 2:
            return IntervalEstimate.undefined(NORMAL_T, alpha, "fewer than two articles in scope")
        return normal_t_ci(SampleMoments.from_m2(n, mean, m2), alpha)

    n_group = sum(s.n for s in group_cells)
    if indicator == PROP_CITED:
        return wilson_ci(sum(s.cited for s in group_cells), n_group, alpha)
    if indicator == EQ_PROP_CITED:
        return wilson_ci(round(_equalised(group_cells) * n_group), n_group, alpha)

    correct = resolve_continuity(continuity, group_cells, world_cells)
    if indicator == EMNPC:
        p_group, p_world = _equalised(group_cells), _equalised(world_cells)
        n_world = sum(s.n for s in world_cells)
        return risk_ratio_ci(
            (p_group * n_group, n_group), (p_world * n_world, n_world), alpha, correct
        )
    if indicator == MNPC:
        per_field = []
        for key, g, w in zip(ordered, group_cells, world_cells):
            cell = mnpc_field_ci((g.cited, g.n), (w.cited, w.n), alpha, correct)
            if not cell.defined:
                return IntervalEstimate.undefined(MNPC_WEIGHTED, alpha, f"{cell.note} for {key}")
            per_field.append((g.n / n_group, cell.estimate, cell))
        point, _ = indicator_estimate(MNPC, ordered, group_cells, world_cells)
        return mnpc_combined_ci(per_field, point)
    raise ValueError(f"no formula interval for indicator {indicator!r}")


def _fieller_interval(scope: Scope, alpha: float, expansion_mode: str) -> IntervalEstimate:
    """MNLCS's Fieller limits for one cell, from its ln(1+c) moments; expanded over several."""
    ordered, group_cells, world_cells = scope
    cells = score_moments(MNLCS, ordered, group_cells, world_cells)
    if any(c.n < 2 for c in group_cells + world_cells):
        tag = method_tag(MNLCS, FIELLER_METHOD, ordered)
        return IntervalEstimate.undefined(tag, alpha, TOO_FEW_VALUES)
    # Each cell's Fieller limits, from the moments of its ln(1+c) values.
    fiellers = (
        fieller_ci(*(SampleMoments.from_m2(c.n, c.log_mean, c.log_m2) for c in pair), alpha)
        for pair in zip(group_cells, world_cells)
    )
    if len(ordered) == 1:
        return next(fiellers)
    per_cell = [
        (n, normal_t_ci(SampleMoments.from_m2(n, mean, m2), alpha), fieller, mean)
        for (n, mean, m2), fieller in zip(cells, fiellers)
    ]
    n, mean, m2 = pooled_moments(cells)
    combined = normal_t_ci(SampleMoments.from_m2(n, mean, m2), alpha)
    return heuristic_expanded_ci(per_cell, combined, mean, expansion_mode)
