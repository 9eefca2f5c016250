"""Property tests of the indicators, run through ``indicator_value``.

Examples are derandomised and few, so the suite stays deterministic and fast.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldnorm.corpus import WORLD, ArticleSet, Corpus, FieldYearKey
from fieldnorm.indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
)
from fieldnorm.intervals import ALPHA_DEFAULT, EXPAND_FROM_MEAN, LITERAL
from fieldnorm.scopes import (
    CONTINUITY_MODES,
    fieller_interval,
    formula_interval,
    indicator_value,
)

ALL_INDICATORS = (MNLCS, MNCS, LUNDBERG_Z, EMNPC, MNPC, PROP_CITED, EQ_PROP_CITED)
SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)

counts = st.lists(st.integers(0, 60), min_size=1, max_size=25)


@st.composite
def cells(draw) -> list[ArticleSet]:
    """Group "G" and WORLD cells over one to three fields.

    Every world cell holds an uncited and a cited article, so no indicator
    is undefined.
    """
    out = []
    for f in range(draw(st.integers(1, 3))):
        key = FieldYearKey(f"F{f}", 2015)
        out.append(ArticleSet(WORLD, key, tuple(draw(counts)) + (0, 1)))
        out.append(ArticleSet("G", key, tuple(draw(counts))))
    return out


def estimates(sets: list[ArticleSet], group: str = "G") -> dict[str, float | None]:
    corpus = Corpus.from_cells(sets)
    keys = corpus.keys_for(group)
    return {i: indicator_value(corpus, group, keys, i).estimate for i in ALL_INDICATORS}


@SETTINGS
@given(cells())
def test_world_scores_exactly_one_or_zero(sets):
    values = estimates(sets, WORLD)
    assert values[MNLCS] == 1.0
    assert values[MNCS] == 1.0
    assert values[EMNPC] == 1.0
    assert values[LUNDBERG_Z] == 0.0
    # MNPC weights every cell ratio by n_k/N, and those weights sum to 1
    # only up to rounding.
    assert abs(values[MNPC] - 1.0) <= 1e-12


@SETTINGS
@given(cells(), st.data())
def test_article_and_cell_order_do_not_matter(sets, data):
    shuffled = [
        ArticleSet(a.group, a.key, data.draw(st.permutations(a.counts.tolist()))) for a in sets
    ]
    shuffled = data.draw(st.permutations(shuffled))
    for group in ("G", WORLD):
        assert estimates(shuffled, group) == estimates(sets, group)


@SETTINGS
@given(cells(), st.integers(2, 4))
def test_repeating_every_article_changes_nothing(sets, k):
    before = estimates(sets)
    after = estimates([ArticleSet(a.group, a.key, np.tile(a.counts, k)) for a in sets])
    # LUNDBERG_Z is left out: the world sample sd divides by n - 1, so k
    # copies of every article scale it by sqrt(k (n - 1) / (k n - 1)).
    for indicator in ALL_INDICATORS:
        if indicator != LUNDBERG_Z:
            assert math.isclose(after[indicator], before[indicator], rel_tol=1e-12)


@SETTINGS
@given(cells(), st.sampled_from(CONTINUITY_MODES))
def test_defined_analytic_intervals_bracket_the_estimate(sets, continuity):
    # Every formula-route interval (NORMAL_T, WILSON, RISK_RATIO,
    # MNPC_WEIGHTED) and the Fieller/HEURISTIC_EXPANSION interval in both
    # expansion modes.  Bootstrap limits are left out: percentile limits of
    # a skewed replicate distribution need not bracket the estimate, and
    # compare_ci already turns that case into a gap row.
    corpus = Corpus.from_cells(sets)
    for group in ("G", WORLD):
        keys = corpus.keys_for(group)
        for indicator in ALL_INDICATORS:
            scope = corpus.scope(group, keys)
            intervals = [formula_interval(scope, indicator, ALPHA_DEFAULT, continuity)]
            if indicator == MNLCS:
                intervals += [
                    fieller_interval(scope, ALPHA_DEFAULT, mode)
                    for mode in (LITERAL, EXPAND_FROM_MEAN)
                ]
            estimate = indicator_value(corpus, group, keys, indicator).estimate
            for interval in intervals:
                if interval.defined:
                    assert interval.lower <= estimate <= interval.upper, interval
