from __future__ import annotations

import math

import numpy as np
import pytest

from fieldnorm.corpus import WORLD, ArticleSet, Corpus, FieldYearKey
from fieldnorm.indicators import (
    EMNPC,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROPORTION_INDICATORS,
    ProportionSummary,
    UndefinedNormalizationError,
    compute_baseline,
    emnpc,
    equalised_proportion,
    indicator_estimate,
    mnlcs,
    mnpc,
    normalize_log,
    pooled_moments,
    proportion_cited,
    score_moments,
)
from fieldnorm.intervals import (
    ALPHA_DEFAULT,
    FIELLER,
    HEURISTIC_EXPANSION,
    NORMAL_T,
    TOO_FEW_VALUES,
    mnlcs_normal_ci,
)
from fieldnorm.scopes import (
    BOOTSTRAP,
    FIELLER_METHOD,
    FORMULA,
    indicator_value,
    resolve_continuity,
    route_interval,
)
from fieldnorm.synthetic import scenario_grid

from conftest import GROUP_A, GROUP_B, KEY_A, KEY_B, WORLD_A, WORLD_B, make_cell


def world_cell(key, counts):
    return ArticleSet(WORLD, key, tuple(counts))


def one_cell(indicator, group_counts, world_counts, key=KEY_A):
    """indicator_value of one group cell against one world cell."""
    corpus = Corpus.from_cells(
        [ArticleSet("G", key, tuple(group_counts)), world_cell(key, world_counts)]
    )
    return indicator_value(corpus, "G", {key}, indicator)


def summaries(group, spec):
    """spec: list of (field, cited, total)."""
    return [
        ProportionSummary(group, FieldYearKey(f, 2013), cited, total)
        for f, cited, total in spec
    ]


class TestBaseline:
    def test_two_field_worked_example(self):
        world_a = world_cell(KEY_A, WORLD_A)
        ba = compute_baseline(world_a)
        bb = compute_baseline(world_cell(KEY_B, WORLD_B))
        assert ba is world_a
        assert round(ba.log_mean, 2) == 0.64
        assert round(bb.log_mean, 2) == 0.83
        assert ba.log_mean == pytest.approx(0.63869, abs=5e-6)
        assert ba.cited / ba.n == 0.5
        assert bb.cited / bb.n == 0.8
        assert ba.raw_mean == pytest.approx(1.7)

    def test_all_zero_cell(self):
        b = compute_baseline(world_cell(KEY_A, [0, 0, 0]))
        assert b.log_mean == 0.0
        assert b.cited / b.n == 0.0

    def test_single_article_has_no_sd(self):
        assert compute_baseline(world_cell(KEY_A, [3])).log_sd is None

    def test_rejects_group_cell(self):
        with pytest.raises(ValueError):
            compute_baseline(make_cell("G", "A", 2013, [1]))

    def test_log_sd_uses_sample_denominator(self):
        b = compute_baseline(world_cell(KEY_A, [0, 1, 2, 3]))
        assert b.log_sd == pytest.approx(np.log1p([0, 1, 2, 3]).std(ddof=1))


class TestTransforms:
    def test_log_scores_match_worked_example(self):
        baseline = compute_baseline(world_cell(KEY_A, WORLD_A))
        scores = normalize_log(make_cell("G", "A", 2013, GROUP_A), baseline)
        assert scores.values.sum() == pytest.approx(6.56, abs=0.005)
        assert scores.values[0] == 0.0

    def test_zero_log_mean_rejected(self):
        baseline = compute_baseline(world_cell(KEY_A, [0, 0]))
        with pytest.raises(UndefinedNormalizationError, match="all world counts zero"):
            normalize_log(make_cell("G", "A", 2013, [1]), baseline)

    def test_key_mismatch_rejected(self):
        baseline = compute_baseline(world_cell(KEY_A, WORLD_A))
        with pytest.raises(ValueError, match="key"):
            normalize_log(make_cell("G", "B", 2013, [1]), baseline)

    def test_world_self_normalisation_log(self):
        cell = world_cell(KEY_A, WORLD_A)
        scores = normalize_log(cell, compute_baseline(cell))
        assert scores.values.mean() == pytest.approx(1.0, abs=1e-12)

    def test_lundberg_standardisation_identity(self):
        # the world cell's own z-scores have mean 0 and sample sd 1
        s = world_cell(KEY_B, WORLD_B)
        [(n, mean, m2)] = score_moments(LUNDBERG_Z, [s], [s])
        assert mean == 0.0
        assert math.sqrt(m2 / (n - 1)) == pytest.approx(1.0, abs=1e-12)

    def test_lundberg_centring(self):
        # a group cell with the world's own counts sits exactly at the centre
        assert one_cell(LUNDBERG_Z, WORLD_A, WORLD_A).estimate == 0.0

    def test_lundberg_group_mean_is_shifted_cell_mean(self):
        baseline = compute_baseline(world_cell(KEY_A, WORLD_A))
        logs = np.log1p(np.asarray(GROUP_A))
        expected = (logs.mean() - baseline.log_mean) / baseline.log_sd
        value = one_cell(LUNDBERG_Z, GROUP_A, WORLD_A)
        assert value.estimate == pytest.approx(expected, rel=1e-12)

    def test_raw_scores_against_stated_baseline(self):
        # group mean 13/5 over the world mean 17/10
        assert one_cell(MNCS, GROUP_A, WORLD_A).estimate == pytest.approx(2.6 / 1.7, rel=1e-12)

    def test_raw_world_self_mean_one(self):
        assert one_cell(MNCS, WORLD_A, WORLD_A).estimate == 1.0

    def test_cited_reciprocal_world_mean_one(self):
        # MNPC is the mean per-article score 1/(world share cited) if cited, else 0
        assert one_cell(MNPC, WORLD_A, WORLD_A).estimate == pytest.approx(1.0, abs=1e-12)


class TestMeanIndicators:
    def scores(self, counts_by_key, group="G"):
        worlds = {KEY_A: WORLD_A, KEY_B: WORLD_B}
        out = []
        for key, counts in counts_by_key.items():
            baseline = compute_baseline(world_cell(key, worlds[key]))
            out.append(normalize_log(ArticleSet(group, key, tuple(counts)), baseline))
        return out

    def test_worked_example_mnlcs(self):
        both = mnlcs(self.scores({KEY_A: GROUP_A, KEY_B: GROUP_B}))
        assert round(both.estimate, 2) == 1.09
        only_a = mnlcs(self.scores({KEY_A: GROUP_A}))
        only_b = mnlcs(self.scores({KEY_B: GROUP_B}))
        assert round(only_a.estimate, 2) == 1.31
        assert round(only_b.estimate, 2) == 0.87
        assert both.indicator == MNLCS

    def test_world_mnlcs_is_one(self):
        value = mnlcs(self.scores({KEY_A: WORLD_A, KEY_B: WORLD_B}, group=WORLD))
        assert value.estimate == pytest.approx(1.0, abs=1e-12)

    def test_flat_mean_invariant_under_article_permutation(self):
        shuffled = list(GROUP_A)[::-1]
        a = mnlcs(self.scores({KEY_A: GROUP_A, KEY_B: GROUP_B}))
        b = mnlcs(self.scores({KEY_A: shuffled, KEY_B: GROUP_B}))
        assert a.estimate == pytest.approx(b.estimate, rel=1e-15)

    def test_grouping_into_scopes_does_not_matter(self):
        parts = self.scores({KEY_A: GROUP_A, KEY_B: GROUP_B})
        combined = mnlcs(parts).estimate
        # weighted recombination of per-cell means
        per_cell = [(mnlcs([s]).estimate, len(s.values)) for s in parts]
        manual = sum(m * n for m, n in per_cell) / sum(n for _, n in per_cell)
        assert combined == pytest.approx(manual, rel=1e-12)

    def test_duplicate_scope_rejected(self):
        scores = self.scores({KEY_A: GROUP_A})
        with pytest.raises(ValueError, match="scope"):
            mnlcs(scores + scores)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mnlcs([])

    def test_mixed_groups_rejected(self):
        scores = self.scores({KEY_A: GROUP_A}) + self.scores({KEY_B: GROUP_B}, group="H")
        with pytest.raises(ValueError, match=r"^mixed groups \['G', 'H'\]$"):
            mnlcs(scores)

    def test_raw_transform_yields_mncs(self):
        value = one_cell(MNCS, GROUP_A, WORLD_A)
        assert value.indicator == MNCS
        per_article = np.asarray(GROUP_A) / np.mean(WORLD_A)
        assert value.estimate == pytest.approx(per_article.mean(), rel=1e-12)

    def test_zscore_transform_yields_lundberg(self):
        value = one_cell(LUNDBERG_Z, GROUP_A, WORLD_A)
        assert value.indicator == LUNDBERG_Z
        logs_w = np.log1p(WORLD_A)
        per_article = (np.log1p(GROUP_A) - logs_w.mean()) / logs_w.std(ddof=1)
        assert value.estimate == pytest.approx(per_article.mean(), rel=1e-12)


class TestProportions:
    def test_pooled_proportion(self):
        # 60% cited when publishing more in the high-citation field
        value = proportion_cited(summaries("A", [("MED", 160, 200), ("HUM", 20, 100)]))
        assert value.estimate == pytest.approx(0.60)
        value_b = proportion_cited(summaries("B", [("MED", 80, 100), ("HUM", 40, 200)]))
        assert value_b.estimate == pytest.approx(0.40)

    def test_all_cited(self):
        assert proportion_cited(summaries("A", [("F", 5, 5)])).estimate == 1.0

    @pytest.mark.parametrize("pool", [proportion_cited, equalised_proportion])
    def test_duplicate_keys_rejected(self, pool):
        # Two cells of one key are one cell read twice, not a pooled scope.
        cells = [make_cell("G", "A", 2013, (0, 1, 2)), make_cell("G", "A", 2013, (0, 0, 0, 0, 5))]
        with pytest.raises(ValueError, match="duplicate cell keys"):
            pool(cells)

    @pytest.mark.parametrize("cited, n", [(-1, 5), (6, 5), (0, 0)])
    def test_invalid_summary_rejected(self, cited, n):
        with pytest.raises(ValueError, match=f"^invalid proportion summary {cited}/{n}$"):
            ProportionSummary("G", KEY_A, cited, n)

    def test_equalised_proportion_sums_in_key_order(self):
        # Shares 0.1, 0.4 and 0.1 sum to different doubles in different
        # orders; the value is the one the report gives, in key order.
        cells = summaries("G", [("A", 1, 10), ("C", 4, 10), ("B", 1, 10)])
        value = equalised_proportion(cells)[0].estimate
        assert value == equalised_proportion(sorted(cells, key=lambda s: s.key))[0].estimate
        assert value == ((0.1 + 0.1) + 0.4) / 3

    def test_equalised_proportion_ignores_sizes(self):
        a, n_a = equalised_proportion(summaries("A", [("MED", 160, 200), ("HUM", 20, 100)]))
        b, n_b = equalised_proportion(summaries("B", [("MED", 80, 100), ("HUM", 40, 200)]))
        assert a.estimate == pytest.approx(0.5)
        assert b.estimate == pytest.approx(0.5)
        assert n_a == pytest.approx(150)
        assert n_b == pytest.approx(150)

    def test_single_cell_equalised_is_raw(self):
        value, n_hat = equalised_proportion(summaries("A", [("F", 3, 9)]))
        assert value.estimate == pytest.approx(1 / 3)
        assert n_hat == 9


OTHER_WORLD = summaries("H", [("A", 5, 10), ("B", 8, 10)])
NOT_WORLD = r"world cells must be labelled WORLD, got \['H'\]"


@pytest.mark.parametrize("call, message", [
    (lambda: proportion_cited([]), "no group cells supplied"),
    (lambda: equalised_proportion([]), "no group cells supplied"),
    (lambda: emnpc(summaries("G", [("A", 3, 5), ("B", 4, 5)]), OTHER_WORLD), NOT_WORLD),
    (lambda: mnpc(summaries("G", [("A", 3, 5), ("B", 4, 5)]), OTHER_WORLD), NOT_WORLD),
], ids=["pooled-empty", "equalised-empty", "emnpc-world-label", "mnpc-world-label"])
def test_front_end_rejects_raw_cell_sets_as_pair_cells_does(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestEmnpc:
    def test_worked_example(self):
        group = summaries("G", [("A", 3, 5), ("B", 4, 5)])
        world = summaries(WORLD, [("A", 5, 10), ("B", 8, 10)])
        assert emnpc(group, world).estimate == pytest.approx(1.0769, abs=5e-4)

    def test_two_field_low_high_example(self):
        group = summaries("G", [("C", 8, 100), ("D", 10, 200)])
        world = summaries(WORLD, [("C", 4, 100), ("D", 40, 200)])
        assert emnpc(group, world).estimate == pytest.approx(0.542, abs=5e-4)

    def test_identity(self):
        sets = summaries("G", [("A", 3, 5), ("B", 4, 5)])
        world = summaries(WORLD, [("A", 3, 5), ("B", 4, 5)])
        assert emnpc(sets, world).estimate == pytest.approx(1.0)

    def test_all_world_zero_flagged(self):
        group = summaries("G", [("A", 1, 5)])
        world = summaries(WORLD, [("A", 0, 5)])
        value = emnpc(group, world)
        assert not value.defined and value.estimate is None

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="missing world cells for"):
            emnpc(summaries("G", [("A", 1, 5)]), summaries(WORLD, [("B", 1, 5)]))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="^no group cells supplied$"):
            emnpc([], [])


class TestMnpc:
    def test_worked_example(self):
        group = summaries("G", [("A", 3, 5), ("B", 4, 5)])
        world = summaries(WORLD, [("A", 5, 10), ("B", 8, 10)])
        assert mnpc(group, world).estimate == pytest.approx(1.1)

    def test_two_field_low_high_example(self):
        group = summaries("G", [("C", 8, 100), ("D", 10, 200)])
        world = summaries(WORLD, [("C", 4, 100), ("D", 40, 200)])
        assert mnpc(group, world).estimate == pytest.approx(0.833, abs=5e-4)

    def test_opposite_specialisms_both_score_one(self):
        world = summaries(WORLD, [("X", 800, 1000), ("Y", 200, 1000)])
        a = mnpc(summaries("A", [("X", 88, 100), ("Y", 18, 100)]), world)
        b = mnpc(summaries("B", [("X", 72, 100), ("Y", 22, 100)]), world)
        assert a.estimate == pytest.approx(1.0)
        assert b.estimate == pytest.approx(1.0)

    def test_zero_over_zero_counts_as_one(self):
        group = summaries("G", [("A", 0, 10), ("B", 5, 10)])
        world = summaries(WORLD, [("A", 0, 10), ("B", 5, 10)])
        value = mnpc(group, world)
        assert value.defined
        assert value.estimate == pytest.approx(1.0)
        assert "0/0" in value.note

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="^no group cells supplied$"):
            mnpc([], summaries(WORLD, [("A", 5, 10)]))

    def test_cited_over_zero_world_is_undefined(self):
        group = summaries("G", [("A", 1, 10), ("B", 5, 10)])
        world = summaries(WORLD, [("A", 0, 10), ("B", 5, 10)])
        value = mnpc(group, world)
        assert not value.defined
        assert "zero world proportion" in value.note


class TestCrossIndicatorProperties:
    def test_mnpc_equals_binarised_mncs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            keys = [FieldYearKey(f, 2015) for f in ("U", "V", "W")]
            group_cells, world_cells = [], []
            for key in keys:
                g = rng.integers(0, 4, rng.integers(5, 40))
                w = np.concatenate([g, rng.integers(0, 4, rng.integers(5, 40))])
                if not np.any(w > 0):
                    w[0] = 1
                group_cells.append(ArticleSet("G", key, g))
                world_cells.append(ArticleSet(WORLD, key, w))
            value = mnpc(group_cells, world_cells)

            binarised = Corpus.from_cells(
                ArticleSet(c.group, c.key, np.minimum(c.counts, 1))
                for c in group_cells + world_cells
            )
            mncs_value = indicator_value(binarised, "G", set(keys), MNCS)
            assert value.estimate == pytest.approx(mncs_value.estimate, rel=1e-12)

    def test_weighted_sum_matches_per_article_mean(self):
        rng = np.random.default_rng(9)
        keys = [FieldYearKey(f, 2014) for f in ("P", "Q")]
        group_cells, world_cells = [], []
        for key in keys:
            g = rng.integers(0, 3, 30)
            w = rng.integers(0, 3, 50)
            if not np.any(w > 0):
                w[0] = 1
            group_cells.append(ArticleSet("G", key, g))
            world_cells.append(ArticleSet(WORLD, key, w))
        value = mnpc(group_cells, world_cells)
        per_article = np.concatenate(
            [
                np.where(g.counts_array() > 0, w.n / compute_baseline(w).cited, 0.0)
                for g, w in zip(group_cells, world_cells)
            ]
        )
        assert value.estimate == pytest.approx(per_article.mean(), rel=1e-12)

    def test_emnpc_mnpc_world_identity(self):
        world = summaries(WORLD, [("A", 5, 10), ("B", 8, 10)])
        world_as_group = [
            ProportionSummary("X", s.key, s.cited, s.n) for s in world
        ]
        assert emnpc(world_as_group, world).estimate == pytest.approx(1.0)
        assert mnpc(world_as_group, world).estimate == pytest.approx(1.0)


def per_article(indicator, group_cells, world_cells):
    """Per-article normalised scores of a mean indicator, concatenated over cells."""
    scores = []
    for g, w in zip(group_cells, world_cells):
        counts, logs_w = g.counts_array(), np.log1p(w.counts_array())
        if indicator == MNLCS:
            scores.append(np.log1p(counts) / logs_w.mean())
        elif indicator == MNCS:
            scores.append(counts / w.counts_array().mean())
        else:
            scores.append((np.log1p(counts) - logs_w.mean()) / logs_w.std(ddof=1))
    return np.concatenate(scores)


class TestKernel:
    """The per-cell kernel against per-article scores computed directly."""

    @pytest.mark.parametrize("indicator", [MNLCS, MNCS, LUNDBERG_Z])
    def test_estimate_and_normal_limits_match_per_article_scores(self, indicator):
        for corpus in scenario_grid([0.8, 1.4], [1.0], [0.0, 0.4], [120, 7], base_seed=3):
            keys = corpus.keys_for("G1")
            ordered = sorted(keys)
            values = per_article(
                indicator,
                [corpus.cell("G1", k) for k in ordered],
                [corpus.world(k) for k in ordered],
            )
            value = indicator_value(corpus, "G1", keys, indicator)
            assert value.estimate == pytest.approx(values.mean(), rel=1e-12, abs=1e-14)
            reference = mnlcs_normal_ci(values)
            interval = route_interval(corpus.scope("G1", keys), indicator, FORMULA, ALPHA_DEFAULT)
            assert interval.lower == pytest.approx(reference.lower, rel=1e-12, abs=1e-14)
            assert interval.upper == pytest.approx(reference.upper, rel=1e-12, abs=1e-14)

    def test_pooled_moments_match_concatenation(self):
        rng = np.random.default_rng(12)
        parts = [rng.lognormal(0.0, 1.0, n) for n in (1, 4, 30)]
        cells = []
        for values in parts:
            deviations = values - values.mean()
            cells.append((len(values), values.mean(), float(deviations @ deviations)))
        n, mean, m2 = pooled_moments(cells)
        together = np.concatenate(parts)
        assert n == len(together)
        assert mean == pytest.approx(together.mean(), rel=1e-12)
        assert m2 / (n - 1) == pytest.approx(together.var(ddof=1), rel=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda scope: indicator_estimate("MNLSC", *scope), "unknown indicator 'MNLSC'"),
        (lambda scope: route_interval(scope, "MNLSC", FORMULA, ALPHA_DEFAULT, "auto"),
         "no formula interval for indicator 'MNLSC'"),
        (lambda scope: resolve_continuity("of", scope.group, scope.world),
         "unknown continuity mode 'of'"),
        (lambda scope: route_interval(scope, MNLCS, FIELLER_METHOD, ALPHA_DEFAULT, "auto", "bogus"),
         "unknown expansion mode 'bogus'"),
    ], ids=["estimate", "formula-interval", "continuity", "fieller-interval"])
    def test_invalid_argument_rejected(self, demo_corpus, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(demo_corpus.scope("G", {KEY_A, KEY_B}))

    @pytest.mark.parametrize("call, message", [
        (lambda scope: route_interval(scope, MNLCS, FORMULA, 0.7, "auto"),
         r"alpha must lie in \(0, 0\.5\)"),
        (lambda scope: route_interval(scope, MNLCS, FORMULA, ALPHA_DEFAULT, "bogus"),
         "unknown continuity mode 'bogus'"),
        (lambda scope: route_interval(scope, MNLCS, FIELLER_METHOD, 0.7, "auto", "bogus"),
         r"alpha must lie in \(0, 0\.5\)"),
        (lambda scope: route_interval(scope, MNLCS, FIELLER_METHOD, ALPHA_DEFAULT, "auto", "bogus"),
         "unknown expansion mode 'bogus'"),
    ], ids=["formula-alpha", "formula-continuity", "fieller-alpha", "fieller-expansion"])
    def test_unread_setting_rejected(self, demo_corpus, call, message):
        # An MNLCS interval over one key reads neither mode, nor checks alpha
        # against (0, 0.5) on its own.
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(demo_corpus.scope("G", {KEY_A}))

    def test_empty_scope_rejected(self, demo_corpus):
        with pytest.raises(ValueError, match="^empty scope$"):
            indicator_value(demo_corpus, "G", set(), MNLCS)

    def test_undefined_over_zero_world(self):
        for indicator in (MNLCS, MNCS, LUNDBERG_Z, MNPC, EMNPC):
            value = one_cell(indicator, [1, 2, 0], [0, 0, 0])
            assert not value.defined and value.estimate is None

    @pytest.mark.parametrize("group_b, world_a, method, note", [
        ([2], WORLD_A, HEURISTIC_EXPANSION, TOO_FEW_VALUES),
        (GROUP_B, [0] * 3, HEURISTIC_EXPANSION,
         f"undefined normalisation: all world counts zero for {KEY_A}"),
        (None, [0] * 3, FIELLER, f"undefined normalisation: all world counts zero for {KEY_A}"),
    ], ids=["one-article-cell", "zero-world", "zero-world-one-key"])
    def test_fieller_interval_flags_data_faults(self, group_b, world_a, method, note):
        cells = [ArticleSet("G", KEY_A, GROUP_A), world_cell(KEY_A, world_a),
                 world_cell(KEY_B, WORLD_B)]
        if group_b is not None:
            cells.append(ArticleSet("G", KEY_B, group_b))
        corpus = Corpus.from_cells(cells)
        interval = route_interval(corpus.scope("G", corpus.keys_for("G")), MNLCS, FIELLER_METHOD,
                                  ALPHA_DEFAULT, "auto", "literal")
        assert (interval.defined, interval.method, interval.note) == (False, method, note)

    @pytest.mark.parametrize("indicator", [MNLCS, MNCS, LUNDBERG_Z])
    def test_formula_interval_over_zero_world_is_flagged(self, indicator):
        corpus = Corpus.from_cells([ArticleSet("G", KEY_A, (1, 2, 0)), world_cell(KEY_A, [0] * 3)])
        interval = route_interval(corpus.scope("G", {KEY_A}), indicator, FORMULA, ALPHA_DEFAULT)
        assert (interval.defined, interval.method) == (False, NORMAL_T)
        assert interval.note == one_cell(indicator, [1, 2, 0], [0, 0, 0]).note
        assert interval.note.endswith(f"for {KEY_A}")

    @pytest.mark.parametrize("indicator, route", [
        *((indicator, BOOTSTRAP) for indicator in (MNLCS, MNCS, MNPC)),
        *((indicator, FIELLER_METHOD) for indicator in (MNCS, LUNDBERG_Z, *PROPORTION_INDICATORS)),
        (MNLCS, "delta"),
    ])
    def test_route_without_analytic_interval_rejected(self, demo_corpus, indicator, route):
        with pytest.raises(ValueError, match=f"^route '{route}' gives no analytic interval"
                                             f" for {indicator}$"):
            route_interval(demo_corpus.scope("G", {KEY_A}), indicator, route, ALPHA_DEFAULT)
