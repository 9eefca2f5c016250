from __future__ import annotations

import math

import numpy as np
import pytest

from fieldnorm.bootstrap import (
    BootstrapSpec,
    bootstrap_indicator,
    compare_ci,
    comparison_suite,
    pcg64_state,
    percentile,
    replicate_values,
    seed_words,
    summarize_comparisons,
)
from fieldnorm.corpus import WORLD, ArticleSet, Corpus, FieldYearKey
from fieldnorm.indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
    UndefinedNormalizationError,
    indicator_estimate,
)
from fieldnorm.intervals import IntervalEstimate, NORMAL_T
from fieldnorm.scopes import indicator_value
from fieldnorm.synthetic import LognormalSpec, generate_cell, scenario_grid

from conftest import GROUP_A, GROUP_B, KEY_A, KEY_B, WORLD_A, WORLD_B


def demo_sets():
    group = [ArticleSet("G", KEY_A, GROUP_A), ArticleSet("G", KEY_B, GROUP_B)]
    world = [ArticleSet(WORLD, KEY_A, WORLD_A), ArticleSet(WORLD, KEY_B, WORLD_B)]
    return group, world


class TestPercentile:
    def test_nearest_rank_median(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2

    def test_rank_25_of_1000(self):
        values = list(range(1, 1001))
        assert percentile(values, 0.025) == 25

    def test_extremes(self):
        values = [3, 5, 9]
        assert percentile(values, 1.0) == 9
        assert percentile(values, 0.0) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestPointEstimate:
    """The bootstrap's point estimate is the one the report prints."""

    def pin(self, indicator):
        group, world = demo_sets()
        boot = bootstrap_indicator(group, world, indicator, BootstrapSpec(100, seed=0))
        ops_value = indicator_value(
            Corpus.from_cells(group + world), "G", {KEY_A, KEY_B}, indicator
        )
        return boot.estimate, ops_value.estimate

    @pytest.mark.parametrize("indicator", [MNLCS, MNCS, LUNDBERG_Z, EMNPC, MNPC])
    def test_matches_operation_path(self, indicator):
        boot, reference = self.pin(indicator)
        assert boot == reference

    def test_random_corpora_agreement(self):
        spec = BootstrapSpec(100, seed=8)
        for corpus in scenario_grid([0.8, 1.4], [1.0], [0.0, 0.4], [120], base_seed=3):
            keys = sorted(corpus.keys_for("G1"))
            group = [corpus.cell("G1", k) for k in keys]
            world = [corpus.world(k) for k in keys]
            for indicator in (MNLCS, MNCS, LUNDBERG_Z, EMNPC, MNPC):
                reference = indicator_value(corpus, "G1", set(keys), indicator)
                if reference.defined:
                    boot = bootstrap_indicator(group, world, indicator, spec)
                    assert boot.estimate == reference.estimate
                else:
                    with pytest.raises(ValueError, match="undefined"):
                        bootstrap_indicator(group, world, indicator, spec)

    def test_undefined_cases(self):
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (1, 2, 0))]
        world = [ArticleSet(WORLD, key, (0, 0, 0))]
        for indicator in (MNLCS, MNCS, MNPC, EMNPC):
            with pytest.raises(ValueError, match="undefined on the original data"):
                bootstrap_indicator(group, world, indicator, BootstrapSpec(100, seed=0))


class TestBootstrapIndicator:
    def test_constant_data_zero_width(self):
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (3,) * 40)]
        world = [ArticleSet(WORLD, key, (3,) * 40)]
        ci = bootstrap_indicator(group, world, MNLCS, BootstrapSpec(200, seed=1))
        assert ci.lower == ci.upper == pytest.approx(ci.estimate)

    def test_deterministic_for_fixed_seed(self):
        group, world = demo_sets()
        spec = BootstrapSpec(300, seed=42)
        a = bootstrap_indicator(group, world, MNLCS, spec)
        b = bootstrap_indicator(group, world, MNLCS, spec)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_limits_inside_replicate_range(self):
        group, world = demo_sets()
        ci = bootstrap_indicator(group, world, MNLCS, BootstrapSpec(500, seed=3))
        assert ci.lower <= ci.estimate <= ci.upper

    def test_article_order_exchangeability(self):
        group, world = demo_sets()
        shuffled_group = [
            ArticleSet(a.group, a.key, tuple(reversed(a.counts))) for a in group
        ]
        spec = BootstrapSpec(200, seed=9)
        a = bootstrap_indicator(group, world, MNLCS, spec)
        b = bootstrap_indicator(shuffled_group, world, MNLCS, spec)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_world_fixed_normalised_equals_raw_then_normalise(self):
        # with the world frozen, bootstrapping the raw counts and dividing by
        # the fixed world mean must match bootstrapping pre-normalised values
        key = FieldYearKey("F", 2015)
        rng = np.random.default_rng(5)
        counts = tuple(int(c) for c in rng.integers(0, 30, 200))
        world_counts = tuple(int(c) for c in rng.integers(0, 30, 400))
        group = [ArticleSet("G", key, counts)]
        world = [ArticleSet(WORLD, key, world_counts)]
        spec = BootstrapSpec(300, seed=11, resample_world=False)
        ci = bootstrap_indicator(group, world, MNCS, spec)

        raw_mean = np.mean(world_counts)
        snapshot = np.sort(np.asarray(counts)) / raw_mean
        reps = []
        for r in range(spec.iterations):
            rng_r = np.random.default_rng(np.random.SeedSequence([spec.seed, r]))
            idx = rng_r.integers(0, len(snapshot), len(snapshot))
            reps.append(float(snapshot[idx].mean()))
        reps.sort()
        assert ci.lower == pytest.approx(percentile(reps, 0.025), rel=1e-12)
        assert ci.upper == pytest.approx(percentile(reps, 0.975), rel=1e-12)

    def test_undefined_replicates_flag_interval(self):
        # a world cell with a single cited article: resampling loses it
        # often, so far more than alpha/2 of MNPC replicates are undefined
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (1, 1, 0, 0))]
        world = [ArticleSet(WORLD, key, (1, 0, 0, 0, 0, 0, 0, 0))]
        ci = bootstrap_indicator(group, world, MNPC, BootstrapSpec(400, seed=2))
        assert not ci.defined
        assert "undefined replicates" in ci.note

    def test_undefined_original_rejected(self):
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (1, 1))]
        world = [ArticleSet(WORLD, key, (0, 0))]
        with pytest.raises(ValueError, match="undefined"):
            bootstrap_indicator(group, world, MNPC, BootstrapSpec(100, seed=0))

    def test_note_records_world_mode(self):
        group, world = demo_sets()
        on = bootstrap_indicator(group, world, MNLCS, BootstrapSpec(100, seed=1))
        off = bootstrap_indicator(
            group, world, MNLCS, BootstrapSpec(100, seed=1, resample_world=False)
        )
        assert "resample_world=true" in on.note
        assert "resample_world=false" in off.note


class TestCompareCi:
    def interval(self, lower, upper, method=NORMAL_T):
        return IntervalEstimate((lower + upper) / 2, lower, upper, 0.05, method)

    def test_identical_intervals(self):
        a = self.interval(0.8, 1.2)
        out = compare_ci(a, a, 1.0)
        assert out.lower_pct_diff == 0.0
        assert out.upper_pct_diff == 0.0

    def test_halved_formula(self):
        boot = self.interval(0.8, 1.2)
        formula = self.interval(0.9, 1.1)
        out = compare_ci(formula, boot, 1.0)
        assert out.lower_pct_diff == pytest.approx(0.25)
        assert out.upper_pct_diff == pytest.approx(0.25)

    def test_wider_formula_lower_half(self):
        boot = self.interval(0.8, 1.2)  # width 0.4
        formula = self.interval(0.7, 1.2)
        out = compare_ci(formula, boot, 1.0)
        assert out.lower_pct_diff == pytest.approx(-0.25)

    def test_half_width_basis(self):
        boot = self.interval(0.8, 1.2)
        formula = self.interval(0.9, 1.1)
        out = compare_ci(formula, boot, 1.0, half_width_basis=True)
        assert out.lower_pct_diff == pytest.approx(0.5)
        assert out.basis == pytest.approx(0.4)

    def test_zero_width_bootstrap_rejected(self):
        boot = self.interval(1.0, 1.0)
        with pytest.raises(ValueError, match="zero-width"):
            compare_ci(self.interval(0.9, 1.1), boot, 1.0)

    def test_undefined_rejected(self):
        undefined = IntervalEstimate(1.0, None, None, 0.05, NORMAL_T, defined=False)
        with pytest.raises(ValueError, match="defined"):
            compare_ci(undefined, self.interval(0.9, 1.1), 1.0)


class TestComparisonSuite:
    def test_single_scenario_single_row(self):
        scenarios = scenario_grid([1.0], [1.0], [0.0], [200], base_seed=7)
        spec = BootstrapSpec(150, seed=1, resample_world=False)
        rows = comparison_suite(scenarios, [MNLCS], spec)
        assert len(rows) == 1
        assert rows[0].defined
        summary = summarize_comparisons(rows)[0]
        assert summary.cells == 1 and summary.gaps == 0

    def test_gap_rows_for_undefined(self):
        key = FieldYearKey("Z", 2015)
        corpus = Corpus.from_cells(
            [ArticleSet("G1", key, (1, 2, 0)), ArticleSet(WORLD, key, (0, 0, 0))]
        )
        rows = comparison_suite([corpus], [MNLCS], BootstrapSpec(100, seed=1))
        assert len(rows) == 1 and not rows[0].defined
        summary = summarize_comparisons(rows)[0]
        assert summary.gaps == 1 and summary.lower_mean is None

    def test_deterministic(self):
        scenarios = scenario_grid([1.0], [1.0], [0.1], [150], base_seed=2)
        spec = BootstrapSpec(120, seed=5, resample_world=False)
        a = comparison_suite(scenarios, [MNLCS, MNCS], spec)
        b = comparison_suite(scenarios, [MNLCS, MNCS], spec)
        assert a == b


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -12345 & (2**64 - 1)]
REPLICATES = [0, 1, 999, 2**32 - 1, 2**32, 2**64 - 1]


class TestSeeding:
    """All replicate generators seeded at once equal default_rng(SeedSequence([seed, r]))."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        words = seed_words(seed, np.array(REPLICATES, dtype=np.uint64))
        for r, row in zip(REPLICATES, words):
            expected = np.random.SeedSequence([seed, r]).generate_state(4, np.uint64)
            assert row.dtype == np.uint64
            assert row.tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_draws_match_default_rng(self, seed):
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        words = seed_words(seed, np.array(REPLICATES, dtype=np.uint64)).tolist()
        for r, row in zip(REPLICATES, words):
            bit_generator.state = pcg64_state(row)
            reference = np.random.default_rng(np.random.SeedSequence([seed, r]))
            for n in (1, 7, 100, 5000):
                assert generator.integers(0, n, n).tolist() == reference.integers(0, n, n).tolist()
            assert bit_generator.state == reference.bit_generator.state

    def test_seed_outside_64_bits_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                seed_words(seed, np.arange(3, dtype=np.uint64))


def sorted_counts(aset):
    return np.sort(np.asarray(aset.counts, dtype=np.int64))


class DrawnCell:
    """The statistics of the articles at positions ``idx`` of sorted ``counts``."""

    def __init__(self, counts, idx):
        raw = counts[idx]
        logs = np.log1p(counts)[idx]
        self.n = len(idx)
        self.cited = int(np.count_nonzero(raw > 0))
        self.raw_mean = float(raw.mean())
        self.log_mean = float(logs.mean())
        self.log_m2 = float(np.sum((logs - self.log_mean) ** 2))
        self.log_sd = math.sqrt(self.log_m2 / (self.n - 1)) if self.n > 1 else None


def per_replicate_loop(group_sets, world_sets, indicator, spec):
    """The reference: one default_rng per replicate, one draw per cell, the scalar kernel.

    Group cells are drawn in sorted key order, then world cells when the
    world is resampled, whatever the indicator reads.
    """
    keys = sorted(a.key for a in group_sets)
    group = {a.key: sorted_counts(a) for a in group_sets}
    world = {a.key: a for a in world_sets}
    fixed_world = [world[k].summary for k in keys]
    values, undefined = [], 0
    for r in range(spec.iterations):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed & (2**64 - 1), r]))
        rep_group = [DrawnCell(group[k], rng.integers(0, len(group[k]), len(group[k]))) for k in keys]
        rep_world = fixed_world
        if spec.resample_world:
            rep_world = []
            for k in keys:
                counts = sorted_counts(world[k])
                rep_world.append(DrawnCell(counts, rng.integers(0, len(counts), len(counts))))
        try:
            values.append(indicator_estimate(indicator, keys, rep_group, rep_world)[0])
        except UndefinedNormalizationError:
            undefined += 1
    return sorted(values), undefined


def vectorised(group_sets, world_sets, indicator, spec):
    keys = sorted(a.key for a in group_sets)
    group = {a.key: a.summary for a in group_sets}
    world = {a.key: a.summary for a in world_sets}
    values = replicate_values(keys, [group[k] for k in keys], [world[k] for k in keys],
                              indicator, spec)
    undefined = np.isnan(values)
    return sorted(values[~undefined].tolist()), int(np.count_nonzero(undefined))


def mixed_scope():
    """Three cells: sparse, zero-inflated and single-article group cells."""
    cells = []
    shapes = [(0.4, 1.2, 0.5, 30, 60), (1.0, 1.0, 0.0, 45, 90), (0.2, 0.8, 0.7, 1, 25)]
    for i, (mu, sigma, zero_inflation, n_group, n_world) in enumerate(shapes):
        key = FieldYearKey(f"F{i}", 2015)
        cells.append(generate_cell(LognormalSpec(mu, sigma, zero_inflation, n_group, 100 + i),
                                   key, "G"))
        cells.append(generate_cell(LognormalSpec(mu, sigma, zero_inflation, n_world, 200 + i),
                                   key, WORLD))
    return [c for c in cells if c.group == "G"], [c for c in cells if c.group == WORLD]


ALL_INDICATORS = [MNLCS, MNCS, LUNDBERG_Z, EMNPC, MNPC, PROP_CITED, EQ_PROP_CITED]


class TestReplicateOracle:
    """Replicate values equal the per-replicate loop's, exactly, with the same undefined count."""

    def check(self, group, world, indicator, spec):
        expected = per_replicate_loop(group, world, indicator, spec)
        assert vectorised(group, world, indicator, spec) == expected
        return expected

    @pytest.mark.parametrize("resample_world", [True, False])
    @pytest.mark.parametrize("indicator", ALL_INDICATORS)
    def test_mixed_scope(self, indicator, resample_world):
        group, world = mixed_scope()
        spec = BootstrapSpec(300, seed=-7, resample_world=resample_world)
        self.check(group, world, indicator, spec)

    @pytest.mark.parametrize("indicator", [MNCS, MNLCS, MNPC])
    def test_large_cell(self, indicator):
        # draws and reductions over tens of thousands of articles
        key = FieldYearKey("F", 2015)
        group = [generate_cell(LognormalSpec(1.0, 1.3, 0.2, 20_000, 1), key, "G")]
        world = [generate_cell(LognormalSpec(1.0, 1.3, 0.2, 9_000, 2), key, WORLD)]
        self.check(group, world, indicator, BootstrapSpec(100, seed=2**40 + 3))

    def test_undefined_mnpc_replicates(self):
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (1, 1, 0, 0))]
        world = [ArticleSet(WORLD, key, (1, 0, 0, 0, 0, 0, 0, 0))]
        _, undefined = self.check(group, world, MNPC, BootstrapSpec(400, seed=2))
        assert undefined > 10

    @pytest.mark.parametrize("resample_world", [True, False])
    @pytest.mark.parametrize("indicator", ALL_INDICATORS)
    def test_single_article_world_cell(self, indicator, resample_world):
        key_a, key_b = FieldYearKey("A", 2015), FieldYearKey("B", 2015)
        group = [ArticleSet("G", key_a, (0, 2, 5, 1)), ArticleSet("G", key_b, (3, 0, 1))]
        world = [ArticleSet(WORLD, key_a, (0, 2, 5, 1, 4, 0)), ArticleSet(WORLD, key_b, (2,))]
        spec = BootstrapSpec(200, seed=5, resample_world=resample_world)
        values, undefined = self.check(group, world, indicator, spec)
        if indicator == LUNDBERG_Z:
            assert (values, undefined) == ([], 200)

    def test_constant_world_cell_lundberg(self):
        # a two-article world cell often resamples to one value: sd zero
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (0, 3, 8, 1, 2))]
        world = [ArticleSet(WORLD, key, (0, 4))]
        _, undefined = self.check(group, world, LUNDBERG_Z, BootstrapSpec(200, seed=9))
        assert 0 < undefined < 200
