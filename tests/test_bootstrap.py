from __future__ import annotations

import ast
import ctypes
import gc
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fieldnorm.bootstrap
import fieldnorm.index_scheme
from fieldnorm import cli
from fieldnorm.bootstrap import (
    BOOTSTRAP_ITERATIONS_DEFAULT,
    COMPARE_CI_RESAMPLE_WORLD_DEFAULT,
    RESAMPLE_WORLD_DEFAULT,
    BootstrapSpec,
    PlannedRow,
    bootstrap_plan,
    bootstrap_indicator,
    bootstrap_intervals,
    compare_ci,
    comparison_suite,
    percentile,
    row_results,
    summarize_comparisons,
)
from fieldnorm.corpus import (
    WORLD, ArticleSet, Corpus, FieldYearKey, Scope, derive_stream_seed, write_corpus,
)
from fieldnorm.index_scheme import pcg64_states, replicate_words, seed_words, state_memory
from fieldnorm.indicators import (
    CELL_STATISTICS,
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
    CellReplicates,
    UndefinedNormalizationError,
    indicator_estimate,
)
from fieldnorm.intervals import IntervalEstimate, NORMAL_T
from fieldnorm.report import format_field
from fieldnorm.scopes import indicator_value
from fieldnorm.synthetic import LognormalSpec, generate_cell, scenario_grid

from conftest import (
    FORKS, GROUP_A, GROUP_B, KEY_A, KEY_B, WORLD_A, WORLD_B, counted_forks, read_csv_rows,
)


def one_cpu(monkeypatch):
    """Draw every bootstrap row in this process, as on a machine of one CPU."""
    monkeypatch.setattr(fieldnorm.bootstrap, "_cpus", lambda: 1)


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

    @pytest.mark.parametrize("q", [-0.01, 1.01])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            percentile([3, 5, 9], q)


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
    def test_alpha_is_the_callers(self):
        group, world = demo_sets()
        spec = BootstrapSpec(200, seed=3)
        wide, narrow = (bootstrap_indicator(group, world, MNLCS, spec, alpha)
                        for alpha in (0.05, 0.2))
        assert (wide.alpha, narrow.alpha) == (0.05, 0.2)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 0\.5\)"):
            bootstrap_indicator(group, world, MNLCS, spec, 0.6)

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
        assert (ci.estimate, ci.n, ci.lower, ci.upper) == (4.0, 4, None, None)

    def test_undefined_original_rejected(self):
        key = FieldYearKey("F", 2015)
        group = [ArticleSet("G", key, (1, 1))]
        world = [ArticleSet(WORLD, key, (0, 0))]
        with pytest.raises(ValueError, match="undefined"):
            bootstrap_indicator(group, world, MNPC, BootstrapSpec(100, seed=0))

    @pytest.mark.parametrize("world, indicator", [(demo_sets()[1], MNLCS), ([], EMNPC)])
    def test_empty_group_rejected(self, world, indicator):
        with pytest.raises(ValueError, match="^no group cells supplied$"):
            bootstrap_indicator([], world, indicator, BootstrapSpec(100))

    def test_note_is_the_compute_row_note(self, tmp_path, capsys):
        # Field A is a 0/0 cell, so the point carries a note of its own.
        group = [ArticleSet("G", KEY_A, (0, 0, 0)), ArticleSet("G", KEY_B, (2, 0, 1, 4))]
        world = [ArticleSet(WORLD, KEY_A, (0,) * 6),
                 ArticleSet(WORLD, KEY_B, (1, 3, 0, 2, 5, 1, 1, 2))]
        write_corpus(Corpus.from_cells(group + world), tmp_path / "cells")
        out = tmp_path / "report.csv"
        assert cli.main(["compute", "--input-dir", str(tmp_path / "cells"), "--output", str(out),
                         "--indicators", "mnpc", "--ci", "bootstrap",
                         "--bootstrap-iters", "100"]) == 0
        (row,) = [r for r in read_csv_rows(out) if (r["group"], r["scope"]) == ("G", "ALL")]
        seed = derive_stream_seed(0, "G", "ALL", MNPC)
        ci = bootstrap_indicator(group, world, MNPC, BootstrapSpec(100, seed=seed))
        assert ci.note == row["notes"]
        assert ci.note == f"0/0 field ratio replaced by 1 for {KEY_A}; resample_world=true"
        assert [format_field(v) for v in (ci.estimate, ci.lower, ci.upper)] == [
            format_field(row[name]) for name in ("estimate", "ci_lower", "ci_upper")
        ]

    def test_note_records_world_mode(self):
        group, world = demo_sets()
        on = bootstrap_indicator(group, world, MNLCS, BootstrapSpec(100, seed=1))
        off = bootstrap_indicator(
            group, world, MNLCS, BootstrapSpec(100, seed=1, resample_world=False)
        )
        assert "resample_world=true" in on.note
        assert "resample_world=false" in off.note

    def test_proportion_row_notes_a_fixed_world(self):
        # PROP_CITED reads no world statistic, so its row never resamples the
        # world, whatever the spec asked for.
        group, world = demo_sets()
        ci = bootstrap_indicator(group, world, PROP_CITED, BootstrapSpec(100))
        assert ci.note == "resample_world=false"

    @pytest.mark.parametrize("indicator", [MNLCS, MNCS])
    def test_no_snapshot_survives(self, indicator):
        rng = np.random.default_rng(5)
        n = 5 * 10**4
        group = [ArticleSet("G", KEY_A, rng.integers(0, 50, n))]
        world = [ArticleSet(WORLD, KEY_A, rng.integers(0, 60, 2 * n))]
        spec = BootstrapSpec(iterations=100, seed=1)
        bootstrap_indicator(*demo_sets(), indicator, spec)  # lazy set-up outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bootstrap_indicator(group, world, indicator, spec)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        for cell in group + world:
            arrays = [v for v in vars(cell).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 1 and arrays[0] is cell.counts
        # Measured: under 2 KB, the cells' five numbers; one snapshot of the
        # group cell would hold 400 KB.
        assert held <= 16 * 2**10


class TestBootstrapPlan:
    """Each command's auto rule and the iteration defaults, unless a flag is set."""

    @pytest.mark.parametrize("rule, mnlcs, emnpc", [
        (RESAMPLE_WORLD_DEFAULT, True, True),
        (COMPARE_CI_RESAMPLE_WORLD_DEFAULT, False, True),
    ])
    def test_defaults(self, rule, mnlcs, emnpc):
        for indicator, resample in ((MNLCS, mnlcs), (EMNPC, emnpc)):
            spec = bootstrap_plan(indicator, rule, None, None, 3)
            assert spec == BootstrapSpec(BOOTSTRAP_ITERATIONS_DEFAULT[indicator], 3, resample)

    def test_flags_override_defaults(self):
        spec = bootstrap_plan(MNCS, RESAMPLE_WORLD_DEFAULT, 150, True, 3)
        assert spec == BootstrapSpec(150, 3, True)

    @pytest.mark.parametrize("args, message", [
        ((150.5,), "bootstrap iterations must be an integer, got 150.5"),
        ((200.0,), "bootstrap iterations must be an integer, got 200.0"),
        ((True,), "bootstrap iterations must be an integer, got True"),
        ((99,), "at least 100 bootstrap iterations are required"),
        ((200, 3.0), "bootstrap seed must be an integer, got 3.0"),
        ((200, False), "bootstrap seed must be an integer, got False"),
        ((200, 0, "false"), "resample_world must be a bool, got 'false'"),
        ((200, 0, 0), "resample_world must be a bool, got 0"),
        ((200, 0, None), "resample_world must be a bool, got None"),
    ])
    def test_spec_of_wrong_type_rejected(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BootstrapSpec(*args)

    def test_numpy_integers_accepted(self):
        group, world = demo_sets()
        spec = BootstrapSpec(np.int64(200), np.int64(-7))
        assert spec == BootstrapSpec(200, -7)
        assert bootstrap_indicator(group, world, MNLCS, spec) == \
            bootstrap_indicator(group, world, MNLCS, BootstrapSpec(200, -7))

    def test_both_rules_cover_every_indicator(self):
        every = set(BOOTSTRAP_ITERATIONS_DEFAULT)
        assert set(RESAMPLE_WORLD_DEFAULT) == set(COMPARE_CI_RESAMPLE_WORLD_DEFAULT) == every
        assert len(every) == 7


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
        assert out.basis == pytest.approx(0.4)

    def test_wider_formula_lower_half(self):
        boot = self.interval(0.8, 1.2)  # width 0.4
        formula = self.interval(0.7, 1.2)
        out = compare_ci(formula, boot, 1.0)
        assert out.lower_pct_diff == pytest.approx(-0.25)

    def test_zero_width_bootstrap_rejected(self):
        boot = self.interval(1.0, 1.0)
        with pytest.raises(ValueError, match="zero-width"):
            compare_ci(self.interval(0.9, 1.1), boot, 1.0)

    def test_undefined_rejected(self):
        undefined = IntervalEstimate(1.0, None, None, 0.05, NORMAL_T, defined=False)
        with pytest.raises(ValueError, match="defined"):
            compare_ci(undefined, self.interval(0.9, 1.1), 1.0)

    @pytest.mark.parametrize(
        "formula, boot", [((0.9, 1.1), (1.05, 1.3)), ((1.02, 1.1), (0.8, 1.2))]
    )
    def test_point_outside_an_interval_rejected(self, formula, boot):
        with pytest.raises(ValueError, match="point estimate must lie inside both intervals"):
            compare_ci(self.interval(*formula), self.interval(*boot), 1.0)


SPEC = BootstrapSpec(100)


class TestComparisonSuite:
    def test_single_scenario_single_row(self):
        scenarios = scenario_grid([1.0], [1.0], [0.0], [200], base_seed=7)
        spec = BootstrapSpec(150, seed=1, resample_world=False)
        rows = comparison_suite(scenarios, [MNLCS], spec)
        assert len(rows) == 1
        assert rows[0].defined
        summary = summarize_comparisons(rows)[0]
        assert summary.cells == 1 and summary.gaps == 0

    def test_numpy_integer_seed_gives_the_rows_of_its_int(self):
        scenarios = scenario_grid([1.0], [1.0], [0.0], [200], base_seed=7)
        rows = comparison_suite(scenarios, [MNLCS], BootstrapSpec(100, seed=np.int64(-3)))
        assert rows == comparison_suite(scenarios, [MNLCS], BootstrapSpec(100, seed=-3))
        assert derive_stream_seed(np.int64(-3), "G1") == derive_stream_seed(2**64 - 3, "G1")

    def test_gap_rows_for_undefined(self):
        key = FieldYearKey("Z", 2015)
        corpus = Corpus.from_cells(
            [ArticleSet("G1", key, (1, 2, 0)), ArticleSet(WORLD, key, (0, 0, 0))]
        )
        rows = comparison_suite([corpus], [MNLCS], BootstrapSpec(100, seed=1))
        assert len(rows) == 1 and not rows[0].defined
        summary = summarize_comparisons(rows)[0]
        assert summary.gaps == 1 and summary.lower_mean is None

    def test_gap_note_says_why_the_formula_is_undefined(self):
        # MNPC is defined, with field A's 0/0 ratio replaced by 1, but its
        # formula interval is not: field A has no cited world article.
        dead, live = FieldYearKey("A", 2015), FieldYearKey("B", 2015)
        corpus = Corpus.from_cells([
            ArticleSet("G1", dead, (0, 0, 0)), ArticleSet(WORLD, dead, (0, 0, 0, 0)),
            ArticleSet("G1", live, (1, 2, 0, 3)), ArticleSet(WORLD, live, (1, 0, 2, 5, 0)),
        ])
        (row,) = comparison_suite([corpus], [MNPC], BootstrapSpec(100, seed=1))
        assert not row.defined
        assert row.note.startswith("0/0 field ratio replaced by 1 for A/2015; ")
        assert row.note.endswith("zero world cited count for A/2015")

    def test_undefined_point_gap_note_is_the_point_note(self):
        key = FieldYearKey("Z", 2015)
        corpus = Corpus.from_cells(
            [ArticleSet("G1", key, (1, 2, 0)), ArticleSet(WORLD, key, (0, 0, 0))]
        )
        (row,) = comparison_suite([corpus], [MNLCS], BootstrapSpec(100, seed=1))
        assert row.note == indicator_value(corpus, "G1", {key}, MNLCS).note

    def test_each_scope_is_resolved_once(self, monkeypatch, tmp_path):
        scenarios = scenario_grid([0.8, 1.4], [1.0], [0.0], [60], group_shifts=[0.0, 0.3],
                                  base_seed=3)
        expected = {
            (id(corpus), group, frozenset(corpus.keys_for(group)))
            for corpus in scenarios for group in corpus.groups
        }
        assert len(expected) == 4  # 2 scenarios x 2 groups

        resolved, batches = [], []
        resolve = Corpus.scope
        draw = fieldnorm.bootstrap.bootstrap_intervals

        def counted(self, group, keys):
            resolved.append((id(self), group, frozenset(keys)))
            return resolve(self, group, keys)

        def counted_draw(jobs, alpha):
            batches.append(len(jobs))
            return draw(jobs, alpha)

        monkeypatch.setattr(Corpus, "scope", counted)
        monkeypatch.setattr(fieldnorm.bootstrap, "bootstrap_intervals", counted_draw)
        rows = comparison_suite(scenarios, [MNLCS, EMNPC, MNPC], BootstrapSpec(100, seed=1))
        assert len(rows) == 4 * 3
        assert len(resolved) == len(set(resolved))
        assert set(resolved) == expected
        assert len(batches) == 1

        # The command plans one spec per indicator and makes one suite call.
        resolved.clear()
        batches.clear()
        grid = ["--mu", "0.8", "1.4", "--sigma", "1.0", "--zero-inflation", "0", "--n", "60",
                "--group-shift", "0", "0.3", "--seed", "3"]
        assert cli.main(["compare-ci", "--output", str(tmp_path / "summary.csv"),
                         "--indicators", "mnlcs,emnpc,mnpc", "--iterations", "100", *grid]) == 0
        assert len(resolved) == len(set(resolved)) == 4
        assert len(batches) == 1

    def test_per_indicator_specs_equal_one_call_per_indicator(self):
        scenarios = scenario_grid([0.8, 1.4], [1.0], [0.1], [80], group_shifts=[0.0, 0.3],
                                  base_seed=5)
        specs = {
            MNLCS: BootstrapSpec(100, seed=1, resample_world=False),
            EMNPC: BootstrapSpec(150, seed=1, resample_world=True),
            MNPC: BootstrapSpec(120, seed=9, resample_world=False),
        }
        expected = [
            row for indicator, spec in specs.items()
            for row in comparison_suite(scenarios, [indicator], spec)
        ]
        assert sum(row.defined for row in expected) >= 10
        rows = comparison_suite(scenarios, list(specs), specs)
        # One call orders rows by scenario and group first; a stable sort by
        # indicator gives the concatenation's order.
        order = list(specs).index
        assert sorted(rows, key=lambda row: order(row.indicator)) == expected

    def test_alpha_outside_range_rejected(self):
        scenarios = scenario_grid([1.0], [1.0], [0.0], [60], base_seed=5)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 0\.5\)"):
            comparison_suite(scenarios, [MNLCS], BootstrapSpec(100), 0.6)

    @pytest.mark.parametrize("indicators, specs, continuity, message", [
        ([MNLCS], SPEC, "bogus", "unknown continuity mode 'bogus'"),
        ([], SPEC, "auto", "at least one indicator is required"),
        ([MNLCS, "MNLSC"], SPEC, "auto", r"unknown indicators \['MNLSC'\]"),
        ([MNLCS, MNLCS], SPEC, "auto", r"duplicate indicators in \['MNLCS', 'MNLCS'\]"),
        ([MNLCS, MNCS], {MNLCS: SPEC}, "auto", r"missing \['MNCS'\], extra \[\]"),
        ([MNLCS], {MNLCS: SPEC, EMNPC: SPEC}, "auto", r"missing \[\], extra \['EMNPC'\]"),
        ([MNCS, MNPC], {MNLCS: SPEC, MNPC: SPEC}, "auto", r"missing \['MNCS'\], extra \['MNLCS'\]"),
    ], ids=["continuity", "no-indicator", "unknown-indicator", "duplicate-indicator",
            "missing-spec", "extra-spec", "missing-and-extra-spec"])
    def test_bad_run_rejected_before_any_row(
        self, monkeypatch, indicators, specs, continuity, message
    ):
        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(fieldnorm.bootstrap, "indicator_result", no_rows)
        if isinstance(specs, dict):
            # The specs are checked before any scope is resolved.
            monkeypatch.setattr(Corpus, "scope", no_rows)
            message = "specs must cover exactly the indicators run: " + message
        scenarios = scenario_grid([1.0], [1.0], [0.0], [100], group_shifts=[0.2])
        with pytest.raises(ValueError, match=f"^{message}$"):
            comparison_suite(scenarios, indicators, specs, 0.05, continuity)

    def test_scenarios_without_groups_rejected(self):
        world_only = Corpus.from_cells([ArticleSet(WORLD, FieldYearKey("Z", 2015), (1, 2))])
        for scenarios in ([], [world_only]):
            with pytest.raises(ValueError, match="no scenario has a group"):
                comparison_suite(scenarios, [MNLCS], BootstrapSpec(100, seed=1))

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
        words = seed_words(seed, np.array(REPLICATES, dtype=np.uint64))
        for r, state in zip(REPLICATES, pcg64_states(words)):
            bit_generator = np.random.PCG64(0)
            generator = np.random.Generator(bit_generator)
            memory, order = state_memory(bit_generator)
            memory[:] = state[order]
            reference = np.random.default_rng(np.random.SeedSequence([seed, r]))
            for n in (1, 7, 100, 5000):
                assert generator.integers(0, n, n).tolist() == reference.integers(0, n, n).tolist()
            assert bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pcg64_states_match_reference(self, seed):
        words = seed_words(seed, np.array(REPLICATES, dtype=np.uint64))
        states = pcg64_states(words)
        assert states.dtype == np.uint64 and states.shape == (len(REPLICATES), 4)
        for row, expected in zip(states.tolist(), words.tolist()):
            s_high, s_low, i_high, i_low = row
            assert {"state": s_high << 64 | s_low, "inc": i_high << 64 | i_low} == \
                pcg64_state(expected)["state"]

    def test_seed_outside_64_bits_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                seed_words(seed, np.arange(3, dtype=np.uint64))


def test_seed_words_one_seed_per_lane():
    # Seeds below and above 2**32 side by side: each lane keeps its own
    # entropy length.
    pairs = [(seed, r) for seed in SEEDS for r in REPLICATES]
    seeds, replicates = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
    words = seed_words(seeds, replicates)
    for (seed, r), row in zip(pairs, words.tolist()):
        assert row == np.random.SeedSequence([seed, r]).generate_state(4, np.uint64).tolist()


DEFAULT_SEED_LANES = fieldnorm.index_scheme._SEED_LANES
DEFAULT_BLOCK_WORDS = fieldnorm.index_scheme._BLOCK_WORDS
# 1 word makes every replicate wider than the budget; 2**11 splits every
# row of ``TestBootstrapIntervals.jobs`` into several blocks.
BLOCK_WORDS = [1, 2**11, DEFAULT_BLOCK_WORDS]


def recorded_blocks(monkeypatch) -> list[tuple[int, int, int]]:
    """Each recorded block's replicates, words per replicate and largest drawn cell, in order."""
    blocks = []
    record = fieldnorm.index_scheme._record_block

    def recorded(drawn, rows, words, *rest):
        blocks.append((rows.size, words.shape[1], max(cell.n for cell, *_ in drawn)))
        return record(drawn, rows, words, *rest)

    monkeypatch.setattr(fieldnorm.index_scheme, "_record_block", recorded)
    return blocks


def no_draws(rows):
    """A scheme that fails on the first row it is handed."""
    for row in rows:
        raise AssertionError(f"a row reached the scheme: {row}")
    return iter(())


class TestBootstrapIntervals:
    """A batch equals separate bootstrap_indicator calls, whatever rows share a seeding chunk."""

    @staticmethod
    def jobs():
        group, world = mixed_scope()
        demo_group, demo_world = demo_sets()
        return [
            (group, world, MNLCS, BootstrapSpec(100, seed=3)),
            (demo_group, demo_world, MNPC, BootstrapSpec(150, seed=2**40 + 1)),
            (group, world, PROP_CITED, BootstrapSpec(100, seed=-7, resample_world=False)),
            (group, world, LUNDBERG_Z, BootstrapSpec(DEFAULT_SEED_LANES + 1, seed=5)),
            (demo_group, demo_world, MNCS, BootstrapSpec(150, seed=2**32, resample_world=False)),
            (group, world, EMNPC, BootstrapSpec(100, seed=2**64 - 1)),
        ]

    @staticmethod
    def rows(jobs):
        """The engine's rows: each job's cells resolved by Corpus.scope."""
        return [PlannedRow("G", "", Corpus.from_cells([*group, *world]).scope(
                    "G", {a.key for a in group}), indicator, "bootstrap", spec)
                for group, world, indicator, spec in jobs]

    # The cases at the default block size keep ids that name the lanes alone.
    @pytest.mark.parametrize("lanes, block_words", [
        pytest.param(lanes, words, id=f"{lanes}" if words == DEFAULT_BLOCK_WORDS
                     else f"{lanes}-block_words{words}")
        for lanes in [1, 100, 101, DEFAULT_SEED_LANES] for words in BLOCK_WORDS
    ])
    def test_equals_separate_calls(self, monkeypatch, lanes, block_words):
        # The rows differ in shape, so they share the run's block buffer at
        # several sizes, or each draws in a buffer of its own at 1 word.
        jobs = self.jobs()
        expected = [bootstrap_indicator(*job) for job in jobs]
        rows = self.rows(jobs)
        monkeypatch.setattr(fieldnorm.index_scheme, "_SEED_LANES", lanes)
        monkeypatch.setattr(fieldnorm.index_scheme, "_BLOCK_WORDS", block_words)
        intervals = bootstrap_intervals(rows, 0.05)
        assert len(intervals) == len(expected)
        for interval, alone in zip(intervals, expected):
            for name in ("lower", "upper", "defined", "method", "alpha", "note"):
                assert getattr(interval, name) == getattr(alone, name)

    def test_no_jobs(self):
        assert bootstrap_intervals([], 0.05) == []

    @FORKS
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_any_number_of_bins_equals_separate_calls(self, monkeypatch, cpus):
        # The six rows split into one bin per CPU, the first drawn here and
        # each other in a child of its own.
        jobs = self.jobs()
        expected = [bootstrap_indicator(*job) for job in jobs]
        monkeypatch.setattr(fieldnorm.bootstrap, "_cpus", lambda: cpus)
        forks = counted_forks(monkeypatch)
        intervals = bootstrap_intervals(self.rows(jobs), 0.05)
        assert len(forks) == cpus - 1
        assert intervals == [replace(alone, estimate=None, n=None) for alone in expected]

    @FORKS
    def test_a_row_that_draws_nothing_is_never_forked(self, monkeypatch):
        # One drawing row, among rows that draw nothing, draws here.
        group, world = demo_sets()
        one_article, _ = one_article_group()
        jobs = [(cells, world, PROP_CITED, BootstrapSpec(100, seed, resample_world=False))
                for seed, cells in enumerate([one_article, group, one_article])]
        monkeypatch.setattr(fieldnorm.bootstrap, "_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)
        intervals = bootstrap_intervals(self.rows(jobs), 0.05)
        assert forks == []
        assert intervals == [replace(bootstrap_indicator(*job), estimate=None, n=None)
                             for job in jobs]

    @FORKS
    def test_a_plan_that_draws_nothing_forks_nothing(self, monkeypatch):
        # One-article group cells over a fixed world: one bin, drawn here.
        one_article, world = one_article_group()
        jobs = [(one_article, world, indicator, BootstrapSpec(100, seed, resample_world=False))
                for seed, indicator in enumerate([PROP_CITED, MNCS, MNLCS])]
        rows = self.rows(jobs)
        assert [row.cost for row in rows] == [0, 0, 0]
        monkeypatch.setattr(fieldnorm.bootstrap, "_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)
        intervals = bootstrap_intervals(rows, 0.05)
        assert forks == []
        assert intervals == [replace(bootstrap_indicator(*job), estimate=None, n=None)
                             for job in jobs]

    def test_cost_is_the_articles_a_row_draws(self):
        # Iterations times the articles of each drawn cell: a fixed world and
        # one-article cells add nothing.
        group, world = demo_sets()
        one_article, _ = one_article_group()

        def cost(cells, indicator, resample_world):
            spec = BootstrapSpec(150, seed=1, resample_world=resample_world)
            (row,) = self.rows([(cells, world, indicator, spec)])
            return row.cost

        assert cost(group, MNLCS, True) == 150 * (5 + 5 + 10 + 10)
        assert cost(group, MNLCS, False) == cost(group, PROP_CITED, True) == 150 * (5 + 5)
        assert cost(one_article, MNLCS, True) == 150 * (10 + 10)
        assert cost(one_article, MNCS, False) == 0
        assert all(row.cost == row.spec.iterations * sum(cell.n for _, cell, _ in row.draws)
                   for row in self.rows(self.jobs()))

    def test_a_proportion_row_holds_a_fixed_world(self):
        # The row stores resample_world=False, so its draws, cost and note
        # read one spec.
        group, world = demo_sets()
        on, off = self.rows([(group, world, EQ_PROP_CITED, BootstrapSpec(150, 1, resample))
                             for resample in (True, False)])
        assert on.spec.resample_world is False
        assert on.spec == off.spec
        assert on.draws == off.draws
        assert on.cost == off.cost == 150 * (5 + 5)

    def test_bins_take_the_largest_cost_first(self):
        bins = fieldnorm.bootstrap._bins({0: 5, 2: 9, 3: 4, 5: 4, 7: 1}, 2)
        assert bins == [[2, 5], [0, 3, 7]]
        assert fieldnorm.bootstrap._bins({4: 1}, 3) == [[4], [], []]

    def test_cells_listed_once_per_row(self, monkeypatch):
        # The draw plan and the read-back share one list of each row's cells.
        listed = []
        draws = PlannedRow.draws.func

        def counted(row):
            listed.append(row)
            return draws(row)

        spy = cached_property(counted)
        spy.__set_name__(PlannedRow, "draws")
        monkeypatch.setattr(PlannedRow, "draws", spy)
        rows = self.rows(self.jobs())
        bootstrap_intervals(rows, 0.05)
        assert len(listed) == len(rows)
        assert all(seen is row for seen, row in zip(listed, rows))

    @pytest.mark.parametrize("block_words, buffers", [(1, 0), (DEFAULT_BLOCK_WORDS, 1)])
    def test_rows_share_one_block_buffer(self, monkeypatch, block_words, buffers):
        # Rows of one shape draw in one buffer that the run keeps, of at
        # most the budget; a replicate wider than the budget draws in one
        # the run does not keep.  No cell's window exceeds 1/16 of the
        # budget unless one replicate alone does.
        kept = []

        class Recorded(fieldnorm.index_scheme._WorkArrays):
            def __call__(self, name, size, dtype):
                array = super().__call__(name, size, dtype)
                kept.append(array.base)
                return array

        monkeypatch.setattr(fieldnorm.index_scheme, "_WorkArrays", Recorded)
        monkeypatch.setattr(fieldnorm.index_scheme, "_BLOCK_WORDS", block_words)
        one_cpu(monkeypatch)  # a forked child's buffers are out of the spy's sight
        blocks = recorded_blocks(monkeypatch)
        rows = self.rows(self.jobs()[:1]) * 3
        intervals = bootstrap_intervals(rows, 0.05)
        assert intervals[0] == intervals[1] == intervals[2]
        assert len({id(array) for array in kept}) == buffers
        assert len(kept) == 3 * buffers
        assert all(array.nbytes // 4 <= block_words for array in kept)
        assert all(rows == 1 or rows * largest <= block_words // 16
                   for rows, _, largest in blocks)

    @pytest.mark.parametrize("settings, message", [
        ((0.05, "auto", "bogus"), "unknown expansion mode 'bogus'"),
        ((0.05, "bogus", "literal"), "unknown continuity mode 'bogus'"),
        ((0.6, "auto", "literal"), r"alpha must lie in \(0, 0\.5\)"),
    ], ids=["expansion-mode", "continuity", "alpha"])
    def test_run_settings_checked_before_any_row(self, monkeypatch, settings, message):
        # A formula MNLCS row reads neither the continuity rule nor the expansion mode.
        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(fieldnorm.bootstrap, "indicator_result", no_rows)
        group, world = demo_sets()
        scope = Corpus.from_cells(group + world).scope("G", {KEY_A, KEY_B})
        with pytest.raises(ValueError, match=f"^{message}$"):
            row_results([PlannedRow("G", "Y2013", scope, MNLCS, "formula")], *settings)

    @pytest.mark.parametrize("row, message", [
        ((MNLCS, "fieler", None), "route 'fieler' does not serve MNLCS"),
        ((MNCS, "fieller", None), "route 'fieller' does not serve MNCS"),
        ((MNLCS, "bootstrap", None), "a bootstrap row for MNLCS with spec None: "),
        ((MNLCS, "formula", BootstrapSpec(100)),
         r"a formula row for MNLCS with spec BootstrapSpec\(iterations=100, "),
    ], ids=["unknown-route", "fieller-mncs", "bootstrap-without-spec", "formula-with-spec"])
    def test_row_no_route_serves_rejected_before_any_row(self, monkeypatch, row, message):
        # A planned row is refused when it is built, so no plan holds it.
        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(fieldnorm.bootstrap, "indicator_result", no_rows)
        group, world = demo_sets()
        scope = Corpus.from_cells(group + world).scope("G", {KEY_A, KEY_B})
        with pytest.raises(ValueError, match=f"^{message}"):
            row_results([PlannedRow("G", "Y2013", scope, MNLCS, "formula"),
                         PlannedRow("G", "Y2013", scope, *row)], 0.05)

    @pytest.mark.parametrize(
        "bad", ["duplicate", "missing", "proportion", "undefined", "mixed", "world-label"]
    )
    def test_rejected_job_raises_before_any_draw(self, monkeypatch, bad):
        group, world = demo_sets()
        elsewhere = [ArticleSet("G9", KEY_A, WORLD_A), ArticleSet("G9", KEY_B, WORLD_B)]
        job, message = {
            "duplicate": ((group + group[:1], world, MNLCS, BootstrapSpec(100)),
                          "duplicate cell keys"),
            "missing": ((group, world[:1], MNLCS, BootstrapSpec(100)),
                        "missing world cells for G/B/2013"),
            "proportion": ((group[:1], world, PROP_CITED, BootstrapSpec(100)),
                           "group and world must cover the same cell keys"),
            "undefined": (([ArticleSet("G", KEY_A, (1, 1))], [ArticleSet(WORLD, KEY_A, (0, 0))],
                           MNPC, BootstrapSpec(100)),
                          "MNPC is undefined on the original data"),
            "mixed": (([ArticleSet("G1", KEY_A, GROUP_A), ArticleSet("G2", KEY_B, GROUP_B)],
                       elsewhere, MNLCS, BootstrapSpec(100)),
                      "mixed groups ['G1', 'G2']"),
            "world-label": ((group, elsewhere[:1] + world[1:], MNLCS, BootstrapSpec(100)),
                            "world cells must be labelled WORLD, got ['G9']"),
        }[bad]

        monkeypatch.setattr(fieldnorm.bootstrap, "draw", no_draws)
        with pytest.raises(ValueError) as rejected:
            bootstrap_indicator(*job)
        assert str(rejected.value) == message


# A command whose bootstrap rows are split over two processes: the forked
# one writes its pid to the file named by argv[1], and both sleep in draw.
SLEEPING_COMMAND = """
import os, sys, time
import fieldnorm.bootstrap
from fieldnorm.corpus import WORLD, ArticleSet, Corpus, FieldYearKey
from fieldnorm.report import ReportConfig, build_report

parent, draw = os.getpid(), fieldnorm.bootstrap.draw

def sleeping(rows):
    if os.getpid() != parent:
        with open(sys.argv[1] + ".part", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename(sys.argv[1] + ".part", sys.argv[1])
    time.sleep(60)
    return draw(rows)

fieldnorm.bootstrap._cpus = lambda: 2
fieldnorm.bootstrap.draw = sleeping
cells = [ArticleSet(group, FieldYearKey("A", year), (0, 1, 2, 5, 9))
         for group in ("G", WORLD) for year in (2013, 2014)]
build_report(Corpus.from_cells(cells), ReportConfig(ci_methods=("bootstrap",)))
"""


def process_state(pid):
    """The state letter of process ``pid`` (``Z`` for a zombie), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@FORKS
class TestWorkers:
    """A child's error reaches the caller, and no child outlives a call."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(fieldnorm.bootstrap, "_cpus", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def draw_failing_in_children(monkeypatch, fail):
        """``draw`` calls ``fail()`` first in a forked child, and draws as before here."""
        parent, draw = os.getpid(), fieldnorm.bootstrap.draw

        def failing(rows):
            if os.getpid() != parent:
                fail()
            return draw(rows)

        monkeypatch.setattr(fieldnorm.bootstrap, "draw", failing)

    @staticmethod
    def run():
        return bootstrap_intervals(TestBootstrapIntervals.rows(TestBootstrapIntervals.jobs()),
                                   0.05)

    def test_error_in_a_child_is_raised_here(self, monkeypatch):
        def fail():
            raise ValueError("no draw in a child")

        self.draw_failing_in_children(monkeypatch, fail)
        with pytest.raises(ValueError, match="^no draw in a child$"):
            self.run()

    def test_error_that_cannot_be_pickled_is_raised_with_its_traceback(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def fail():
            raise Local("no draw in a child")

        self.draw_failing_in_children(monkeypatch, fail)
        with pytest.raises(RuntimeError) as raised:
            self.run()
        message = str(raised.value)
        assert message.startswith("bootstrap worker failed:\nTraceback (most recent call last):")
        assert ", in fail\n" in message and message.endswith(".Local: no draw in a child")

    def test_child_that_dies_is_named_by_its_wait_status(self, monkeypatch):
        self.draw_failing_in_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=r" exited without a result \(wait status 9, "
                                               r"exit code -9\)$"):
            self.run()

    def test_interrupt_here_kills_the_children(self, monkeypatch):
        # The child would sleep a minute; the interrupt ends it at once.
        parent, draw = os.getpid(), fieldnorm.bootstrap.draw

        def interrupted(rows):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return draw(rows)

        monkeypatch.setattr(fieldnorm.bootstrap, "draw", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.run()
        assert time.monotonic() - start < 30

    def test_children_die_with_a_command_killed_by_a_signal(self, tmp_path):
        # SIGTERM ends the command without running any of its code, so the
        # child that sleeps a minute must be ended by the kernel.  A child
        # re-parented to a pid 1 that does not reap stays a zombie.
        pid_file = tmp_path / "child.pid"
        package_root = str(Path(fieldnorm.bootstrap.__file__).resolve().parents[1])
        command = subprocess.Popen([sys.executable, "-c", SLEEPING_COMMAND, str(pid_file)],
                                   env={**os.environ, "PYTHONPATH": package_root})
        child, state = None, None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert command.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            child = int(pid_file.read_text())
            command.send_signal(signal.SIGTERM)
            assert command.wait(timeout=30) == -signal.SIGTERM
            deadline = time.monotonic() + 5
            while (state := process_state(child)) not in (None, "Z") \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            command.kill()
            command.wait(timeout=30)
            if child is not None and process_state(child) not in (None, "Z"):
                os.kill(child, signal.SIGKILL)
        assert state in (None, "Z"), f"child {child} outlived its command (state {state})"


def pcg64_state(words):
    """The ``bit_generator.state`` of a PCG64 seeded with four seed words, in Python ints.

    numpy's pcg_setseq_128_srandom_r: ``inc = 2 * seq + 1`` and
    ``state = (inc + seed) * mult + inc``, both mod 2**128.
    """
    s_high, s_low, i_high, i_low = words
    mask = (1 << 128) - 1
    inc = (i_high << 65 | i_low << 1 | 1) & mask
    state = ((inc + (s_high << 64 | s_low)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & mask
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def state_words(state):
    """A ``bit_generator.state`` dict's state and increment as ``pcg64_states`` orders them."""
    words = state["state"]
    return np.array([words["state"] >> 64, words["state"] & (2**64 - 1),
                     words["inc"] >> 64, words["inc"] & (2**64 - 1)], dtype=np.uint64)


class TestStateMemory:
    """A state written through the generator's memory is the state numpy reads."""

    def test_written_state_reads_back(self):
        bit_generator = np.random.PCG64(0)
        memory, order = state_memory(bit_generator)
        for s in (1, 2**40 + 7, 2**127 + 3):
            # a generator that has drawn, raw and bounded, holds other words
            bit_generator.random_raw(3)
            np.random.Generator(bit_generator).integers(0, 10, 5)
            expected = np.random.PCG64(s).state
            memory[:] = state_words(expected)[order]
            assert bit_generator.state["state"] == expected["state"]
            assert bit_generator.random_raw(4).tolist() == \
                np.random.PCG64(s).random_raw(4).tolist()

    def test_view_that_misses_the_state_rejected(self, monkeypatch):
        # words that are not where the state setter put them
        monkeypatch.setattr(fieldnorm.index_scheme, "_state_memory",
                            lambda bit_generator: (ctypes.c_uint64 * 4)())
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            state_memory(np.random.PCG64(0))

    def test_view_detached_from_the_generator_rejected(self, monkeypatch):
        # a copy that shows the probe state but whose writes never reach the
        # generator: the order is found, and the check that follows fails
        scheme = fieldnorm.index_scheme
        real_memory, real_set = scheme._state_memory, scheme._set_state
        detached = (ctypes.c_uint64 * 4)()

        def set_state(bit_generator, words):
            real_set(bit_generator, words)
            detached[:] = real_memory(bit_generator)

        monkeypatch.setattr(fieldnorm.index_scheme, "_state_memory", lambda bit_generator: detached)
        monkeypatch.setattr(fieldnorm.index_scheme, "_set_state", set_state)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            state_memory(np.random.PCG64(0))


class TestReplicateWords:
    """The 32-bit words are the ones numpy's ``next_uint32`` hands out."""

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 2**15 - 1, 2**15, 2**15 + 3])
    def test_matches_next_uint32(self, count):
        seeds = [0, 2**40 + 7]
        bit_generator = np.random.PCG64(0)
        memory, order = state_memory(bit_generator)
        states = np.array([state_words(np.random.PCG64(s).state) for s in seeds])[:, order].tolist()
        raw = np.empty((len(seeds), (count + 1) // 2), "<u8")
        replicate_words(bit_generator, memory, states, raw)
        words = raw.view("<u4")[:, :count]
        for row, s in zip(words, seeds):
            generator = np.random.Generator(np.random.PCG64(s))
            assert row.tolist() == generator.integers(0, 2**32, count, dtype=np.uint32).tolist()


def lemire_rejections(seed, r, sizes):
    """Words numpy's bounded draw rejects in each ``integers(0, n, n)`` of replicate r.

    Replays replicate r's 32-bit words, the low half of each raw word
    first, through Lemire's step: u draws (u * n) >> 32 unless
    (u * n) mod 2**32 < 2**32 mod n, when it is rejected.
    """
    bit_generator = np.random.default_rng(np.random.SeedSequence([seed, r])).bit_generator
    raw = bit_generator.random_raw(sum(sizes) // 2 + 256)
    words = np.empty(2 * raw.size, np.uint64)
    words[0::2] = raw & np.uint64(2**32 - 1)
    words[1::2] = raw >> np.uint64(32)
    rejected, pos = [], 0
    for n in sizes:
        if n == 1:  # integers(0, 1, 1) draws no word
            rejected.append(0)
            continue
        accepted = (words[pos:] * np.uint64(n)) % np.uint64(2**32) >= 2**32 % n
        used = int(np.searchsorted(np.cumsum(accepted), n)) + 1
        rejected.append(used - n)
        pos += used
    return rejected


def test_reference_lemire_matches_integers():
    # a cell whose draws are often rejected, so the replay is checked on them
    n, seed, rejections = 102_537, 4, 0
    for r in range(3):
        bit_generator = np.random.default_rng(np.random.SeedSequence([seed, r])).bit_generator
        raw = bit_generator.random_raw(n // 2 + 256)
        words = np.empty(2 * raw.size, np.uint64)
        words[0::2] = raw & np.uint64(2**32 - 1)
        words[1::2] = raw >> np.uint64(32)
        kept = np.flatnonzero((words * np.uint64(n)) % np.uint64(2**32) >= 2**32 % n)[:n]
        reference = np.random.default_rng(np.random.SeedSequence([seed, r]))
        assert ((words[kept] * np.uint64(n)) >> np.uint64(32)).tolist() == \
            reference.integers(0, n, n).tolist()
        assert lemire_rejections(seed, r, [n]) == [kept[-1] + 1 - n]
        rejections += kept[-1] + 1 - n
    assert rejections > 0


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
    fixed_world = [world[k] for k in keys]
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
    group = {a.key: a for a in group_sets}
    world = {a.key: a for a in world_sets}
    scope = Scope(tuple(keys), tuple(group[k] for k in keys), tuple(world[k] for k in keys))
    try:
        row = PlannedRow("G", "", scope, indicator, "bootstrap", spec)
        (values,) = fieldnorm.bootstrap._replicate_rows([row])
    except UndefinedNormalizationError:
        # A row that draws nothing is its point in every replicate, and
        # ``row_results`` draws no row whose point is undefined.
        return [], spec.iterations
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

    @staticmethod
    def middle_cell_scope():
        """Three keys; the 3,050-article group cell is the second of six draws."""
        group, world = [], []
        for i, (n_group, n_world) in enumerate([(40, 80), (3050, 4000), (30, 60)]):
            key = FieldYearKey(f"F{i}", 2015)
            group.append(generate_cell(LognormalSpec(1.0, 1.1, 0.2, n_group, 10 + i), key, "G"))
            world.append(generate_cell(LognormalSpec(1.0, 1.1, 0.2, n_world, 20 + i), key, WORLD))
        return group, world, [40, 3050, 30, 80, 4000, 60]

    @staticmethod
    def frequent_rejections():
        """2**32 mod 102,537 = 102,514: about 2.4 rejected words per replicate."""
        key = FieldYearKey("F", 2015)
        group = [generate_cell(LognormalSpec(1.0, 1.3, 0.2, 102_537, 3), key, "G")]
        world = [generate_cell(LognormalSpec(1.0, 1.3, 0.2, 700, 4), key, WORLD)]
        return group, world, [102_537, 700]

    @pytest.mark.parametrize("indicator", [MNLCS, LUNDBERG_Z, MNPC])
    def test_rejection_in_middle_cell(self, indicator):
        # Replicate 27 of seed 5 rejects a word of the middle cell, so every
        # later word of that replicate moves up by one.
        group, world, drawn = self.middle_cell_scope()
        assert lemire_rejections(5, 27, drawn) == [0, 1, 0, 0, 0, 0]
        self.check(group, world, indicator, BootstrapSpec(100, seed=5))

    @pytest.mark.parametrize("indicator", [MNLCS, MNCS, PROP_CITED])
    def test_large_cell_with_frequent_rejections(self, indicator):
        group, world, drawn = self.frequent_rejections()
        assert sum(lemire_rejections(4, r, drawn[:1])[0] for r in range(100)) > 100
        self.check(group, world, indicator, BootstrapSpec(100, seed=4))

    @pytest.mark.parametrize("indicator", ALL_INDICATORS)
    def test_counts_of_every_width(self, indicator):
        # Cells of uint16, uint32 (a count of 70,000) and uint64 (2**40)
        # counts in one row draw and record what int64 counts and float64
        # ln(1+c) values give.
        rng = np.random.default_rng(11)
        group, world = [], []
        for i, (largest_group, largest_world) in enumerate([(70_000, 2**40), (40, 2**16)]):
            key = FieldYearKey(f"F{i}", 2015)
            for label, cells, n, largest in (("G", group, 150, largest_group),
                                              (WORLD, world, 400, largest_world)):
                counts = rng.integers(0, 30, n)
                counts[n // 3] = largest
                cells.append(ArticleSet(label, key, counts))
        widths = [c.counts.dtype for c in group + world]
        assert widths == [np.uint32, np.uint16, np.uint64, np.uint32]
        self.check(group, world, indicator, BootstrapSpec(200, seed=13))

    def test_replicates_wider_than_the_block_budget(self, monkeypatch):
        # Every replicate is a block of its own, in a buffer of its own,
        # and replicate 27 rejects a word of the middle cell.
        monkeypatch.setattr(fieldnorm.index_scheme, "_BLOCK_WORDS", 1)
        group, world, _ = self.middle_cell_scope()
        self.check(group, world, MNLCS, BootstrapSpec(100, seed=5))

    @pytest.mark.parametrize("limit", ["window", "budget"])
    def test_block_sizing(self, monkeypatch, limit):
        # One 20,000-article group cell and its world cell: the largest
        # cell's window caps a block at 3 replicates, where the budget would
        # take 9.  Twenty cells of 800-1,000 articles, the world resampled:
        # the budget caps a block below the window's 65 replicates.
        if limit == "window":
            key = FieldYearKey("F", 2015)
            group = [generate_cell(LognormalSpec(1.0, 1.3, 0.2, 20_000, 1), key, "G")]
            world = [generate_cell(LognormalSpec(1.0, 1.3, 0.2, 9_000, 2), key, WORLD)]
        else:
            group, world = [], []
            for i in range(10):
                key = FieldYearKey(f"F{i}", 2015)
                group.append(generate_cell(LognormalSpec(1.0, 1.1, 0.2, 800, 30 + i), key, "G"))
                world.append(generate_cell(LognormalSpec(1.0, 1.1, 0.2, 1000, 60 + i), key, WORLD))
        blocks = recorded_blocks(monkeypatch)
        self.check(group, world, MNLCS, BootstrapSpec(200, seed=17))
        for rows, columns, largest in blocks:
            assert rows * largest <= DEFAULT_BLOCK_WORDS // 16
            assert rows * (columns + 4 * largest) <= DEFAULT_BLOCK_WORDS
        # One replicate more would break the limit that binds, not the other.
        rows, columns, largest = blocks[0]
        over_window = (rows + 1) * largest > DEFAULT_BLOCK_WORDS // 16
        over_budget = (rows + 1) * (columns + 1 + 4 * largest) > DEFAULT_BLOCK_WORDS
        assert (over_window, over_budget) == (limit == "window", limit == "budget")
        assert rows == {"window": 3, "budget": 47}[limit]
        assert sum(rows for rows, *_ in blocks) == 200

    @pytest.mark.parametrize("scope, seed", [("middle_cell_scope", 5), ("frequent_rejections", 4)])
    def test_spare_words_exhausted(self, monkeypatch, scope, seed):
        # With no spare words, a replicate with a rejected word runs out and
        # is drawn again, with more spare words each round.
        monkeypatch.setattr(fieldnorm.index_scheme, "_SLACK", 0)
        group, world, drawn = getattr(self, scope)()
        assert any(sum(lemire_rejections(seed, r, drawn)) for r in range(100))
        self.check(group, world, MNLCS, BootstrapSpec(100, seed=seed))


@st.composite
def oracle_scopes(draw):
    """Group and world cells of one to three keys, 1-60 articles each, some zero-inflated."""
    group, world = [], []
    for i in range(draw(st.integers(1, 3))):
        key = FieldYearKey(f"F{i}", 2015)
        for label, cells in (("G", group), (WORLD, world)):
            n = draw(st.integers(1, 60))
            value = st.integers(0, draw(st.integers(0, 40)))
            if draw(st.booleans()):
                value = st.one_of(st.just(0), value)
            cells.append(ArticleSet(label, key, draw(st.lists(value, min_size=n, max_size=n))))
    return group, world


def one_article_scope():
    """A one-article group cell, and a one-article world cell under another key."""
    key_a, key_b = FieldYearKey("A", 2015), FieldYearKey("B", 2015)
    group = [ArticleSet("G", key_a, (3,)), ArticleSet("G", key_b, (0, 2, 1))]
    world = [ArticleSet(WORLD, key_a, (0, 4, 1, 1)), ArticleSet(WORLD, key_b, (5,))]
    return group, world


@pytest.mark.parametrize("resample_world", [True, False])
@pytest.mark.parametrize("indicator", ALL_INDICATORS)
@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(scope=oracle_scopes(), seed=st.integers(0, 2**64 - 1))
@example(scope=one_article_scope(), seed=1)
def test_random_scopes_match_per_replicate_loop(indicator, resample_world, scope, seed):
    # Every replicate value and the undefined count, exactly, against one
    # default_rng per replicate.  Cells this small almost never reject a
    # word (the rejection tests above cover that); these scopes exercise the
    # recording, the arrays a WORLD row shares, and one-article cells.
    group, world = scope
    spec = BootstrapSpec(100, seed=seed, resample_world=resample_world)
    assert vectorised(group, world, indicator, spec) == \
        per_replicate_loop(group, world, indicator, spec)


def constant_replicates(cell, stats, iterations):
    """Replicates that all equal ``cell``: each named statistic holds the cell's own value."""
    rep = CellReplicates(cell.n, stats, iterations)
    for name in stats:
        getattr(rep, name)[:] = getattr(cell, name)
    return rep


def one_article_group():
    """One-article group cells over the worked example's world cells."""
    group = [ArticleSet("G", KEY_A, (3,)), ArticleSet("G", KEY_B, (0,))]
    world = [ArticleSet(WORLD, KEY_A, WORLD_A), ArticleSet(WORLD, KEY_B, WORLD_B)]
    return group, world


@pytest.mark.parametrize("cell_sets", [one_article_scope, mixed_scope, one_article_group])
@pytest.mark.parametrize("resample_world", [True, False])
@pytest.mark.parametrize("indicator", ALL_INDICATORS)
def test_what_each_row_hands_the_scheme(monkeypatch, indicator, resample_world, cell_sets):
    # A fake scheme records what each row hands it, and every replicate it
    # fills is the original data.
    handed = []

    def fake_draw(rows):
        for seed, iterations, cells in rows:
            assert cells, "a row that draws nothing reached the scheme"
            handed.append((seed, iterations, cells))
            yield [constant_replicates(cell, stats, iterations) for cell, stats in cells]

    monkeypatch.setattr(fieldnorm.bootstrap, "draw", fake_draw)
    group, world = cell_sets()
    group_stats, world_stats = CELL_STATISTICS[indicator]
    expected = [(cell, group_stats) for cell in sorted(group, key=lambda c: c.key) if cell.n > 1]
    if resample_world and world_stats:
        expected += [(cell, world_stats) for cell in sorted(world, key=lambda c: c.key)
                     if cell.n > 1]
    assert any(cell.n == 1 for cell in group + world)
    if indicator in (PROP_CITED, EQ_PROP_CITED):
        assert not world_stats

    spec = BootstrapSpec(100, seed=3, resample_world=resample_world)
    scope = Corpus.from_cells(group + world).scope("G", {cell.key for cell in group})
    bootstrap_intervals([PlannedRow("G", "", scope, indicator, "bootstrap", spec)], 0.05)
    assert handed == ([(3, 100, expected)] if expected else [])

    (row,) = row_results([PlannedRow("G", "", scope, indicator, "bootstrap", spec)], 0.05)
    if row.defined:
        assert row.lower == pytest.approx(row.estimate, rel=1e-12)
        assert row.upper == pytest.approx(row.estimate, rel=1e-12)


@pytest.mark.parametrize("indicator", [MNLCS, EMNPC, MNPC])
def test_kernel_takes_group_cells_with_replicate_world_cells(indicator):
    # Replicate r of each world cell is the cell worlds[r] holds; the last
    # replicate's world has no cited article, so the indicator is undefined.
    group = [ArticleSet("G", KEY_A, (0, 2, 5)), ArticleSet("G", KEY_B, (1, 3))]
    worlds = [
        [ArticleSet(WORLD, KEY_A, (0, 1, 4, 2)), ArticleSet(WORLD, KEY_B, (2, 0, 7))],
        [ArticleSet(WORLD, KEY_A, (3, 1, 1, 0)), ArticleSet(WORLD, KEY_B, (0, 0, 5))],
        [ArticleSet(WORLD, KEY_A, (0, 0, 0, 0)), ArticleSet(WORLD, KEY_B, (0, 0, 0))],
    ]
    stats = CELL_STATISTICS[indicator][1]
    world = [CellReplicates(cell.n, stats, len(worlds)) for cell in worlds[0]]
    for rep, cells in zip(world, zip(*worlds)):
        for name in stats:
            getattr(rep, name)[:] = [getattr(cell, name) for cell in cells]
    keys = [KEY_A, KEY_B]
    values, _ = indicator_estimate(indicator, keys, group, world)
    assert values[:2].tolist() == [indicator_estimate(indicator, keys, group, cells)[0]
                                   for cells in worlds[:2]]
    assert np.isnan(values[2])


@pytest.mark.parametrize("indicator", [PROP_CITED, MNLCS])
def test_row_that_draws_nothing_is_its_point(monkeypatch, indicator):
    # One-article group cells and a fixed world: every replicate is the
    # data, and the row never reaches the scheme.
    monkeypatch.setattr(fieldnorm.bootstrap, "draw", no_draws)
    group, world = one_article_group()
    spec = BootstrapSpec(100, seed=3, resample_world=False)
    scope = Corpus.from_cells(group + world).scope("G", {KEY_A, KEY_B})
    assert PlannedRow("G", "", scope, indicator, "bootstrap", spec).draws == []
    (row,) = row_results([PlannedRow("G", "", scope, indicator, "bootstrap", spec)], 0.05)
    assert row.defined and row.lower == row.estimate == row.upper


@pytest.mark.parametrize("indicator, iterations", [(PROP_CITED, 10_000), (MNCS, 1000)])
def test_row_that_draws_nothing_is_neither_seeded_nor_drawn(monkeypatch, indicator, iterations):
    # A row that draws nothing, between two that draw, in one batch: the
    # scheme seeds and draws words for the drawing rows alone, as their
    # separate calls do, and every row is its separate call.
    calls = []
    seed_words = fieldnorm.index_scheme.seed_words
    replicate_words = fieldnorm.index_scheme.replicate_words

    def seeded(seeds, replicates):
        calls.append(("seed_words", sorted(set(np.atleast_1d(seeds).tolist())), len(replicates)))
        return seed_words(seeds, replicates)

    def drawn(bit_generator, memory, states, raw):
        calls.append(("replicate_words", len(states), raw.shape[1]))
        return replicate_words(bit_generator, memory, states, raw)

    monkeypatch.setattr(fieldnorm.index_scheme, "seed_words", seeded)
    monkeypatch.setattr(fieldnorm.index_scheme, "replicate_words", drawn)
    one_cpu(monkeypatch)  # a forked child's calls are out of the spy's sight
    group, world = demo_sets()
    one_article, _ = one_article_group()
    jobs = [(cells, world, indicator, BootstrapSpec(iterations, seed, resample_world=False))
            for seed, cells in enumerate([group, one_article, group], start=1)]
    expected, made = [], []
    for job in jobs:
        expected.append(bootstrap_indicator(*job))
        made.append(calls[:])
        calls.clear()
    assert made[0] and made[1] == [] and made[2]
    intervals = bootstrap_intervals(TestBootstrapIntervals.rows(jobs), 0.05)
    assert calls == made[0] + made[2]
    assert {seed for call in calls if call[0] == "seed_words" for seed in call[1]} == {1, 3}
    assert len(intervals) == len(expected)
    for interval, alone in zip(intervals, expected):
        for name in ("lower", "upper", "defined", "method", "alpha", "note"):
            assert getattr(interval, name) == getattr(alone, name)
    assert expected[1].lower == expected[1].estimate == expected[1].upper


def imports_of(path):
    """(module, name) for each name a module imports; a module imported whole has name None."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name.removeprefix("fieldnorm."), None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("fieldnorm").lstrip(".")
            found += [(module, alias.name) if module else (alias.name, None)
                      for alias in node.names]
    return found


def test_only_index_scheme_knows_the_index_stream():
    # Parsed, not imported, so that no import at run time can hide an edge.
    imports = {path.stem: imports_of(path)
               for path in Path(fieldnorm.bootstrap.__file__).parent.glob("*.py")}
    assert {stem for stem, found in imports.items()
            if any(module.split(".")[0] == "ctypes" for module, _ in found)} == \
        {"index_scheme", "bootstrap"}
    # bootstrap imports ctypes whole and reads only CDLL and two integer
    # types from it: a forked child's prctl, never a generator's memory.
    assert [(module, name) for module, name in imports["bootstrap"]
            if module.split(".")[0] == "ctypes"] == [("ctypes", None)]
    tree = ast.parse(Path(fieldnorm.bootstrap.__file__).read_text(encoding="utf-8"))
    assert {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "ctypes"} == {"CDLL", "c_int", "c_ulong"}
    assert {stem: [name for module, name in found if module == "index_scheme"]
            for stem, found in imports.items()
            if any(module == "index_scheme" for module, _ in found)} == {"bootstrap": ["draw"]}
    forbidden = {"bootstrap", "scopes", "report", "cli"}
    assert not forbidden & {module.split(".")[0] for module, _ in imports["index_scheme"]}
    # Only the scheme makes replicates; every other cell is read as itself.
    assert {path.stem for path in Path(fieldnorm.bootstrap.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and "CellReplicates" in
            (getattr(node.func, "id", None), getattr(node.func, "attr", None))} == {"index_scheme"}
