from __future__ import annotations

import math

import numpy as np
import pytest

from fieldnorm.corpus import FieldYearKey
from fieldnorm.indicators import MNLCS
from fieldnorm.scopes import indicator_value
from fieldnorm.synthetic import LognormalSpec, generate_cell, scenario_grid

KEY = FieldYearKey("F", 2000)

# Monte-Carlo reference (2e7 draws, seed 12345) for E[ln(1+c)] at mu=1,
# sigma=1 under the round(exp(x)-1) discretisation.  The zero floor and the
# rounding push the log-mean above the underlying normal location.
LOG_MEAN_MU1_SG1 = 1.06697


class TestGenerateCell:
    def test_reproducible(self):
        spec = LognormalSpec(1.2, 0.8, 0.2, 500, seed=77)
        first, second = generate_cell(spec, KEY, "G"), generate_cell(spec, KEY, "G")
        assert np.array_equal(first.counts, second.counts)

    def test_near_degenerate_sigma_pins_counts(self):
        spec = LognormalSpec(np.log(6.0), 1e-9, 0.0, 200, seed=1)
        counts = set(generate_cell(spec, KEY, "G").counts)
        assert counts == {5}

    def test_zero_inflation_floor(self):
        spec = LognormalSpec(1.0, 1.0, 0.9, 10000, seed=3)
        counts = generate_cell(spec, KEY, "G").counts_array()
        zero_share = np.count_nonzero(counts == 0) / len(counts)
        assert zero_share >= 0.89

    def test_log_mean_matches_measured_reference(self):
        spec = LognormalSpec(1.0, 1.0, 0.0, 100000, seed=9)
        counts = generate_cell(spec, KEY, "G").counts_array()
        assert np.log1p(counts).mean() == pytest.approx(LOG_MEAN_MU1_SG1, abs=0.02)

    def test_mu_monotonicity(self):
        means = []
        for mu in (0.5, 1.0, 1.5, 2.0):
            spec = LognormalSpec(mu, 1.0, 0.0, 10000, seed=4)
            means.append(generate_cell(spec, KEY, "G").counts_array().mean())
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            LognormalSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            LognormalSpec(1.0, 1.0, zero_inflation=1.0)
        with pytest.raises(ValueError):
            LognormalSpec(1.0, 1.0, n=0)

    @pytest.mark.parametrize("mu, sigma", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                           (1.0, math.inf)])
    def test_non_finite_parameters_rejected(self, mu, sigma):
        with pytest.raises(ValueError, match="mu and sigma must be finite"):
            LognormalSpec(mu, sigma)

    @pytest.mark.parametrize("mu", [44.0, 800.0])
    def test_count_above_int64_rejected(self, mu):
        # exp(44) is about 1.3e19 > 2**63 - 1; exp(800) overflows to inf
        spec = LognormalSpec(mu, 0.7, 0.0, 50, seed=1)
        with pytest.raises(ValueError, match=r"LognormalSpec\(mu=%s.*above 2\*\*63 - 1" % mu):
            generate_cell(spec, KEY, "G")

    def test_largest_counts_below_int64_kept(self):
        # exp(42) is about 1.7e18, below 2**63 - 1
        counts = generate_cell(LognormalSpec(42.0, 0.1, 0.0, 50, seed=1), KEY, "G").counts_array()
        assert counts.min() > 10**18


class TestScenarioGrid:
    def test_single_point(self):
        corpora = scenario_grid([1.0], [1.0], [0.0], [100])
        assert len(corpora) == 1
        corpus = corpora[0]
        assert corpus.groups == {"G1"}
        assert len(corpus.world(next(iter(corpus.keys)))) == 100

    def test_grid_size_and_distinct_seeds(self):
        corpora = scenario_grid([0.5, 1.0], [0.8, 1.2], [0.0], [50])
        assert len(corpora) == 4
        fingerprints = {tuple(corpus.world(next(iter(corpus.keys))).counts) for corpus in corpora}
        assert len(fingerprints) == 4

    def test_deterministic(self):
        a = scenario_grid([1.0], [1.0], [0.5], [100], base_seed=6)[0]
        b = scenario_grid([1.0], [1.0], [0.5], [100], base_seed=6)[0]
        assert a.cells.keys() == b.cells.keys()
        for ck in a.cells:
            assert np.array_equal(a.cells[ck].counts, b.cells[ck].counts)

    def test_group_shift_raises_counts(self):
        corpus = scenario_grid([1.0], [1.0], [0.0], [5000], group_shifts=[0.5], base_seed=1)[0]
        key = next(iter(corpus.keys))
        assert corpus.cell("G1", key).counts_array().mean() > corpus.world(key).counts_array().mean()

    def test_sparse_scenario_proportion_cited(self):
        # web-indicator-like sparsity: about 1-3% cited at this setting
        corpus = scenario_grid([1.0], [1.0], [0.98], [500], base_seed=3)[0]
        key = next(iter(corpus.keys))
        counts = corpus.world(key).counts_array()
        assert 0.005 <= np.count_nonzero(counts) / len(counts) <= 0.035

    def test_same_spec_group_mean_mnlcs_near_one(self):
        # 204 corpora: a 12-point grid regenerated under 17 base seeds
        values = []
        for seed in range(13, 30):
            for corpus in scenario_grid(
                [0.8, 1.2], [0.9, 1.1], [0.0, 0.2, 0.4], [400],
                group_shifts=[0.0], base_seed=seed,
            ):
                keys = corpus.keys_for("G1")
                values.append(indicator_value(corpus, "G1", keys, MNLCS).estimate)
        assert len(values) == 204
        assert 0.98 <= np.mean(values) <= 1.02

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            scenario_grid([], [1.0], [0.0], [100])
