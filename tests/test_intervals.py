from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from fieldnorm.intervals import (
    EXPAND_FROM_MEAN,
    FIELLER,
    LITERAL,
    NORMAL_T,
    IntervalEstimate,
    SampleMoments,
    fieller_ci,
    heuristic_expanded_ci,
    mnlcs_normal_ci,
    mnpc_combined_ci,
    mnpc_field_ci,
    risk_ratio_ci,
    t_critical,
    wilson_ci,
    z_critical,
)


def moments(mean, se, n):
    return SampleMoments(mean=mean, sd=se * math.sqrt(n), se=se, n=n)


class TestCriticalValues:
    def test_large_df_approaches_normal(self):
        assert t_critical(10**6, 0.05) == pytest.approx(1.96, abs=1e-3)

    def test_t_table_values(self):
        assert t_critical(1, 0.05) == pytest.approx(12.706, abs=0.01)
        assert t_critical(30, 0.05) == pytest.approx(2.042, abs=0.005)

    def test_monotone_decreasing_in_df(self):
        values = [t_critical(df, 0.05) for df in (1, 2, 5, 10, 100, 10**5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_z(self):
        assert z_critical(0.05) == pytest.approx(1.959964, abs=1e-5)

    def test_equal_to_scipy_ppf(self):
        for alpha in (0.001, 0.01, 0.05, 0.1, 0.3, 0.9):
            q = 1.0 - alpha / 2.0
            assert z_critical(alpha) == float(stats.norm.ppf(q))
            for df in (1, 2, 3, 7, 30, 99, 398, 4999, 10**5, 10**6):
                assert t_critical(df, alpha) == float(stats.t.ppf(q, df))

    def test_invalid_arguments_raise_every_time(self):
        t_critical(5, 0.05)
        z_critical(0.05)
        for _ in range(2):
            for df, alpha in ((0, 0.05), (-3, 0.05), (5, 0.0), (5, 1.0), (5, float("nan"))):
                with pytest.raises(ValueError):
                    t_critical(df, alpha)
            for alpha in (0.0, 1.0, -0.1, float("nan")):
                with pytest.raises(ValueError):
                    z_critical(alpha)


class TestNormalCi:
    def test_constant_scores_zero_width(self):
        ci = mnlcs_normal_ci(np.full(10, 1.5))
        assert ci.lower == ci.upper == pytest.approx(1.5)

    def test_two_point_hand_calculation(self):
        ci = mnlcs_normal_ci(np.array([0.5, 1.5]), 0.05)
        assert ci.estimate == pytest.approx(1.0)
        assert ci.upper - ci.estimate == pytest.approx(12.706 * 0.7071 / math.sqrt(2), abs=0.01)

    def test_large_sample_normal_limit(self):
        rng = np.random.default_rng(3)
        values = rng.normal(1.0, 1.0, 10000)
        ci = mnlcs_normal_ci(values, 0.05)
        assert ci.upper - ci.lower == pytest.approx(2 * 1.96 / 100, rel=0.05)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            mnlcs_normal_ci(np.array([1.0]))

    def test_width_scales_with_root_n(self):
        rng = np.random.default_rng(11)
        half = rng.normal(2.0, 0.7, 400)
        other = rng.normal(2.0, 0.7, 400)
        w_half = mnlcs_normal_ci(half).width
        w_full = mnlcs_normal_ci(np.concatenate([half, other])).width
        assert 0.65 <= w_full / w_half <= 0.76


class TestFieller:
    def test_zero_world_se_degenerates_to_scaled_interval(self):
        g, w = moments(1.0, 0.01, 400), moments(0.8, 0.0, 400)
        ci = fieller_ci(g, w)
        t = t_critical(798, 0.05)
        assert ci.h == 0.0
        assert ci.lower == pytest.approx((1.0 - t * 0.01) / 0.8, rel=1e-12)
        assert ci.upper == pytest.approx((1.0 + t * 0.01) / 0.8, rel=1e-12)

    def test_large_denominator_uncertainty_undefined(self):
        # t*SE_w/mean = about 1.2 -> h about 1.44
        w = moments(1.0, 1.2 / t_critical(198, 0.05), 100)
        ci = fieller_ci(moments(1.0, 0.1, 100), w)
        assert not ci.defined
        assert ci.h > 1.0
        assert ci.lower is None and ci.upper is None

    def test_h_exactly_one_is_undefined(self):
        t = t_critical(198, 0.05)
        ci = fieller_ci(moments(1.0, 0.1, 100), moments(1.0, 1.0 / t, 100))
        assert ci.h == pytest.approx(1.0)
        assert not ci.defined

    def test_simulation_oracle(self):
        # frozen from a 1e5-replicate parametric draw of the ratio of
        # Normal(1.2, 0.02) over Normal(1.0, 0.02): quantiles (1.1403, 1.2630)
        ci = fieller_ci(moments(1.2, 0.02, 500), moments(1.0, 0.02, 500))
        assert ci.lower == pytest.approx(1.14047, abs=3e-3)
        assert ci.upper == pytest.approx(1.26323, abs=3e-3)
        rng = np.random.default_rng(777)
        ratio = rng.normal(1.2, 0.02, 100000) / rng.normal(1.0, 0.02, 100000)
        lo, hi = np.quantile(ratio, [0.025, 0.975])
        assert ci.lower == pytest.approx(lo, abs=3e-3)
        assert ci.upper == pytest.approx(hi, abs=3e-3)

    def test_textbook_form_agreement(self):
        # the stable group-variance term equals the printed
        # (estimate/(1-h)) * sqrt((1-h) SE_g^2/g_mean^2 + SE_w^2/w_mean^2)
        g, w = moments(1.4, 0.05, 200), moments(0.9, 0.03, 300)
        ci = fieller_ci(g, w)
        t = t_critical(498, 0.05)
        h = (t * w.se / w.mean) ** 2
        est = g.mean / w.mean
        se = est / (1 - h) * math.sqrt((1 - h) * g.se**2 / g.mean**2 + w.se**2 / w.mean**2)
        assert ci.lower == pytest.approx(est / (1 - h) - t * se, rel=1e-12)
        assert ci.upper == pytest.approx(est / (1 - h) + t * se, rel=1e-12)

    def test_tiny_world_se_matches_scaled_normal_within_a_tenth_percent(self):
        g, w = moments(1.0, 0.02, 400), moments(0.8, 1e-12, 400)
        ci = fieller_ci(g, w)
        t = t_critical(798, 0.05)
        lo, hi = (g.mean - t * g.se) / w.mean, (g.mean + t * g.se) / w.mean
        assert abs(ci.width - (hi - lo)) / (hi - lo) < 1e-3

    def test_definedness_monotone_in_world_se(self):
        g = moments(1.0, 0.05, 100)
        seen_undefined = False
        for se_w in np.linspace(0.0, 1.0, 60):
            ci = fieller_ci(g, moments(1.0, float(se_w), 100))
            if not ci.defined:
                seen_undefined = True
            else:
                assert not seen_undefined  # defined never returns after undefined
        assert seen_undefined

    def test_non_positive_world_mean_rejected(self):
        with pytest.raises(ValueError):
            fieller_ci(moments(1.0, 0.1, 50), moments(0.0, 0.1, 50))


def _interval(lower, upper, estimate=None, method=NORMAL_T, alpha=0.05, n=None, defined=True):
    return IntervalEstimate(
        estimate=(lower + upper) / 2 if estimate is None else estimate,
        lower=lower, upper=upper, alpha=alpha, method=method, defined=defined, n=n,
    )


class TestHeuristicExpansion:
    def cell(self, size, mean, half, fieller_extra_low=0.0, fieller_extra_up=0.0):
        normal = _interval(mean - half, mean + half, estimate=mean)
        fieller = _interval(
            mean - half - fieller_extra_low, mean + half + fieller_extra_up,
            estimate=mean, method=FIELLER,
        )
        return (size, normal, fieller, mean)

    def test_zero_expansion_expand_from_mean_recovers_normal(self):
        cells = [self.cell(40, 1.0, 0.2), self.cell(60, 1.2, 0.1)]
        combined = _interval(0.9, 1.3, estimate=1.1, n=100)
        out = heuristic_expanded_ci(cells, combined, 1.1, EXPAND_FROM_MEAN)
        assert out.lower == pytest.approx(0.9)
        assert out.upper == pytest.approx(1.3)

    def test_zero_expansion_literal_doubles_halfwidths(self):
        cells = [self.cell(40, 1.0, 0.2), self.cell(60, 1.2, 0.1)]
        combined = _interval(0.9, 1.3, estimate=1.1, n=100)
        out = heuristic_expanded_ci(cells, combined, 1.1, LITERAL)
        assert out.lower == pytest.approx(0.9 - 0.2)
        assert out.upper == pytest.approx(1.3 + 0.2)

    def test_single_cell_expand_from_mean_recovers_fieller(self):
        cell = self.cell(50, 1.1, 0.15, fieller_extra_low=0.05, fieller_extra_up=0.30)
        combined = _interval(1.1 - 0.15, 1.1 + 0.15, estimate=1.1, n=50)
        out = heuristic_expanded_ci([cell], combined, 1.1, EXPAND_FROM_MEAN)
        assert out.lower == pytest.approx(1.1 - 0.20)
        assert out.upper == pytest.approx(1.1 + 0.45)

    def test_undefined_cell_fieller_flags_result(self):
        size, normal, _, mean = self.cell(30, 1.0, 0.1)
        undefined = IntervalEstimate(1.0, None, None, 0.05, FIELLER, defined=False)
        out = heuristic_expanded_ci(
            [(size, normal, undefined, mean)], _interval(0.9, 1.1, n=30), 1.0
        )
        assert not out.defined

    def test_mode_recorded_in_note(self):
        cells = [self.cell(40, 1.0, 0.2)]
        combined = _interval(0.8, 1.2, estimate=1.0, n=40)
        for mode in (LITERAL, EXPAND_FROM_MEAN):
            assert f"expansion_mode={mode}" in heuristic_expanded_ci(
                cells, combined, 1.0, mode
            ).note

    def test_size_mismatch_rejected(self):
        cells = [self.cell(40, 1.0, 0.2)]
        combined = _interval(0.8, 1.2, estimate=1.0, n=99)
        with pytest.raises(ValueError, match="sum"):
            heuristic_expanded_ci(cells, combined, 1.0)


class TestWilson:
    def test_zero_cited_lower_is_zero(self):
        assert wilson_ci(0, 50).lower == 0.0

    def test_all_cited_upper_is_one(self):
        assert wilson_ci(100, 100).upper == 1.0

    def test_half_cited_textbook_values(self):
        ci = wilson_ci(50, 100, 0.05)
        assert ci.lower == pytest.approx(0.404, abs=1e-3)
        assert ci.upper == pytest.approx(0.596, abs=1e-3)

    def test_contains_raw_proportion(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            total = int(rng.integers(1, 500))
            cited = int(rng.integers(0, total + 1))
            ci = wilson_ci(cited, total)
            assert ci.lower <= cited / total <= ci.upper
            assert 0.0 <= ci.lower <= ci.upper <= 1.0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_ci(5, 4)


class TestRiskRatio:
    def test_identical_counts_bracket_one(self):
        ci = risk_ratio_ci((50, 100), (50, 100))
        assert ci.estimate == pytest.approx(1.0)
        assert ci.lower < 1.0 < ci.upper

    def test_direct_substitution_oracle(self):
        # exp(ln 1.4 -+ 1.96 * sqrt(30/70/100 + 50/50/100))
        ci = risk_ratio_ci((70, 100), (50, 100), 0.05, continuity=False)
        half = z_critical(0.05) * math.sqrt(30 / 70 / 100 + 50 / 50 / 100)
        assert ci.lower == pytest.approx(math.exp(math.log(1.4) - half), rel=1e-12)
        assert ci.upper == pytest.approx(math.exp(math.log(1.4) + half), rel=1e-12)
        assert ci.lower == pytest.approx(1.10762, abs=5e-5)
        assert ci.upper == pytest.approx(1.76956, abs=5e-5)

    def test_continuity_shrinks_small_count_variance_terms(self):
        # raising each cited count by 0.5 inside the radical lowers the
        # dominant 1/cited terms, so the corrected interval is narrower here
        on = risk_ratio_ci((1, 500), (5, 500), continuity=True)
        off = risk_ratio_ci((1, 500), (5, 500), continuity=False)
        assert math.log(on.upper) - math.log(on.lower) < math.log(off.upper) - math.log(off.lower)

    def test_zero_group_cited_undefined_either_way(self):
        for continuity in (False, True):
            ci = risk_ratio_ci((0, 100), (5, 100), continuity=continuity)
            assert not ci.defined

    def test_zero_world_cited_undefined(self):
        assert not risk_ratio_ci((5, 100), (0, 100)).defined

    def test_log_symmetry_without_continuity(self):
        ci = risk_ratio_ci((37, 210), (91, 430))
        assert math.log(ci.upper) - math.log(ci.estimate) == pytest.approx(
            math.log(ci.estimate) - math.log(ci.lower), abs=1e-12
        )

    def test_continuity_note_recorded(self):
        assert "continuity=on" in risk_ratio_ci((5, 10), (5, 10), continuity=True).note
        assert "continuity=off" in risk_ratio_ci((5, 10), (5, 10), continuity=False).note


class TestMnpcFieldCi:
    def test_identical_cells_bracket_one(self):
        ci = mnpc_field_ci((50, 100), (50, 100))
        assert ci.estimate == pytest.approx(1.0)
        assert ci.lower < 1.0 < ci.upper

    def test_direct_substitution_oracle(self):
        # pooled denominator: exp(ln 1.2 -+ 1.96 * sqrt((40/60 + 50/50)/200))
        ci = mnpc_field_ci((60, 100), (50, 100), 0.05, continuity=False)
        half = z_critical(0.05) * math.sqrt((40 / 60 + 50 / 50) / 200)
        assert ci.lower == pytest.approx(math.exp(math.log(1.2) - half), rel=1e-12)
        assert ci.upper == pytest.approx(math.exp(math.log(1.2) + half), rel=1e-12)
        assert ci.lower == pytest.approx(1.00341, abs=5e-5)
        assert ci.upper == pytest.approx(1.43511, abs=5e-5)

    def test_pooled_denominator_differs_from_per_arm(self):
        pooled = mnpc_field_ci((60, 100), (50, 100))
        per_arm = risk_ratio_ci((60, 100), (50, 100))
        assert pooled.width != pytest.approx(per_arm.width, rel=1e-6)

    def test_fully_cited_group_with_continuity_stays_finite(self):
        ci = mnpc_field_ci((100, 100), (50, 100), continuity=True)
        assert ci.defined
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper)
        assert ci.lower <= ci.upper


class TestMnpcCombinedCi:
    def field(self, cited_g, n_g, cited_w, n_w, alpha=0.05):
        ci = mnpc_field_ci((cited_g, n_g), (cited_w, n_w), alpha)
        ratio = (cited_g / n_g) / (cited_w / n_w)
        return ratio, ci

    def test_single_field_recovers_field_interval(self):
        ratio, ci = self.field(30, 100, 40, 100)
        out = mnpc_combined_ci([(1.0, ratio, ci)], mnpc=ratio)
        assert out.lower == pytest.approx(ci.lower)
        assert out.upper == pytest.approx(ci.upper)

    def test_two_symmetric_fields(self):
        interval = _interval(0.8, 1.2, estimate=1.0)
        out = mnpc_combined_ci([(0.5, 1.0, interval), (0.5, 1.0, interval)], mnpc=1.0)
        assert out.lower == pytest.approx(0.8)
        assert out.upper == pytest.approx(1.2)

    def test_hand_weighted_combination(self):
        r1, ci1 = self.field(30, 100, 40, 100)
        r2, ci2 = self.field(50, 300, 60, 300)
        weights = (100 / 400, 300 / 400)
        mnpc = weights[0] * r1 + weights[1] * r2
        out = mnpc_combined_ci([(weights[0], r1, ci1), (weights[1], r2, ci2)], mnpc)
        lower = mnpc - (weights[0] * (r1 - ci1.lower) + weights[1] * (r2 - ci2.lower))
        upper = mnpc + (weights[0] * (ci1.upper - r1) + weights[1] * (ci2.upper - r2))
        assert out.lower == pytest.approx(lower, rel=1e-12)
        assert out.upper == pytest.approx(upper, rel=1e-12)

    def test_undefined_field_flags_combined(self):
        undefined = IntervalEstimate(None, None, None, 0.05, "RISK_RATIO", defined=False)
        out = mnpc_combined_ci([(1.0, 1.0, undefined)], mnpc=1.0)
        assert not out.defined

    def test_weights_must_sum_to_one(self):
        _, ci = self.field(30, 100, 40, 100)
        with pytest.raises(ValueError, match="weights"):
            mnpc_combined_ci([(0.7, 1.0, ci)], mnpc=1.0)
