from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from fieldnorm.intervals import (
    EXPAND_FROM_MEAN,
    FIELLER,
    HEURISTIC_EXPANSION,
    LITERAL,
    MNPC_WEIGHTED,
    NORMAL_T,
    RISK_RATIO,
    TOO_FEW_VALUES,
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


# Quantiles at the probability the functions invert, p = 1 - alpha/2 rounded
# to a double (so the upper tail is exactly 1 - fl(1 - alpha/2), not alpha/2).
# Computed once with mpmath at 45 digits as the root of I_x(df/2, 1/2) / 2 = 1 - p,
# x = df / (df + t^2), and checked against the central form I_y(1/2, df/2)
# and the df = 1 and 2 closed forms.
REFERENCE_ALPHAS = (1e-6, 0.001, 0.01, 0.05, 0.1, 0.3, 0.9)
T_REFERENCE = {
    1: (
        6.36619772419430312627110794648e+5,
        636.619248768789729828732576949,
        63.6567411628715244471573653494,
        12.706204736174693314101641219,
        6.31375151467503739792472275197,
        1.96261050550515024385304281541,
        1.58384440324536436853438288941e-1,
    ),
    2: (
        999.999250040977099771011114435,
        31.5990545764453634129815651845,
        9.92484320091828864033420639284,
        4.30265272974946178942037599664,
        2.91998558035372417031255995512,
        1.38620656016734386037778238254,
        1.421338109037404170476287453e-1,
    ),
    3: (
        130.154589561927583299185067239,
        12.9239786366879643224803215056,
        5.84090930973335541126116662664,
        3.18244630528370843588399788748,
        2.35336343480182289896350092238,
        1.24977810503322509934800329466,
        1.36598199353699029845454559544e-1,
    ),
    5: (
        28.4784734634552495786433083634,
        6.86882662588127513182103952701,
        4.03214298355522717927584805294,
        2.57058183563631478278854621083,
        2.01504837333302354174120364778,
        1.15576734289429291741284308705,
        1.32175175231687381795574039283e-1,
    ),
    10: (
        10.5164899570085455463099950926,
        4.58689385870270773846406581387,
        3.16927267261695071178171187518,
        2.22813885198627422451986193107,
        1.81246112281167586925956332814,
        1.09305807359052584112521787477,
        1.28890189293273903078148556117e-1,
    ),
    30: (
        6.11907562041373252076785060196,
        3.64595863504206280794140664246,
        2.74999565356722496639347483375,
        2.04227245630123788783499873215,
        1.69726088659395738368266460937,
        1.0546623471785600487565017645,
        1.26729613132073707477610366442e-1,
    ),
    99: (
        5.21716420666891098042614601003,
        3.39152883336368428576217569796,
        2.62640545728082718267358906685,
        1.98421695158641710294116080082,
        1.66039115601699046323529510772,
        1.04189075925178328741733141177,
        1.2598411391620604235968087816e-1,
    ),
    398: (
        4.9692892292088095380157785438,
        3.31513911449072377969383333118,
        2.58823840493437481565540866976,
        1.96594232397626609815927138459,
        1.64869117395983175446595011346,
        1.03778551415795250481318398225,
        1.25741553087291981219498814968e-1,
    ),
    1000: (
        4.92228952344607380245906256939,
        3.30028264842394415578883821583,
        2.58075469806595077061326237488,
        1.96233908082640810388664652233,
        1.64637881728546428402288692035,
        1.03697111082739864001534711488,
        1.25693262518716493015058798488e-1,
    ),
    2000: (
        4.9069223654489597476362733039,
        3.2953981367297707477859730435,
        2.57828978755751870066881139394,
        1.96115082609943765002934772373,
        1.64561586669890714643707620945,
        1.0367021800733763070934226698,
        1.25677303623887107905373134926e-1,
    ),
    4999: (
        4.89774329389173670201536148046,
        3.29247411305647147687286004535,
        2.57681316339898195034256844536,
        1.96043864666152452109124071088,
        1.64515849858266433442873440716,
        1.0365409104148631194837271888,
        1.25667730584025784334619216635e-1,
    ),
    10**4: (
        4.89468861633182420895404755592,
        3.29149996594163569135854769741,
        2.57632104666852858532621770044,
        1.96020123989062587779933730252,
        1.64500601806924253370648894062,
        1.03648713639856031678045323561,
        1.25664538038581855814404695697e-1,
    ),
    10**5: (
        4.89194334073130278547086148647,
        3.29062403141191365774635500323,
        2.57587846990837499633957893623,
        1.95998770753460925865982332759,
        1.64486886478496930336267423558,
        1.03643876393205017361330912022,
        1.25661665969592056840382102954e-1,
    ),
    10**6: (
        4.89166896072657420909436659451,
        3.29053646124872211654433443452,
        2.57583422010533384715890591195,
        1.95996635681410665533760720807,
        1.64485515072204006202364484935,
        1.03643392693509345896138168988,
        1.25661378766487604553152555441e-1,
    ),
    3 * 10**6: (
        4.89164863734859225814278011658,
        3.29052997473838387095010605738,
        2.57583094239908163423249616854,
        1.95996477529744423284359139629,
        1.64485413487467927590469085174,
        1.0364335686408285355381352564,
        1.256613574922110192888328907e-1,
    ),
    10**7: (
        4.89164152420106056955741106408,
        3.29052770446525343534228164001,
        2.57582979520374866339884389868,
        1.95996422176720511044930246372,
        1.64485377932840124368529410027,
        1.03643344323789466105335105737,
        1.25661350046215108890316941157e-1,
    ),
}
Z_REFERENCE = (
    4.89163847571477902907622848394,
    3.29052673149192577868253538711,
    2.5758293035489004538574826715,
    1.95996398454005385560443064983,
    1.64485362695147228427631560354,
    1.03643338949378948448002598823,
    0.125661346855074146409208196936,
)


def moments(mean, se, n):
    return SampleMoments(mean=mean, sd=se * math.sqrt(n), se=se, n=n)


class TestCriticalValues:
    def test_large_df_approaches_normal(self):
        assert t_critical(10**6, 0.05) == pytest.approx(1.96, abs=1e-3)
        for alpha in (0.001, 0.01, 0.05, 0.1, 0.3, 0.9):
            assert 0.0 < t_critical(10**7, alpha) - z_critical(alpha) < 1e-6

    def test_t_table_values(self):
        assert t_critical(1, 0.05) == pytest.approx(12.706, abs=0.01)
        assert t_critical(30, 0.05) == pytest.approx(2.042, abs=0.005)

    def test_monotone_decreasing_in_df(self):
        # Decreasing in alpha too, on a grid that crosses every route t_critical takes.
        dfs = list(range(1, 60)) + [int(v) for v in np.geomspace(60, 10**7, 40)]
        alphas = (1e-12, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9, 0.999)
        table = [[t_critical(df, alpha) for alpha in alphas] for df in dfs]
        for row in table:
            assert all(a > b for a, b in zip(row, row[1:]))
        for column in zip(*table):
            assert all(a > b for a, b in zip(column, column[1:]))

    def test_z(self):
        assert z_critical(0.05) == pytest.approx(1.959964, abs=1e-5)

    def test_matches_reference_quantiles(self):
        for df, row in T_REFERENCE.items():
            for alpha, expected in zip(REFERENCE_ALPHAS, row):
                assert t_critical(df, alpha) == pytest.approx(expected, rel=1e-14, abs=0)
        for alpha, expected in zip(REFERENCE_ALPHAS, Z_REFERENCE):
            assert z_critical(alpha) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_agrees_with_scipy_on_dense_grid(self):
        dfs = list(range(1, 201)) + sorted({int(v) for v in np.geomspace(201, 10**7, 120)})
        alphas = np.geomspace(1e-12, 0.9, 20).tolist()
        for alpha in alphas:
            p = 1.0 - alpha / 2.0
            assert z_critical(alpha) == pytest.approx(float(special.ndtri(p)), rel=1e-14, abs=0)
            for df in dfs:
                expected = float(special.stdtrit(df, p))
                assert t_critical(df, alpha) == pytest.approx(expected, rel=1e-14, abs=0), df

    def test_closed_forms_at_one_and_two_df(self):
        # The closed-form upper tail q and central probability c = 1 - 2q at
        # the returned t: q pins large t, c pins small t.
        for alpha in (1e-9, 1e-6, 0.001, 0.05, 0.3, 0.5, 0.9, 0.999):
            p = 1.0 - alpha / 2.0
            q, c = 1.0 - p, 2.0 * p - 1.0
            t = t_critical(1, alpha)
            assert math.atan(1.0 / t) / math.pi == pytest.approx(q, rel=1e-14, abs=0)
            assert 2.0 * math.atan(t) / math.pi == pytest.approx(c, rel=1e-14, abs=0)
            t = t_critical(2, alpha)
            root = math.sqrt(2.0 + t * t)
            assert 1.0 / (root * (root + t)) == pytest.approx(q, rel=1e-14, abs=0)
            assert t / root == pytest.approx(c, rel=1e-14, abs=0)

    def test_extreme_alpha(self):
        for df in (1, 2, 3, 4, 7, 19, 20, 21, 40, 500, 10**5, 10**7, 10**9):
            for alpha in (1e-12, 0.999):
                value = t_critical(df, alpha)
                assert math.isfinite(value) and value > 0.0
            # 1 - alpha/2 rounds to 1 or to 1/2: the quantile is inf or 0.
            assert t_critical(df, 1e-17) == math.inf
            assert t_critical(df, math.nextafter(1.0, 0.0)) == 0.0
        for alpha in (1e-12, 0.999):
            assert math.isfinite(z_critical(alpha)) and z_critical(alpha) > 0.0
        assert z_critical(1e-17) == math.inf
        assert z_critical(math.nextafter(1.0, 0.0)) == 0.0

    def test_cli_import_does_not_load_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import fieldnorm.cli, sys; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

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
        # From the values themselves or from their size, mean and m2 alike.
        for values in ([], [1.0]):
            with pytest.raises(ValueError, match=f"^{TOO_FEW_VALUES}$"):
                mnlcs_normal_ci(np.array(values))
            with pytest.raises(ValueError, match=f"^{TOO_FEW_VALUES}$"):
                SampleMoments.from_m2(len(values), sum(values), 0.0)

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
        assert (ci.estimate, ci.n, ci.method) == (1.0, 200, FIELLER)
        assert ci.note == "denominator uncertainty too large (h >= 1)"

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
        assert out == IntervalEstimate(
            1.0, None, None, 0.05, HEURISTIC_EXPANSION, defined=False,
            note="expansion_mode=literal; undefined per-cell Fieller interval",
        )

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

    def test_zero_width_cell_without_overhang_adds_no_expansion(self):
        cells = [self.cell(40, 1.0, 0.0), self.cell(60, 1.2, 0.1)]
        combined = _interval(0.9, 1.3, estimate=1.1, n=100)
        out = heuristic_expanded_ci(cells, combined, 1.1, EXPAND_FROM_MEAN)
        assert (out.lower, out.upper) == (pytest.approx(0.9), pytest.approx(1.3))

    def test_zero_width_cell_with_overhang_flags_result(self):
        cells = [self.cell(40, 1.0, 0.0, fieller_extra_up=0.1), self.cell(60, 1.2, 0.1)]
        out = heuristic_expanded_ci(cells, _interval(0.9, 1.3, estimate=1.1, n=100), 1.1)
        assert not out.defined
        assert out.note == "expansion_mode=literal; degenerate per-cell normal interval"

    def test_inverted_limits_flag_result(self):
        # The cell's Fieller limits sit above its lopsided normal limits: the
        # lower side contracts by 6 half-widths, the upper widens by 0.5.
        cell = (
            30, _interval(0.99, 2.0, estimate=1.0), _interval(1.05, 2.5, method=FIELLER), 1.0
        )
        out = heuristic_expanded_ci([cell], _interval(0.9, 1.1, estimate=1.0, n=30), 1.0)
        assert not out.defined
        assert out.note == "expansion_mode=literal; expansion produced inverted limits"


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


def zero_cited_result(arm: str, continuity: bool) -> IntervalEstimate:
    """Either ratio interval's flagged result when ``arm`` is (0, 100), the other (5, 100)."""
    return IntervalEstimate(
        0.0 if arm == "group" else None, None, None, 0.05, RISK_RATIO, defined=False, n=200,
        note=f"continuity={'on' if continuity else 'off'}; zero {arm} cited count",
    )


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
            assert ci == zero_cited_result("group", continuity)

    def test_zero_world_cited_undefined(self):
        assert risk_ratio_ci((5, 100), (0, 100)) == zero_cited_result("world", False)

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


    def test_zero_cited_counts_undefined(self):
        for continuity in (False, True):
            ci = mnpc_field_ci((0, 100), (5, 100), continuity=continuity)
            assert ci == zero_cited_result("group", continuity)
        assert mnpc_field_ci((5, 100), (0, 100)) == zero_cited_result("world", False)


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
        assert out == IntervalEstimate(
            1.0, None, None, 0.05, MNPC_WEIGHTED, defined=False,
            note="undefined per-field ratio interval",
        )

    def test_weights_must_sum_to_one(self):
        _, ci = self.field(30, 100, 40, 100)
        with pytest.raises(ValueError, match="weights"):
            mnpc_combined_ci([(0.7, 1.0, ci)], mnpc=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: IntervalEstimate.undefined(NORMAL_T, 0.05, "").width,
     "undefined interval has no width"),
    (lambda: heuristic_expanded_ci([], _interval(0.8, 1.2, estimate=1.0), 1.0, "literall"),
     "unknown expansion mode 'literall'"),
    (lambda: heuristic_expanded_ci([], _interval(0.8, 1.2, estimate=1.0), 1.0),
     "no per-cell intervals supplied"),
    (lambda: risk_ratio_ci((0, 0), (5, 10)), "totals must be >= 1"),
    (lambda: mnpc_field_ci((5, 10), (0, 0)), "totals must be >= 1"),
    (lambda: mnpc_combined_ci([], 1.0), "no per-field intervals supplied"),
], ids=["width", "expansion-mode", "no-cells", "risk-ratio-total", "mnpc-field-total",
        "no-fields"])
def test_invalid_argument_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
