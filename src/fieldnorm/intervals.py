"""Analytic confidence limits for the normalised indicators.

Methods implemented:

* NORMAL_T             t-based limits on a mean of normalised scores
* FIELLER              ratio-of-normal-means limits for a single cell
* HEURISTIC_EXPANSION  multi-cell widening of the combined normal limits by
                       the size-weighted average normal-to-Fieller expansion
* WILSON               score interval for a binomial proportion
* RISK_RATIO           log-scale limits for a ratio of two proportions,
                       with an optional 0.5 continuity correction applied
                       inside the radical only
* MNPC_WEIGHTED        size-weighted combination of per-cell ratio limits

The Fieller limits bracket estimate/(1-h) rather than the raw estimate; h is
the squared relative uncertainty of the denominator and the interval is
undefined once h reaches 1.

A result the data leave undefined is flagged, not raised, and is always
built by ``IntervalEstimate.undefined``: no limits, ``defined`` false and
the reason in ``note``.  Invalid arguments still raise ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .student_t import t_quantile

NORMAL_T = "NORMAL_T"
FIELLER = "FIELLER"
HEURISTIC_EXPANSION = "HEURISTIC_EXPANSION"
WILSON = "WILSON"
RISK_RATIO = "RISK_RATIO"
MNPC_WEIGHTED = "MNPC_WEIGHTED"
BOOTSTRAP_PERCENTILE = "BOOTSTRAP_PERCENTILE"

LITERAL = "literal"
EXPAND_FROM_MEAN = "expand_from_mean"
EXPANSION_MODES = (LITERAL, EXPAND_FROM_MEAN)
EXPANSION_DEFAULT = LITERAL

TOO_FEW_VALUES = "at least two values are needed for a sample sd"


@dataclass(frozen=True)
class SampleMoments:
    """Mean, sample sd and standard error of one set of (transformed) values."""

    mean: float
    sd: float
    se: float
    n: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SampleMoments":
        values = np.asarray(values, dtype=float)
        n = len(values)
        if n < 2:
            raise ValueError(TOO_FEW_VALUES)
        mean = float(values.mean())
        return cls.from_m2(n, mean, float(np.square(values - mean).sum()))

    @classmethod
    def from_m2(cls, n: int, mean: float, m2: float) -> "SampleMoments":
        """From the size, mean and sum of squared deviations of the values."""
        if n < 2:
            raise ValueError(TOO_FEW_VALUES)
        sd = math.sqrt(m2 / (n - 1))
        return cls(mean=mean, sd=sd, se=sd / math.sqrt(n), n=n)


@dataclass(frozen=True)
class IntervalEstimate:
    estimate: float | None
    lower: float | None
    upper: float | None
    alpha: float
    method: str
    defined: bool = True
    h: float | None = None
    n: int | None = None
    note: str = ""

    @classmethod
    def undefined(
        cls,
        method: str,
        alpha: float,
        note: str,
        estimate: float | None = None,
        n: int | None = None,
        h: float | None = None,
    ) -> "IntervalEstimate":
        """A flagged result: no limits, with the reason it has none in ``note``."""
        return cls(estimate, None, None, alpha, method, defined=False, h=h, n=n, note=note)

    @property
    def width(self) -> float:
        if not self.defined:
            raise ValueError("undefined interval has no width")
        return self.upper - self.lower


# The level of every interval a caller leaves unset: 95% two-sided.
ALPHA_DEFAULT = 0.05


def check_alpha(alpha: float) -> None:
    """Reject a report or comparison level outside (0, 0.5).

    Above 0.5 a two-sided interval no longer contains its point estimate.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")


def check_expansion(mode: str) -> None:
    if mode not in EXPANSION_MODES:
        raise ValueError(f"unknown expansion mode {mode!r}")


# The critical values are cached per (df, alpha): a report asks for the same
# few many times.  Both invert p = 1 - alpha/2 as rounded.  z is Wichura's
# AS241 (``NormalDist.inv_cdf``).  t is ``student_t.t_quantile``: Halley steps
# from Hill's start (CACM Algorithm 396) on the Student-t tail, a regularised
# incomplete beta taken from its continued fraction (Numerical Recipes 6.4)
# or, for df >= 20, from its expansion for large df/2 (DiDonato and Morris
# 1992); df = 1 and 2 have closed forms.  tests/test_intervals.py holds t
# within 1e-14 relative of 30-digit references (df 1 to 10^7, alpha 1e-6 to
# 0.9) and of scipy (alpha down to 1e-12); the largest error measured against
# the references on a dense grid is 8.6 ulp (2e-15).


@functools.lru_cache(maxsize=1024)
def t_critical(df: int, alpha: float) -> float:
    """Two-tailed Student-t critical value."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return float(t_quantile(df, 1.0 - alpha / 2.0))


@functools.lru_cache(maxsize=1024)
def z_critical(alpha: float) -> float:
    """Two-tailed standard-normal critical value."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p = 1.0 - alpha / 2.0
    return math.inf if p == 1.0 else NormalDist().inv_cdf(p)


def mnlcs_normal_ci(values: np.ndarray, alpha: float = ALPHA_DEFAULT) -> IntervalEstimate:
    """t-based limits for the mean of concatenated normalised scores."""
    return normal_t_ci(SampleMoments.from_values(values), alpha)


def normal_t_ci(moments: SampleMoments, alpha: float = ALPHA_DEFAULT) -> IntervalEstimate:
    """t-based limits for a mean, from the moments of its values."""
    half = t_critical(moments.n - 1, alpha) * moments.se
    return IntervalEstimate(
        estimate=moments.mean,
        lower=moments.mean - half,
        upper=moments.mean + half,
        alpha=alpha,
        method=NORMAL_T,
        n=moments.n,
    )


def fieller_ci(
    group: SampleMoments, world: SampleMoments, alpha: float = ALPHA_DEFAULT
) -> IntervalEstimate:
    """Ratio-of-means limits from the moments of the log-transformed values.

    Undefined once h = (t * SE_w / world mean)^2 reaches 1; the limits then
    degenerate.  The group variance term is evaluated as SE_g^2 / world
    mean^2, which equals the textbook (estimate * SE_g / group mean)^2 form
    but stays finite for an all-zero group cell.
    """
    if world.mean <= 0.0:
        raise ValueError("world mean must be positive for a ratio interval")
    df = group.n + world.n - 2
    t = t_critical(df, alpha)
    estimate = group.mean / world.mean
    h = (t * world.se / world.mean) ** 2
    if h >= 1.0:
        return IntervalEstimate.undefined(
            FIELLER, alpha, "denominator uncertainty too large (h >= 1)",
            estimate, group.n + world.n, h,
        )
    centre = estimate / (1.0 - h)
    se_ratio = (
        math.sqrt((1.0 - h) * group.se**2 + estimate**2 * world.se**2) / world.mean
    ) / (1.0 - h)
    half = t * se_ratio
    return IntervalEstimate(
        estimate=estimate,
        lower=centre - half,
        upper=centre + half,
        alpha=alpha,
        method=FIELLER,
        h=h,
        n=group.n + world.n,
    )


def heuristic_expanded_ci(
    per_cell: Sequence[tuple[int, IntervalEstimate, IntervalEstimate, float]],
    combined: IntervalEstimate,
    combined_mean: float,
    mode: str = EXPANSION_DEFAULT,
) -> IntervalEstimate:
    """Widen the combined normal limits by the average per-cell expansion.

    ``per_cell`` holds (cell size, normal interval, Fieller interval, cell
    mean) for each cell.  Each side's expansion rate is the size-weighted
    average of (Fieller overhang / normal half width) for that side.

    In ``literal`` mode the expanded limit sits (rate + 1) half-widths
    beyond the existing combined limit, so a zero rate still doubles the
    interval.  In ``expand_from_mean`` mode the same offset is measured
    from the combined mean, reducing to the plain normal limits at rate 0
    and recovering the cell's Fieller interval for a single cell.
    """
    check_expansion(mode)
    if not per_cell:
        raise ValueError("no per-cell intervals supplied")
    note = f"expansion_mode={mode}"
    alpha = combined.alpha

    def undefined(reason: str) -> IntervalEstimate:
        return IntervalEstimate.undefined(
            HEURISTIC_EXPANSION, alpha, f"{note}; {reason}", combined_mean
        )

    if any(not fieller.defined for _, _, fieller, _ in per_cell):
        return undefined("undefined per-cell Fieller interval")
    n = sum(size for size, _, _, _ in per_cell)
    if combined.n is not None and combined.n != n:
        raise ValueError("per-cell sizes do not sum to the combined sample size")
    lower_rate = 0.0
    upper_rate = 0.0
    for size, normal, fieller, cell_mean in per_cell:
        lower_half = cell_mean - normal.lower
        upper_half = normal.upper - cell_mean
        lower_over = normal.lower - fieller.lower
        upper_over = fieller.upper - normal.upper
        if lower_half <= 0.0 or upper_half <= 0.0:
            # Zero-width cell interval: only consistent with a zero overhang.
            if abs(lower_over) > 0.0 or abs(upper_over) > 0.0:
                return undefined("degenerate per-cell normal interval")
            continue
        lower_rate += size * lower_over / lower_half
        upper_rate += size * upper_over / upper_half
    lower_rate /= n
    upper_rate /= n
    lower_anchor = combined.lower if mode == LITERAL else combined_mean
    upper_anchor = combined.upper if mode == LITERAL else combined_mean
    lower = lower_anchor - (lower_rate + 1.0) * (combined_mean - combined.lower)
    upper = upper_anchor + (upper_rate + 1.0) * (combined.upper - combined_mean)
    if lower > upper:
        # Possible when a near-degenerate cell Fieller interval sits beyond
        # the cell's normal limits; an inverted interval is meaningless.
        return undefined("expansion produced inverted limits")
    return IntervalEstimate(
        estimate=combined_mean,
        lower=lower,
        upper=upper,
        alpha=alpha,
        method=HEURISTIC_EXPANSION,
        n=n,
        note=note,
    )


def wilson_ci(cited: float, total: float, alpha: float = ALPHA_DEFAULT) -> IntervalEstimate:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if total < 1 or not 0 <= cited <= total:
        raise ValueError(f"invalid counts {cited}/{total}")
    z = z_critical(alpha)
    p = cited / total
    z2 = z * z
    denom = 1.0 + z2 / total
    centre = (p + z2 / (2.0 * total)) / denom
    margin = z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # At the boundaries the exact limit is the proportion itself; pin it so
    # rounding residue cannot push it a few ulp off.
    lower = 0.0 if p == 0.0 else max(0.0, centre - margin)
    upper = 1.0 if p == 1.0 else min(1.0, centre + margin)
    return IntervalEstimate(
        estimate=p,
        lower=lower,
        upper=upper,
        alpha=alpha,
        method=WILSON,
        n=int(total),
    )


def _ratio_arm(cited: float, total: float, continuity: bool) -> float:
    """One arm's (uncited/cited) variance term, continuity-corrected if asked.

    With the correction the cited count is raised by 0.5 inside the term
    only; the uncited complement is floored at zero so a fully-cited arm
    cannot push the radicand negative.
    """
    cited_c = cited + 0.5 if continuity else cited
    return max(total - cited_c, 0.0) / cited_c


def _log_ratio_ci(
    group: tuple[float, float],
    world: tuple[float, float],
    alpha: float,
    continuity: bool,
    radicand: Callable[[float, float], float],
) -> IntervalEstimate:
    """Log-scale limits for a ratio of proportions of (cited, total) arms.

    ``radicand`` maps the group's and the world's ``_ratio_arm`` terms to
    the variance of the log ratio.  The centre is always the uncorrected
    log ratio, so a zero cited count on either side leaves the interval
    undefined whatever the continuity setting.
    """
    (g_cited, g_total), (w_cited, w_total) = group, world
    if g_total < 1 or w_total < 1:
        raise ValueError("totals must be >= 1")
    n = int(g_total + w_total)
    note = f"continuity={'on' if continuity else 'off'}"
    if w_cited <= 0:
        return IntervalEstimate.undefined(RISK_RATIO, alpha, note + "; zero world cited count", n=n)
    estimate = (g_cited / g_total) / (w_cited / w_total)
    if g_cited <= 0:
        return IntervalEstimate.undefined(
            RISK_RATIO, alpha, note + "; zero group cited count", estimate, n
        )
    variance = radicand(
        _ratio_arm(g_cited, g_total, continuity), _ratio_arm(w_cited, w_total, continuity)
    )
    half = z_critical(alpha) * math.sqrt(variance)
    log_est = math.log(estimate)
    return IntervalEstimate(
        estimate=estimate,
        lower=math.exp(log_est - half),
        upper=math.exp(log_est + half),
        alpha=alpha,
        method=RISK_RATIO,
        n=n,
        note=note,
    )


def risk_ratio_ci(
    group: tuple[float, float],
    world: tuple[float, float],
    alpha: float = ALPHA_DEFAULT,
    continuity: bool = False,
) -> IntervalEstimate:
    """Log-scale limits for a ratio of proportions, one variance term per arm.

    Each arm contributes (n - pn)/(pn)/n inside the radical.
    """
    return _log_ratio_ci(
        group, world, alpha, continuity, lambda g, w: g / group[1] + w / world[1]
    )


def mnpc_field_ci(
    group: tuple[float, float],
    world: tuple[float, float],
    alpha: float = ALPHA_DEFAULT,
    continuity: bool = False,
) -> IntervalEstimate:
    """Per-cell ratio limits with both variance terms over the pooled size.

    Differs from risk_ratio_ci in dividing the summed (uncited/cited) terms
    by the pooled n_g + n_w rather than each by its own arm size.  No source
    is cited for this pooled divisor.  A world cell much larger than the
    group's shrinks the group's term: simulated coverage at nominal 95% was
    0.60-0.62 for one cell of 650 against a world of 5,000.
    """
    return _log_ratio_ci(
        group, world, alpha, continuity, lambda g, w: (g + w) / (group[1] + world[1])
    )


def mnpc_combined_ci(
    per_field: Sequence[tuple[float, float, IntervalEstimate]],
    mnpc: float,
) -> IntervalEstimate:
    """Weighted sum of per-cell ratio limits around the MNPC point estimate.

    ``per_field`` holds (weight, cell ratio, cell interval) triples whose
    weights must sum to 1.  Any undefined cell interval makes the combined
    interval undefined.
    """
    if not per_field:
        raise ValueError("no per-field intervals supplied")
    weights = [w for w, _, _ in per_field]
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")
    alpha = per_field[0][2].alpha
    if any(not interval.defined for _, _, interval in per_field):
        return IntervalEstimate.undefined(
            MNPC_WEIGHTED, alpha, "undefined per-field ratio interval", mnpc
        )
    lower = mnpc - sum(w * (ratio - ci.lower) for w, ratio, ci in per_field)
    upper = mnpc + sum(w * (ci.upper - ratio) for w, ratio, ci in per_field)
    return IntervalEstimate(
        estimate=mnpc, lower=lower, upper=upper, alpha=alpha, method=MNPC_WEIGHTED
    )
