"""Percentile bootstrap intervals and formula-vs-bootstrap comparisons.

Replicates resample every group cell with replacement at its original size;
when ``resample_world`` is set the world cells are resampled too.  Replicate
r draws from an independent substream derived from (seed, r), so results do
not depend on execution order, and the draws index each cell's counts in
ascending order, so results do not depend on the input article order either.

Seeding.  Replicate r's generator is ``default_rng(SeedSequence([seed, r]))``
and draws ``integers(0, n, n)`` for each group cell in sorted key order,
then for each world cell.  ``seed_words`` computes the SeedSequence output
of all R replicates in one pass over uint32 lanes, and ``pcg64_state`` turns
each into the PCG64 state that generator starts from, so one reused
``Generator(PCG64())`` is re-seeded per replicate through its
``bit_generator.state``, with the same draws.

Evaluation.  Each cell keeps only the statistics its indicator reads
(``indicators.CELL_STATISTICS``) as ``CellReplicates`` arrays with one entry
per replicate, filled from the index draws.  The kernel that computes every
point estimate, ``indicators.indicator_estimate``, then evaluates all R
replicates at once; undefined replicates come back as NaN and are counted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import ArticleSet, CellReplicates, CellSummary, Corpus, FieldYearKey
from .indicators import (
    CELL_STATISTICS,
    PROPORTION_INDICATORS,
    UndefinedNormalizationError,
    indicator_estimate,
)
from .intervals import BOOTSTRAP_PERCENTILE, IntervalEstimate
from .scopes import formula_interval, indicator_value

# NumPy's SeedSequence (numpy/random/bit_generator.pyx) and the PCG64
# seeding step pcg_setseq_128_srandom_r (numpy/random/src/pcg64), restated.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seed: int, replicates: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for each r, as rows.

    ``seed`` lies in [0, 2**64) and ``replicates`` is a uint64 array.  The
    entropy is then at most four 32-bit words, the pool size: the seed's
    words, low word first, then r's.  The pool treats missing words as
    zeros, so r's high word can always be included, zero or not.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    replicates = np.asarray(replicates, dtype=np.uint64)
    u32 = np.uint32
    seed_lanes = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(len(replicates), w, dtype=u32) for w in seed_lanes]
    entropy.append((replicates & np.uint64(_MASK32)).astype(u32))
    entropy.append((replicates >> np.uint64(32)).astype(u32))
    entropy += [np.zeros(len(replicates), dtype=u32)] * (4 - len(entropy))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = u32(_MIX_MULT_L) * pool[dst] - u32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state.append((value ^ (value >> u32(16))).astype(np.uint64))
    return np.stack([state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)], axis=1)


def pcg64_state(words: Sequence[int]) -> dict:
    """The ``bit_generator.state`` of a PCG64 seeded with four seed words.

    ``words`` is a row of ``seed_words(...).tolist()``, as Python ints.
    """
    s_high, s_low, i_high, i_low = words
    inc = (i_high << 65 | i_low << 1 | 1) & _MASK128
    state = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True)
class BootstrapSpec:
    iterations: int = 1000
    seed: int = 0
    resample_world: bool = True
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations < 100:
            raise ValueError("at least 100 bootstrap iterations are required")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class CiComparison:
    """Signed per-side half-width differences, positive = formula narrower."""

    lower_pct_diff: float
    upper_pct_diff: float
    basis: float


def percentile(sorted_replicates: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: element ceil(q*N) of the ascending list."""
    n = len(sorted_replicates)
    if n == 0:
        raise ValueError("no replicates")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    rank = min(max(math.ceil(q * n) - 1, 0), n - 1)
    return sorted_replicates[rank]


def replicate_values(
    keys: Sequence[FieldYearKey],
    group_cells: Sequence[CellSummary],
    world_cells: Sequence[CellSummary],
    indicator: str,
    spec: BootstrapSpec,
) -> np.ndarray:
    """``indicator`` on each of the ``spec.iterations`` replicates, NaN where undefined.

    ``group_cells[i]`` and ``world_cells[i]`` summarise the cells of
    ``keys[i]``, in sorted key order.
    """
    group_stats, world_stats = CELL_STATISTICS[indicator]
    rep_group = [CellReplicates(c, group_stats, spec.iterations) for c in group_cells]
    rep_world = world_cells
    drawn = rep_group
    # World draws come after every group draw, so they are skipped, not
    # shifted, when the indicator reads nothing from the world cells.
    if spec.resample_world and world_stats:
        rep_world = [CellReplicates(c, world_stats, spec.iterations) for c in world_cells]
        drawn = rep_group + rep_world
    bit_generator = np.random.PCG64(0)
    integers = np.random.Generator(bit_generator).integers
    words = seed_words(spec.seed & (2**64 - 1), np.arange(spec.iterations, dtype=np.uint64))
    for r, row in enumerate(words.tolist()):
        bit_generator.state = pcg64_state(row)
        for cell in drawn:
            cell.record(r, integers(0, cell.n, cell.n))
    return indicator_estimate(indicator, keys, rep_group, rep_world)[0]


def bootstrap_indicator(
    group_sets: Sequence[ArticleSet],
    world_sets: Sequence[ArticleSet],
    indicator: str,
    spec: BootstrapSpec,
) -> IntervalEstimate:
    """Percentile bootstrap interval for one indicator over one scope.

    Replicates where the indicator is undefined are excluded; once more
    than alpha/2 of all replicates are undefined the interval itself is
    flagged undefined.
    """
    group = {a.key: a.summary for a in group_sets}
    world = {a.key: a.summary for a in world_sets}
    if len(group) != len(group_sets) or len(world) != len(world_sets):
        raise ValueError("duplicate cell keys")
    missing = set(group) - set(world)
    if missing:
        raise ValueError(f"missing world cells for {sorted(missing)}")
    if indicator in PROPORTION_INDICATORS and set(world) != set(group):
        raise ValueError("group and world must cover the same cell keys")
    keys = sorted(group)
    group_cells = [group[k] for k in keys]
    world_cells = [world[k] for k in keys]
    try:
        original, _ = indicator_estimate(indicator, keys, group_cells, world_cells)
    except UndefinedNormalizationError:
        raise ValueError(f"{indicator} is undefined on the original data") from None

    replicates = replicate_values(keys, group_cells, world_cells, indicator, spec)
    undefined_mask = np.isnan(replicates)
    undefined = int(np.count_nonzero(undefined_mask))

    n_articles = sum(c.n for c in group_cells)
    note = f"resample_world={'true' if spec.resample_world else 'false'}"
    if undefined:
        note += f"; {undefined} undefined replicates excluded"
    if undefined > spec.alpha / 2.0 * spec.iterations:
        return IntervalEstimate(
            estimate=original, lower=None, upper=None, alpha=spec.alpha,
            method=BOOTSTRAP_PERCENTILE, defined=False, n=n_articles,
            note=note + "; undefined replicates exceed alpha/2",
        )
    # A stable sort, like list.sort, so that equal values keep their order.
    estimates = np.sort(replicates[~undefined_mask], kind="stable")
    return IntervalEstimate(
        estimate=original,
        lower=float(percentile(estimates, spec.alpha / 2.0)),
        upper=float(percentile(estimates, 1.0 - spec.alpha / 2.0)),
        alpha=spec.alpha,
        method=BOOTSTRAP_PERCENTILE,
        n=n_articles,
        note=note,
    )


def compare_ci(
    formula: IntervalEstimate,
    boot: IntervalEstimate,
    point: float,
    half_width_basis: bool = False,
) -> CiComparison:
    """Per-side half-width differences relative to the bootstrap width.

    Each side's difference is (bootstrap half - formula half); the default
    denominator is the full bootstrap width, so positive values mean the
    formula is narrower on that side.  ``half_width_basis`` divides each
    side by that side's bootstrap half width instead, as a sensitivity
    variant; ``basis`` always reports the full bootstrap width.
    """
    if not formula.defined or not boot.defined:
        raise ValueError("both intervals must be defined")
    if not (formula.lower <= point <= formula.upper and boot.lower <= point <= boot.upper):
        raise ValueError("point estimate must lie inside both intervals")
    width = boot.upper - boot.lower
    if width <= 0.0:
        raise ValueError("zero-width bootstrap interval")
    lower_diff = (point - boot.lower) - (point - formula.lower)
    upper_diff = (boot.upper - point) - (formula.upper - point)
    if half_width_basis:
        return CiComparison(
            lower_pct_diff=lower_diff / (point - boot.lower),
            upper_pct_diff=upper_diff / (boot.upper - point),
            basis=width,
        )
    return CiComparison(
        lower_pct_diff=lower_diff / width, upper_pct_diff=upper_diff / width, basis=width
    )


def derive_stream_seed(master_seed: int, *parts: str) -> int:
    """Stable per-run seed so concurrent runs stay order-independent."""
    text = f"{master_seed & (2**64 - 1)}|" + "|".join(parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class ComparisonRow:
    scenario: str
    group: str
    indicator: str
    lower_pct_diff: float | None
    upper_pct_diff: float | None
    defined: bool
    note: str = ""


@dataclass(frozen=True)
class ComparisonSummary:
    label: str
    cells: int
    gaps: int
    lower_mean: float | None
    upper_mean: float | None
    lower_abs_mean: float | None
    upper_abs_mean: float | None
    lower_max_abs: float | None
    upper_max_abs: float | None


def comparison_suite(
    scenarios: Sequence[Corpus],
    indicators: Sequence[str],
    spec: BootstrapSpec,
    continuity: str = "auto",
) -> list[ComparisonRow]:
    """Formula-vs-bootstrap comparison for every scenario, group and indicator.

    Undefined intervals (either route) become gap rows rather than errors.
    Each run draws from its own seed stream derived from the scenario
    label, group and indicator, so the table is independent of run order.
    """
    if not scenarios:
        raise ValueError("no scenarios supplied")
    rows: list[ComparisonRow] = []
    for corpus in scenarios:
        label = "+".join(sorted({k.field for k in corpus.keys}))
        for group in sorted(corpus.groups):
            keys = corpus.keys_for(group)
            group_sets = [corpus.cell(group, k) for k in sorted(keys)]
            world_sets = [corpus.world(k) for k in sorted(keys)]
            for indicator in indicators:
                point = indicator_value(corpus, group, keys, indicator)
                formula = formula_interval(corpus, group, keys, indicator, spec.alpha, continuity)
                if not point.defined or not formula.defined:
                    rows.append(
                        ComparisonRow(
                            label, group, indicator, None, None, False,
                            note=point.note or formula.note,
                        )
                    )
                    continue
                run_spec = replace(
                    spec, seed=derive_stream_seed(spec.seed, label, group, indicator)
                )
                boot = bootstrap_indicator(group_sets, world_sets, indicator, run_spec)
                try:
                    result = compare_ci(formula, boot, point.estimate)
                except ValueError as exc:
                    rows.append(ComparisonRow(label, group, indicator, None, None, False, str(exc)))
                    continue
                rows.append(
                    ComparisonRow(
                        label, group, indicator,
                        result.lower_pct_diff, result.upper_pct_diff, True,
                    )
                )
    return rows


def summarize_comparisons(rows: Sequence[ComparisonRow], key=None) -> list[ComparisonSummary]:
    """Signed average, absolute average and maximum per side, per label."""
    if key is None:
        key = lambda row: row.indicator
    by_label: dict[str, list[ComparisonRow]] = {}
    for row in rows:
        by_label.setdefault(key(row), []).append(row)
    summaries = []
    for label in sorted(by_label):
        group_rows = by_label[label]
        defined = [r for r in group_rows if r.defined]
        gaps = len(group_rows) - len(defined)
        if not defined:
            summaries.append(
                ComparisonSummary(label, len(group_rows), gaps, *([None] * 6))
            )
            continue
        lows = np.array([r.lower_pct_diff for r in defined])
        ups = np.array([r.upper_pct_diff for r in defined])
        summaries.append(
            ComparisonSummary(
                label=label,
                cells=len(group_rows),
                gaps=gaps,
                lower_mean=float(lows.mean()),
                upper_mean=float(ups.mean()),
                lower_abs_mean=float(np.abs(lows).mean()),
                upper_abs_mean=float(np.abs(ups).mean()),
                lower_max_abs=float(np.abs(lows).max()),
                upper_max_abs=float(np.abs(ups).max()),
            )
        )
    return summaries
