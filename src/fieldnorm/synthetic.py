"""Synthetic count data with known population parameters.

Counts follow a discretised lognormal: draw x ~ Normal(mu, sigma) and emit
c = max(0, round(exp(x) - 1)), so that ln(1+c) stays approximately normal.
An optional extra probability mass at zero mimics sparse web indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .corpus import WORLD, ArticleSet, Corpus, FieldYearKey


@dataclass(frozen=True)
class LognormalSpec:
    mu: float
    sigma: float
    zero_inflation: float = 0.0
    n: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.zero_inflation < 1.0:
            raise ValueError("zero_inflation must lie in [0, 1)")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def generate_cell(spec: LognormalSpec, key: FieldYearKey, group: str) -> ArticleSet:
    """One cell of spec.n seeded draws; identical spec gives identical output."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed & (2**64 - 1)))
    x = rng.normal(spec.mu, spec.sigma, spec.n)
    with np.errstate(over="ignore"):
        counts = np.clip(np.rint(np.expm1(x)), 0, None)
    # Every float below 2**63 fits in int64; NaN cannot occur for finite mu and sigma.
    if counts.max() >= 2.0**63:
        raise ValueError(f"{spec} draws a count above 2**63 - 1")
    counts = counts.astype(np.int64)
    if spec.zero_inflation > 0.0:
        counts[rng.random(spec.n) < spec.zero_inflation] = 0
    return ArticleSet(group, key, counts)


# The one publication year of every scenario; the golden file names carry it.
_SCENARIO_YEAR = 2000
# One group, unshifted from the world, unless a grid names its shifts.
GROUP_SHIFTS_DEFAULT = (0.0,)


def scenario_label(mu: float, sigma: float, zero_inflation: float, n: int) -> str:
    return f"mu{mu:g}-sg{sigma:g}-zi{zero_inflation:g}-n{n}"


def _coordinate_seed(base_seed: int, *coords: int) -> int:
    ss = np.random.SeedSequence([base_seed & (2**64 - 1), *coords])
    return int(ss.generate_state(1, np.uint64)[0])


def scenario_grid(
    mus: Sequence[float],
    sigmas: Sequence[float],
    zero_inflations: Sequence[float],
    ns: Sequence[int],
    group_shifts: Sequence[float] = GROUP_SHIFTS_DEFAULT,
    base_seed: int = 0,
) -> list[Corpus]:
    """Cartesian product of parameter axes, one single-cell Corpus each.

    Every scenario holds a WORLD cell at the grid mu plus one group cell
    per entry of ``group_shifts``, generated at mu + shift (an additive
    shift of the log-scale location, hence multiplicative on 1 + c).
    Cell seeds derive from the grid coordinates, so any sub-grid of a
    larger grid reproduces the same corpora.
    """
    if not (mus and sigmas and zero_inflations and ns):
        raise ValueError("every parameter axis must be non-empty")
    corpora = []
    axes = product(enumerate(mus), enumerate(sigmas), enumerate(zero_inflations), enumerate(ns))
    for (i, mu), (j, sigma), (k, zi), (m, n) in axes:
        key = FieldYearKey(scenario_label(mu, sigma, zi, n), _SCENARIO_YEAR)
        cells = [
            generate_cell(
                LognormalSpec(mu, sigma, zi, n, seed=_coordinate_seed(base_seed, i, j, k, m, 0)),
                key,
                WORLD,
            )
        ]
        for g, shift in enumerate(group_shifts, start=1):
            spec = LognormalSpec(
                mu + shift, sigma, zi, n, seed=_coordinate_seed(base_seed, i, j, k, m, g)
            )
            cells.append(generate_cell(spec, key, f"G{g}"))
        corpora.append(Corpus.from_cells(cells))
    return corpora
