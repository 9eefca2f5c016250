"""Synthetic count data with known population parameters.

Counts follow a discretised lognormal: draw x ~ Normal(mu, sigma) and emit
c = max(0, round(exp(x) - 1)), so that ln(1+c) stays approximately normal.
An optional extra probability mass at zero mimics sparse web indicators.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .corpus import WORLD, ArticleSet, Corpus, FieldYearKey, check_integers, check_seed


@dataclass(frozen=True)
class LognormalSpec:
    mu: float = 1.0
    sigma: float = 1.0
    zero_inflation: float = 0.0
    n: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        check_integers(self, "lognormal", "n", "seed")
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
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
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
    return int(np.random.SeedSequence([base_seed, *coords]).generate_state(1, np.uint64)[0])


def scenario_grid(
    mus: Sequence[float] = (LognormalSpec.mu,),
    sigmas: Sequence[float] = (LognormalSpec.sigma,),
    zero_inflations: Sequence[float] = (LognormalSpec.zero_inflation,),
    ns: Sequence[int] = (LognormalSpec.n,),
    group_shifts: Sequence[float] = GROUP_SHIFTS_DEFAULT,
    base_seed: int = 0,
) -> list[Corpus]:
    """Cartesian product of parameter axes, one single-cell Corpus each.

    Every scenario holds a WORLD cell at the grid mu plus one group cell
    per entry of ``group_shifts``, generated at mu + shift (an additive
    shift of the log-scale location, hence multiplicative on 1 + c).
    Cell seeds derive from the grid coordinates and the member's index
    (0 for WORLD, g for G<g>), so any sub-grid of a larger grid reproduces
    the same corpora.  An axis left out holds one value,
    ``LognormalSpec``'s default, and none may be empty.  Grid points must
    differ in their labels, which print each value to 6 significant digits.
    ``base_seed`` is held by ``corpus.check_seed``.
    """
    if not (mus and sigmas and zero_inflations and ns and group_shifts):
        raise ValueError("every parameter axis must be non-empty")
    base_seed = check_seed(base_seed, "base_seed")
    labels = [scenario_label(*point) for point in product(mus, sigmas, zero_inflations, ns)]
    if shared := sorted(label for label, count in Counter(labels).items() if count > 1):
        raise ValueError(f"grid points share the scenario labels {shared}")
    corpora = []
    axes = product(enumerate(mus), enumerate(sigmas), enumerate(zero_inflations), enumerate(ns))
    for label, ((i, mu), (j, sigma), (k, zi), (m, n)) in zip(labels, axes):
        key = FieldYearKey(label, _SCENARIO_YEAR)
        members = [(WORLD, mu)] + [(f"G{g}", mu + shift) for g, shift in enumerate(group_shifts, 1)]
        corpora.append(Corpus.from_cells(
            generate_cell(LognormalSpec(loc, sigma, zi, n,
                                        seed=_coordinate_seed(base_seed, i, j, k, m, g)),
                          key, group)
            for g, (group, loc) in enumerate(members)
        ))
    return corpora
