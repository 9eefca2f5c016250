"""Loading, validation, sampling and filtering of article-count data.

The unit of data is a cell: all articles of one group in one (field, year)
combination, stored as one tab-separated file named

    <group>__<field>__<year>.tsv

with a header row ``article_id<TAB>count``.  The group label ``WORLD`` is
reserved for the reference set; every (field, year) present for any group
must also have a WORLD cell, otherwise normalisation is impossible.

Each ArticleSet caches one CellSummary of its counts, the statistics every
indicator and analytic interval is computed from; CellReplicates holds the
same statistics over the bootstrap replicates of a cell.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

WORLD = "WORLD"

_NAME_SEP = "__"
_HEADER = "article_id\tcount"


class CorpusError(ValueError):
    """Raised for malformed cell files or inconsistent cell collections."""


@dataclass(frozen=True, order=True)
class FieldYearKey:
    """One field/year normalisation cell identifier."""

    field: str
    year: int

    def __post_init__(self) -> None:
        if not self.field.strip():
            raise ValueError("field label must be non-empty")
        if not 1000 <= self.year <= 9999:
            raise ValueError(f"year must be a 4-digit positive integer, got {self.year}")

    def __str__(self) -> str:
        return f"{self.field}/{self.year}"


@dataclass(frozen=True)
class ArticleSet:
    """Counts (one per article) for a single (group, field, year) cell."""

    group: str
    key: FieldYearKey
    counts: tuple[int, ...]
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.counts) < 1:
            raise ValueError(f"cell {self.group}/{self.key} is empty")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"cell {self.group}/{self.key} contains a negative count")
        if self.ids is not None and len(self.ids) != len(self.counts):
            raise ValueError(f"cell {self.group}/{self.key}: ids and counts differ in length")

    def __len__(self) -> int:
        return len(self.counts)

    def counts_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    @cached_property
    def summary(self) -> "CellSummary":
        """The cell's statistics, computed once."""
        counts = np.sort(self.counts_array())
        return CellSummary(counts, np.log1p(counts), int(np.searchsorted(counts, 0, side="right")))


class CellSummary:
    """n, cited (count > 0), and the mean and M2 of c and of ln(1+c) for one cell.

    M2 is the sum of squared deviations from the mean.  A summary holds the
    cell's counts in ascending order, their precomputed ln(1+c) values and
    the position of the first count above zero; each mean and M2 is
    computed the first time it is read.
    """

    def __init__(self, counts: np.ndarray, logs: np.ndarray, first_cited: int) -> None:
        self._counts, self._logs, self._first_cited = counts, logs, first_cited
        self.n = len(counts)
        self.cited = self.n - first_cited

    @cached_property
    def raw_mean(self) -> float:
        return float(self._counts.mean())

    @cached_property
    def raw_m2(self) -> float:
        return float(np.sum((self._counts - self.raw_mean) ** 2))

    @cached_property
    def log_mean(self) -> float:
        return float(self._logs.mean())

    @cached_property
    def log_m2(self) -> float:
        return float(np.sum((self._logs - self.log_mean) ** 2))

    @property
    def log_sd(self) -> float | None:
        """Sample sd of ln(1+c); None for a single article."""
        return math.sqrt(self.log_m2 / (self.n - 1)) if self.n > 1 else None


class CellReplicates:
    """One cell's statistics over R bootstrap replicates, as length-R arrays.

    Only the statistics named in ``stats`` (of ``cited``, ``raw_mean``,
    ``log_mean`` and ``log_m2``) are kept; the others are None.
    ``record(r, idx)`` sets entry r from the articles at positions ``idx`` of
    the cell's sorted counts, in draw order: cited as ``idx >= first cited
    position``, means as sums divided by n (bit-identical to
    ``ndarray.mean``), M2 as the sum of squared deviations from that mean.
    """

    def __init__(self, cell: CellSummary, stats: Iterable[str], replicates: int) -> None:
        stats = set(stats)
        if "log_m2" in stats:
            stats.add("log_mean")
        self._cell = cell
        self.n = cell.n
        self.cited = np.empty(replicates, np.int64) if "cited" in stats else None
        self.raw_mean, self.log_mean, self.log_m2 = (
            np.empty(replicates) if name in stats else None
            for name in ("raw_mean", "log_mean", "log_m2")
        )

    def record(self, r: int, idx: np.ndarray) -> None:
        cell, n = self._cell, self.n
        if self.cited is not None:
            self.cited[r] = np.count_nonzero(idx >= cell._first_cited)
        if self.raw_mean is not None:
            self.raw_mean[r] = np.add.reduce(cell._counts[idx], dtype=np.float64) / n
        if self.log_mean is not None:
            logs = cell._logs[idx]
            mean = np.add.reduce(logs) / n
            self.log_mean[r] = mean
            if self.log_m2 is not None:
                self.log_m2[r] = np.add.reduce((logs - mean) ** 2)

    @property
    def log_sd(self) -> np.ndarray | None:
        """Sample sd of ln(1+c) per replicate; None for a single article."""
        return np.sqrt(self.log_m2 / (self.n - 1)) if self.n > 1 else None


@dataclass(frozen=True)
class SampleSpec:
    """Target size and seed for down-sampling a cell."""

    size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("sample size must be >= 1")


@dataclass(frozen=True)
class ExclusionPolicy:
    """Floors below which a group's cells are dropped from equalised indicators."""

    min_articles: int = 100
    min_fraction_of_mean: float = 0.25

    def __post_init__(self) -> None:
        if self.min_articles < 1:
            raise ValueError("min_articles must be >= 1")
        if not 0.0 <= self.min_fraction_of_mean <= 1.0:
            raise ValueError("min_fraction_of_mean must lie in [0, 1]")


@dataclass(frozen=True)
class Corpus:
    """All group and WORLD cells of one evaluation, keyed by (group, key)."""

    cells: Mapping[tuple[str, FieldYearKey], ArticleSet] = dataclass_field(default_factory=dict)

    @classmethod
    def from_cells(cls, sets: Iterable[ArticleSet]) -> "Corpus":
        cells: dict[tuple[str, FieldYearKey], ArticleSet] = {}
        for aset in sets:
            ck = (aset.group, aset.key)
            if ck in cells:
                raise CorpusError(f"duplicate cell for {aset.group}/{aset.key}")
            cells[ck] = aset
        corpus = cls(cells)
        corpus.validate()
        return corpus

    def validate(self) -> None:
        world_keys = {k for (g, k) in self.cells if g == WORLD}
        for group, key in self.cells:
            if group != WORLD and key not in world_keys:
                raise CorpusError(f"missing world cell for {group}/{key}")

    @property
    def groups(self) -> set[str]:
        return {g for (g, _) in self.cells if g != WORLD}

    @property
    def keys(self) -> set[FieldYearKey]:
        return {k for (_, k) in self.cells}

    def cell(self, group: str, key: FieldYearKey) -> ArticleSet:
        return self.cells[(group, key)]

    def world(self, key: FieldYearKey) -> ArticleSet:
        return self.cells[(WORLD, key)]

    def keys_for(self, group: str) -> set[FieldYearKey]:
        if group != WORLD and group not in self.groups:
            raise KeyError(f"unknown group {group!r}")
        return {k for (g, k) in self.cells if g == group}


def cell_filename(group: str, key: FieldYearKey) -> str:
    for label in (group, key.field):
        if _NAME_SEP in label:
            raise CorpusError(f"label {label!r} may not contain {_NAME_SEP!r}")
    return f"{group}{_NAME_SEP}{key.field}{_NAME_SEP}{key.year}.tsv"


def _parse_filename(path: Path) -> tuple[str, FieldYearKey]:
    parts = path.stem.split(_NAME_SEP)
    if len(parts) != 3 or not all(parts):
        raise CorpusError(f"{path.name}: malformed cell filename")
    group, field, year_text = parts
    try:
        year = int(year_text)
    except ValueError:
        raise CorpusError(f"{path.name}: year {year_text!r} is not an integer") from None
    try:
        return group, FieldYearKey(field, year)
    except ValueError as exc:
        raise CorpusError(f"{path.name}: {exc}") from None


def read_cell(path: Path) -> ArticleSet:
    """Parse one cell file; errors name the file and offending line."""
    path = Path(path)
    group, key = _parse_filename(path)
    counts: list[int] = []
    ids: list[str] = []
    with open(path, encoding="utf-8", newline=None) as fh:
        header = fh.readline().rstrip("\n")
        if header != _HEADER:
            bom = " (the file starts with a UTF-8 BOM)" if header.startswith("\ufeff") else ""
            raise CorpusError(f"{path.name}:1: expected header {_HEADER!r}, got {header!r}{bom}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            article_id, sep, count_text = line.partition("\t")
            if not sep:
                raise CorpusError(f"{path.name}:{lineno}: expected two tab-separated columns")
            digits = count_text.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise CorpusError(
                    f"{path.name}:{lineno}: count {count_text!r} is not an integer"
                    " (ASCII digits 0-9 only)"
                )
            if digits != count_text:
                raise CorpusError(f"{path.name}:{lineno}: negative count {count_text}")
            counts.append(int(digits))
            ids.append(article_id)
    if not counts:
        raise CorpusError(f"{path.name}: cell contains no articles")
    has_ids = any(ids)
    return ArticleSet(group, key, tuple(counts), tuple(ids) if has_ids else None)


def load_corpus(directory: Path | str) -> Corpus:
    """Load every ``*.tsv`` cell file under ``directory`` into a Corpus."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.tsv"))
    if not paths:
        raise CorpusError(f"no cell files (*.tsv) found in {directory}")
    return Corpus.from_cells(read_cell(p) for p in paths)


def write_cell(aset: ArticleSet, directory: Path | str) -> Path:
    """Write one cell in the load_corpus file format (UTF-8, LF)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / cell_filename(aset.group, aset.key)
    ids = aset.ids if aset.ids is not None else [""] * len(aset.counts)
    lines = [_HEADER]
    lines.extend(f"{i}\t{c}" for i, c in zip(ids, aset.counts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_corpus(corpus: Corpus, directory: Path | str) -> None:
    for _, aset in sorted(corpus.cells.items()):
        write_cell(aset, directory)


def derive_cell_seed(master_seed: int, group: str, key: FieldYearKey) -> int:
    """Stable per-cell seed so multi-cell runs are order-independent."""
    digest = hashlib.blake2b(
        f"{master_seed}|{group}|{key.field}|{key.year}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def sample_cell(aset: ArticleSet, spec: SampleSpec) -> ArticleSet:
    """Uniform sample without replacement of spec.size articles.

    Cells already at or below the target size are returned unchanged.
    The relative article order of the input is preserved.
    """
    n = len(aset.counts)
    if spec.size >= n:
        return aset
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed & (2**64 - 1)))
    idx = np.sort(rng.choice(n, size=spec.size, replace=False))
    counts = tuple(aset.counts[i] for i in idx)
    ids = tuple(aset.ids[i] for i in idx) if aset.ids is not None else None
    return ArticleSet(aset.group, aset.key, counts, ids)


def apply_exclusion(corpus: Corpus, group: str, policy: ExclusionPolicy) -> set[FieldYearKey]:
    """Keys of ``group`` surviving the small-cell floors.

    A key is retained iff its cell holds at least ``min_articles`` articles
    and at least ``min_fraction_of_mean`` times the group's mean cell size.
    The mean is taken over all the group's cells before any exclusion.
    """
    keys = corpus.keys_for(group)
    sizes = {k: len(corpus.cell(group, k)) for k in keys}
    mean_size = sum(sizes.values()) / len(sizes)
    floor = policy.min_fraction_of_mean * mean_size
    return {k for k, n in sizes.items() if n >= policy.min_articles and n >= floor}
