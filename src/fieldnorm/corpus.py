"""Loading, validation, sampling and filtering of article-count data.

The unit of data is a cell: all articles of one group in one (field, year)
combination, stored as one tab-separated file named

    <group>__<field>__<year>.tsv

with a header row ``article_id<TAB>count``.  The group label ``WORLD`` is
reserved for the reference set; every (field, year) present for any group
must also have a WORLD cell, otherwise normalisation is impossible.

An ArticleSet is the one cell object from parse to kernel: it holds the
cell's counts as a read-only int64 array and computes, once, the statistics
every indicator and analytic interval is computed from; CellReplicates holds
the same statistics over the bootstrap replicates of a cell.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WORLD = "WORLD"

_NAME_SEP = "__"
_HEADER = "article_id\tcount"
_COUNT_MAX = 2**63 - 1  # counts are held as int64
# Count fields of up to 18 digits are converted in int64 without overflow
# (10**18 - 1 < 2**63 - 1); longer ones, say with leading zeros, by int().
_INT64_DIGITS = 18


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


@dataclass(frozen=True, eq=False)
class ArticleSet:
    """Counts (one per article) for a single (group, field, year) cell.

    ``counts`` is built once from any integer sequence as a private,
    read-only int64 array in input order.  The statistics every indicator
    and analytic interval is computed from are read off the cell itself:
    n, cited (count > 0), and the mean and M2 (sum of squared deviations
    from the mean) of c and of ln(1+c).  Each is computed on first read,
    over one sorted snapshot of the counts and its ln(1+c) values.

    Equality is identity (``eq=False``): an array has no single truth
    value, so a field-by-field ``==`` could not give one.
    """

    group: str
    key: FieldYearKey
    counts: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.size < 1:
            raise ValueError(f"cell {self.group}/{self.key} is empty")
        if counts.min() < 0:
            raise ValueError(f"cell {self.group}/{self.key} contains a negative count")
        if self.ids is not None and len(self.ids) != counts.size:
            raise ValueError(f"cell {self.group}/{self.key}: ids and counts differ in length")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.counts.size

    def counts_array(self) -> np.ndarray:
        return self.counts

    @property
    def n(self) -> int:
        return self.counts.size

    @cached_property
    def _sorted(self) -> np.ndarray:
        return np.sort(self.counts)

    @cached_property
    def _logs(self) -> np.ndarray:
        return np.log1p(self._sorted)

    @cached_property
    def cited(self) -> int:
        return self.n - int(np.searchsorted(self._sorted, 0, side="right"))

    @cached_property
    def raw_mean(self) -> float:
        return float(self._sorted.mean())

    @cached_property
    def raw_m2(self) -> float:
        return float(np.sum((self._sorted - self.raw_mean) ** 2))

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
    the cell's sorted counts, in draw order: cited as ``idx >= n - cited``
    (the first cited position), means as sums divided by n (bit-identical to
    ``ndarray.mean``), M2 as the sum of squared deviations from that mean.
    """

    def __init__(self, cell: ArticleSet, stats: Iterable[str], replicates: int) -> None:
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
            self.cited[r] = np.count_nonzero(idx >= n - cell.cited)
        if self.raw_mean is not None:
            self.raw_mean[r] = np.add.reduce(cell._sorted[idx], dtype=np.float64) / n
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
    if not (len(year_text) == 4 and year_text.isascii() and year_text.isdigit()):
        raise CorpusError(f"{path.name}: year {year_text!r} is not four ASCII digits")
    try:
        return group, FieldYearKey(field, int(year_text))
    except ValueError as exc:
        raise CorpusError(f"{path.name}: {exc}") from None


def _line_number(data: bytes, offset: int) -> int:
    return data.count(b"\n", 0, offset) + 1


def _decode(data: bytes, name: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{name}:{_line_number(data, exc.start)}: not valid UTF-8") from None


def _count_of(line: str) -> int:
    """The count on one data line of a cell file; a ValueError says what is wrong."""
    _, sep, count_text = line.partition("\t")
    if not sep:
        raise ValueError("expected two tab-separated columns")
    digits = count_text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"count {count_text!r} is not an integer (ASCII digits 0-9 only)")
    if digits != count_text:
        raise ValueError(f"negative count {count_text}")
    significant = digits.lstrip("0") or "0"
    # int() refuses strings of over 4300 digits, so lengths are compared first.
    if len(significant) > 19 or int(significant) > _COUNT_MAX:
        raise ValueError(f"count {count_text} exceeds 2**63-1")
    return int(significant)


def _line_offsets(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, end and first-tab offsets of every non-blank line after the header.

    A line without a tab gets the offset of a later line's tab, or the file
    size, both past its end.  Offsets are int32 in files under 2 GiB, which
    halves their memory against numpy's default int64.
    """
    offset = np.int32 if buf.size < 2**31 else np.int64
    ends = np.flatnonzero(buf == ord("\n"))
    if buf[-1] != ord("\n"):
        ends = np.append(ends, buf.size)
    ends = ends.astype(offset)
    starts = np.append(offset(0), ends[:-1] + 1)
    articles = starts < ends
    articles[0] = False  # the header
    starts, ends = starts[articles], ends[articles]
    tabs = np.flatnonzero(buf == ord("\t")).astype(offset)
    first_tabs = np.append(tabs, offset(buf.size))[np.searchsorted(tabs, starts)]
    return starts, ends, first_tabs


def read_cell(path: Path) -> ArticleSet:
    """Parse one cell file; errors name the file and offending line.

    The file is read once as bytes; its lines are split, checked and
    converted with whole-array operations.  Only the first line that fails
    the check, and count fields too long for the int64 conversion, are read
    one by one, by ``_count_of``.  Blank lines are skipped but numbered.
    """
    path = Path(path)
    group, key = _parse_filename(path)
    name = path.name
    data = path.read_bytes().replace(b"\r\n", b"\n")
    lone_cr = data.find(b"\r")
    if lone_cr >= 0:
        raise CorpusError(
            f"{name}:{_line_number(data, lone_cr)}: carriage return without a line feed"
            " (lines must end in LF or CRLF)"
        )
    header = data.partition(b"\n")[0]
    if header != _HEADER.encode():
        text = _decode(header, name)
        bom = " (the file starts with a UTF-8 BOM)" if text.startswith("\ufeff") else ""
        raise CorpusError(f"{name}:1: expected header {_HEADER!r}, got {text!r}{bom}")
    _decode(data, name)  # the whole file must be UTF-8, not only the lines read one by one

    buf = np.frombuffer(data, np.uint8)
    starts, ends, first_tabs = _line_offsets(buf)
    if starts.size == 0:
        raise CorpusError(f"{name}: cell contains no articles")
    widths = np.maximum(ends - first_tabs - 1, 0)  # of the count fields; 0 without a tab

    # The last `width` bytes of every line, right-aligned on the line ends,
    # with the bytes before each count field set to 0.  No row starts
    # before the file does: the header precedes every line.
    width = min(int(widths.max()), _INT64_DIGITS)
    digits = sliding_window_view(buf, width)[ends - width]
    digits -= ord("0")  # a non-digit reads above 9
    digits *= np.arange(width, 0, -1) <= widths[:, None]
    valid = (widths > 0) & (digits <= 9).all(axis=1)

    long_counts = {}
    for i in np.flatnonzero(~valid | (widths > _INT64_DIGITS)):
        try:
            long_counts[i] = _count_of(data[starts[i] : ends[i]].decode("utf-8"))
        except ValueError as exc:
            raise CorpusError(f"{name}:{_line_number(data, starts[i])}: {exc}") from None

    counts = np.zeros(starts.size, np.int64)
    for column in digits.T:
        counts = counts * 10 + column
    if long_counts:
        counts[list(long_counts)] = list(long_counts.values())
    ids = None
    if np.any(first_tabs > starts):
        ids = tuple(
            data[s:t].decode("utf-8") for s, t in zip(starts.tolist(), first_tabs.tolist())
        )
    return ArticleSet(group, key, counts, ids)


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
    ids = aset.ids if aset.ids is not None else [""] * aset.n
    lines = [_HEADER]
    lines.extend(f"{i}\t{c}" for i, c in zip(ids, aset.counts.tolist()))
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
    if spec.size >= aset.n:
        return aset
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed & (2**64 - 1)))
    idx = np.sort(rng.choice(aset.n, size=spec.size, replace=False))
    ids = tuple(aset.ids[i] for i in idx) if aset.ids is not None else None
    return ArticleSet(aset.group, aset.key, aset.counts[idx], ids)


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
