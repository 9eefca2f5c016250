"""Loading, validation, sampling and filtering of article-count data.

The unit of data is a cell: all articles of one group in one (field, year)
combination, stored as one tab-separated file named

    <group>__<field>__<year>.tsv

with a header row ``article_id<TAB>count``.  The group label ``WORLD`` is
reserved for the reference set; every (field, year) present for any group
must also have a WORLD cell, otherwise normalisation is impossible.

An ArticleSet is the one cell object from parse to kernel: it holds the
cell's counts as a read-only array of the narrowest unsigned type, of at
least 16 bits, that holds its largest count (``count_dtype``), built from
integers only, and computes once, on their first read, the statistics
every indicator and analytic interval reads.  Article ids stay in the
files: ``sample_files`` alone copies them.  A Corpus holds only its cells;
``Corpus.scope`` turns a (group, key set) into a Scope of sorted keys and
cells, and the code that builds a row calls it once and hands the Scope to
every route of that row.  ``pair_cells`` alone checks raw group and world
cell sets, as the library entry points take them, and makes them a Scope.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

WORLD = "WORLD"

_NAME_SEP = "__"
_HEADER = "article_id\tcount"
_COUNT_MAX = 2**63 - 1  # counts must fit an int64
# Count fields of up to 18 digits are converted in int64 without overflow
# (10**18 - 1 < 2**63 - 1); longer ones, say with leading zeros, by int().
_INT64_DIGITS = 18
# Lines are parsed in blocks of at most this many bytes (a longer line gets
# a block of its own), which bounds the parser's temporaries.
_BLOCK_BYTES = 2**16
# write_cell formats and writes this many lines at a time, never a whole cell.
_WRITE_ROWS = 2**14
# The statistics an ArticleSet computes together on their first read.
_STATISTICS = ("cited", "raw_mean", "raw_m2", "log_mean", "log_m2")


def count_dtype(largest: int) -> np.dtype:
    """The dtype a cell whose largest count is ``largest`` holds its counts in.

    The narrowest unsigned type that holds ``largest``, but never narrower
    than uint16: numpy sorts uint8 about ten times slower than uint16, and
    builtin ``sum`` over uint8 elements wraps at 256.
    """
    return np.promote_types(np.min_scalar_type(largest), np.uint16)


def check_integers(spec: object, label: str, *names: str) -> None:
    """Store the fields ``names`` of frozen ``spec`` as ints: numpy integers pass, bools do not."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{label} {name} must be an integer, got {value!r}")
        object.__setattr__(spec, name, int(value))


class CorpusError(ValueError):
    """Raised for malformed cell files or inconsistent cell collections."""


class _FieldYear(NamedTuple):
    field: str
    year: int


class FieldYearKey(_FieldYear):
    """One field/year normalisation cell identifier: a (field, year) tuple,
    so hashing and ordering run in C, checked however it is built."""

    __slots__ = ()

    def __new__(cls, field: str, year: int) -> FieldYearKey:
        if not isinstance(field, str) or not field.strip():
            raise ValueError(f"field label must be a non-empty string, got {field!r}")
        try:
            year = operator.index(year)
        except TypeError:
            raise ValueError(f"year must be an integer, got {year!r}") from None
        if not 1000 <= year <= 9999:
            raise ValueError(f"year must be a 4-digit positive integer, got {year}")
        return super().__new__(cls, field, year)

    @classmethod
    def _make(cls, iterable: Iterable) -> FieldYearKey:
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.field}/{self.year}"


@dataclass(frozen=True, eq=False)
class ArticleSet:
    """Counts (one per article) for a single (group, field, year) cell.

    ``counts`` is built once from a sequence of Python ints or a numpy
    integer array as a private, read-only array in input order; floats,
    bools, strings, negative values and values beyond 2**63-1 are rejected,
    not converted.  Its dtype is ``count_dtype`` of the largest count:
    uint16 below 65,536, uint32 below 2**32, uint64 above.  Arithmetic on
    those elements one by one in Python stays in that type and can wrap
    (builtin ``sum(cell.counts)`` wraps at 65,536); ``cell.counts.sum()``
    or ``counts_array()``, an int64 copy, do not.  The statistics every
    indicator and analytic interval is computed from are read off the cell
    itself: n, cited (count > 0), and the mean and M2 (sum of squared
    deviations from the mean) of c and of ln(1+c).  The first read of any
    of the five computes them all, over a sorted snapshot of the counts
    that is dropped afterwards, and stores them as plain attributes, so a
    cell holds its counts and five numbers: 2 bytes per article for counts
    below 65,536.

    Equality is identity (``eq=False``): an array has no single truth
    value, so a field-by-field ``==`` could not give one.
    """

    group: str
    key: FieldYearKey
    counts: np.ndarray

    def __post_init__(self) -> None:
        cell = f"cell {self.group}/{self.key}"
        counts = np.asarray(self.counts)
        # Checked first: an empty sequence converts to a float64 array.
        if counts.size < 1:
            raise ValueError(f"{cell} is empty")
        if counts.ndim != 1:
            raise ValueError(f"{cell}: counts must be one flat sequence, got shape {counts.shape}")
        if counts.dtype.kind not in "iu":
            raise ValueError(
                f"{cell}: counts must be integers in [0, 2**63-1], got {counts.dtype} values"
            )
        if counts.dtype.kind == "u" and int(counts.max()) > _COUNT_MAX:
            raise ValueError(f"{cell}: a count exceeds 2**63-1")
        if counts.min() < 0:
            raise ValueError(f"{cell} contains a negative count")
        counts = counts.astype(count_dtype(counts.max()))
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _adopt(cls, group: str, key: FieldYearKey, counts: np.ndarray) -> ArticleSet:
        """The cell over ``counts``, taken over without a copy and made read-only.

        For the parser, which has already checked what the constructor
        checks and chosen the width it would: ``counts`` is a flat array of
        at least one count in [0, 2**63-1], of ``count_dtype`` of its
        largest, and nothing else writes to it.
        """
        counts.flags.writeable = False
        cell = object.__new__(cls)
        vars(cell).update(group=group, key=key, counts=counts)
        return cell

    def __len__(self) -> int:
        return self.counts.size

    def counts_array(self) -> np.ndarray:
        """The counts as a new int64 array, safe for any arithmetic."""
        return self.counts.astype(np.int64)

    @property
    def n(self) -> int:
        return self.counts.size

    def __getattr__(self, name: str):
        """The five ``_STATISTICS``, set together as plain attributes on the first read.

        They are taken over a transient sorted snapshot of the counts, so
        the sums run in ascending order, as the bootstrap's do.  At most two
        n-length arrays are alive at once: the snapshot, and one float64
        array that holds the deviations, then ln(1+c), then theirs.  The
        sums are those ``mean`` and ``np.sum`` make, without their wrappers.
        """
        if name not in _STATISTICS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n = self.n
        ordered = np.sort(self.counts)
        cited = n - int(np.searchsorted(ordered, 0, side="right"))
        raw_mean = float(np.add.reduce(ordered, dtype=np.float64)) / n
        work = np.subtract(ordered, raw_mean)
        raw_m2 = float(np.add.reduce(np.square(work, out=work)))
        # log1p picks its loop from the input: float32 for uint16 counts.
        logs = np.log1p(ordered, out=work, dtype=np.float64)
        del ordered
        log_mean = float(np.add.reduce(logs)) / n
        logs -= log_mean
        log_m2 = float(np.add.reduce(np.square(logs, out=logs)))
        vars(self).update(zip(_STATISTICS, (cited, raw_mean, raw_m2, log_mean, log_m2)))
        return vars(self)[name]

    @property
    def log_sd(self) -> float | None:
        """Sample sd of ln(1+c); None for a single article."""
        return math.sqrt(self.log_m2 / (self.n - 1)) if self.n > 1 else None


@dataclass(frozen=True)
class SampleSpec:
    """Target size and seed for down-sampling a cell."""

    size: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        check_integers(self, "sample", "size", "seed")
        if self.size < 1:
            raise ValueError("sample size must be >= 1")


@dataclass(frozen=True)
class ExclusionPolicy:
    """Floors below which a group's cells are dropped from equalised indicators."""

    min_articles: int = 100
    min_fraction_of_mean: float = 0.25

    def __post_init__(self) -> None:
        check_integers(self, "exclusion", "min_articles")
        if self.min_articles < 1:
            raise ValueError("min_articles must be >= 1")
        if not 0.0 <= self.min_fraction_of_mean <= 1.0:
            raise ValueError("min_fraction_of_mean must lie in [0, 1]")


class Scope(NamedTuple):
    """Sorted keys with the group's and the world's cell of each."""

    keys: tuple[FieldYearKey, ...]
    group: tuple[ArticleSet, ...]
    world: tuple[ArticleSet, ...]


@dataclass(frozen=True)
class Corpus:
    """All group and WORLD cells of one evaluation, keyed by (group, key)."""

    cells: Mapping[tuple[str, FieldYearKey], ArticleSet] = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        world_keys = {k for (g, k) in self.cells if g == WORLD}
        for group, key in self.cells:
            if group != WORLD and key not in world_keys:
                raise CorpusError(f"missing world cell for {group}/{key}")

    @classmethod
    def from_cells(cls, sets: Iterable[ArticleSet]) -> "Corpus":
        cells: dict[tuple[str, FieldYearKey], ArticleSet] = {}
        for aset in sets:
            ck = (aset.group, aset.key)
            if ck in cells:
                raise CorpusError(f"duplicate cell for {aset.group}/{aset.key}")
            cells[ck] = aset
        return cls(cells)

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

    def scope(self, group: str, keys: Iterable[FieldYearKey]) -> Scope:
        """The Scope of ``group`` over ``keys``: the keys sorted, with their cells."""
        ordered = tuple(sorted(set(keys)))
        return Scope(
            ordered,
            tuple(self.cells[group, k] for k in ordered),
            tuple(self.cells[WORLD, k] for k in ordered),
        )

    def keys_for(self, group: str) -> set[FieldYearKey]:
        if group != WORLD and group not in self.groups:
            raise KeyError(f"unknown group {group!r}")
        return {k for (g, k) in self.cells if g == group}


def pair_cells(
    group_sets: Sequence[ArticleSet], world_sets: Sequence[ArticleSet] | None = None,
    same_keys: bool = False,
) -> Scope:
    """The Scope of raw group and world cell sets: the group's keys sorted, with their cells.

    One ValueError per fault: an empty group set, mixed groups, a duplicate
    key, a world cell not labelled WORLD, a group key with no world cell
    and, with ``same_keys`` (the proportion indicators), world keys that
    differ from the group's.  Without ``world_sets`` only the group side is
    checked.
    """
    if not group_sets:
        raise ValueError("no group cells supplied")
    groups = {s.group for s in group_sets}
    if len(groups) > 1:
        raise ValueError(f"mixed groups {sorted(groups)}")
    group = {s.key: s for s in group_sets}
    if len(group) != len(group_sets):
        raise ValueError("duplicate cell keys")
    keys = tuple(sorted(group))
    cells = tuple(group[k] for k in keys)
    if world_sets is None:
        return Scope(keys, cells, ())
    labels = {s.group for s in world_sets} - {WORLD}
    if labels:
        raise ValueError(f"world cells must be labelled {WORLD}, got {sorted(labels)}")
    world = {s.key: s for s in world_sets}
    if len(world) != len(world_sets):
        raise ValueError("duplicate cell keys")
    missing = group.keys() - world.keys()
    if missing:
        (label,) = groups
        raise ValueError("missing world cells for "
                         + ", ".join(f"{label}/{key}" for key in sorted(missing)))
    if same_keys and world.keys() != group.keys():
        raise ValueError("group and world must cover the same cell keys")
    return Scope(keys, cells, tuple(world[k] for k in keys))


def cell_filename(group: str, key: FieldYearKey) -> str:
    """The name of the file of a cell; a label that the name would not give back is refused."""
    for label in (group, key.field):
        for banned in (_NAME_SEP, "/", "\\"):
            if banned in label:
                raise CorpusError(f"label {label!r} may not contain {banned!r}")
        if not label or label.endswith("_"):
            raise CorpusError(f"label {label!r} may not be empty or end in '_'")
    return f"{group}{_NAME_SEP}{key.field}{_NAME_SEP}{key.year}.tsv"


def _parse_filename(path: Path) -> tuple[str, FieldYearKey]:
    parts = path.stem.split(_NAME_SEP)
    if len(parts) != 3 or not all(parts):
        raise CorpusError(f"{path.name}: malformed cell filename")
    group, field, year_text = parts
    if not (len(year_text) == 4 and year_text.isascii() and year_text.isdigit()):
        raise CorpusError(f"{path.name}: year {year_text!r} is not four ASCII digits")
    try:
        key = FieldYearKey(field, int(year_text))
        cell_filename(group, key)  # the one rule for labels
        return group, key
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


class _CellFile:
    """One cell file whose bytes passed the whole-file checks, and its parsed pieces.

    ``data`` is the file with CRLF turned into LF, and its lines start at
    ``body``, after the header.  Each block the lines fall in adds the
    piece's counts as an array of its own, and the last piece joins them
    into the cell.
    """

    def __init__(self, path: Path) -> None:
        group, key = _parse_filename(path)
        name = path.name
        data = path.read_bytes()
        if b"\r" in data:  # one scan for an LF-only file
            data = data.replace(b"\r\n", b"\n")
            lone_cr = data.find(b"\r")
            if lone_cr >= 0:
                raise CorpusError(
                    f"{name}:{_line_number(data, lone_cr)}: carriage return without a line feed"
                    " (lines must end in LF or CRLF)"
                )
        header_end = data.find(b"\n")
        header = data[:header_end] if header_end >= 0 else data
        if header != _HEADER.encode():
            text = _decode(header, name)
            bom = " (the file starts with a UTF-8 BOM)" if text.startswith("\ufeff") else ""
            raise CorpusError(f"{name}:1: expected header {_HEADER!r}, got {text!r}{bom}")
        if not data.isascii():
            _decode(data, name)  # the whole file must be UTF-8, not only the lines read one by one
        self.name, self.group, self.key, self.data = name, group, key, data
        self.body = min(len(header) + 1, len(data))
        self.pieces: list[np.ndarray] = []

    def add(self, counts: np.ndarray, last: bool, dtype: np.dtype | None) -> ArticleSet | None:
        """Keep one piece's counts; return the cell once the last piece is in.

        Each piece is copied out of the block's int64 counts, so that a cell
        never pins the block, nor another file's counts, in ``count_dtype``
        of its largest count; ``dtype`` is that type when the block already
        knows it, else None.  The pieces are held until the last, which
        joins them in one array of the widest piece type: ``count_dtype``
        of the file's largest count.  A file of one piece is taken as it is.
        """
        if dtype is None:
            dtype = count_dtype(counts.max(initial=0))
        self.pieces.append(counts.astype(dtype))
        if not last:
            return None
        # The reader holds this object until its next file.
        pieces, self.pieces, self.data = self.pieces, [], b""
        counts = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        if not counts.size:
            raise CorpusError(f"{self.name}: cell contains no articles")
        return ArticleSet._adopt(self.group, self.key, counts)


# A file's lines in one block: the file, the offset of its first byte in the
# block and in the file, and whether they are the file's last.
_Piece = tuple[_CellFile, int, int, bool]


class _Block:
    """The lines of consecutive cell files, at most _BLOCK_BYTES bytes of them.

    ``add`` queues a file's lines, cutting a file that does not fit at an
    LF; ``flush`` parses the queued lines in one pass.  Both yield, in
    order, the cells of the files whose last lines were parsed.  A line
    longer than a block makes a block of its own.  Every block is parsed
    in the same ``work`` arrays.
    """

    def __init__(self) -> None:
        self._clear()
        self.work = _WorkArrays()

    def _clear(self) -> None:
        self.parts: list[bytes | memoryview] = []
        self.size = 0
        self.pieces: list[_Piece] = []

    def add(self, source: _CellFile) -> Iterator[ArticleSet]:
        data, start = source.data, source.body
        while True:
            stop = len(data)
            room = max(_BLOCK_BYTES - self.size, 0)
            if stop - start > room:
                cut = data.rfind(b"\n", start, start + room)
                if cut < 0 and self.pieces:
                    yield from self.flush()
                    continue
                if cut < 0:
                    cut = data.find(b"\n", start + room)
                stop = cut + 1 if cut >= 0 else stop
            self.pieces.append((source, self.size, start, stop == len(data)))
            if stop > start:
                self.parts.append(memoryview(data)[start:stop])
                self.size += stop - start
                if data[stop - 1] != ord("\n"):  # the file's last line has no LF
                    self.parts.append(b"\n")
                    self.size += 1
            if stop == len(data):
                return
            yield from self.flush()
            start = stop

    def flush(self) -> Iterator[ArticleSet]:
        if self.pieces:
            block, pieces = b"".join(self.parts), self.pieces
            self._clear()
            yield from _parse_block(block, pieces, self.work)


class _WorkArrays:
    """Working arrays shared by the blocks of one read, or of one bootstrap run.

    Each is allocated once, at the size of the largest block so far, not
    once per block.  Freed after each block, their pages go back to the
    system and are faulted in again by the next block whenever the cells
    parsed in between are too small to hold the top of the heap (glibc).
    With 16-bit cells, a perfbench ``analytic`` pass then took 4,900 minor
    page faults instead of 800, and 7% more wall time; a ``compare_ci``
    pass, whose bootstrap rows each drew in arrays of their own, took
    26,400 instead of 900, and 12% more wall time.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, size: int, dtype: type) -> np.ndarray:
        """``size`` elements of the array ``name``, holding whatever they last held."""
        array = self._arrays.get(name)
        if array is None or array.size < size or array.dtype != dtype:
            array = self._arrays[name] = np.empty(size, dtype)
        return array[:size]


def _parse_block(block: bytes, pieces: list[_Piece], work: _WorkArrays) -> Iterator[ArticleSet]:
    """Convert every line of a block, then hand each piece's lines to its file.

    Lines are split, checked and converted with whole-array operations, in
    arrays from ``work`` that the next block reuses, so every piece's counts
    are copied out.  Only lines that fail the check, and count fields too
    long for the int64 conversion, are read one by one, by ``_count_of``;
    the first that fails is reported with its line number in its own file,
    once the files before it have been yielded.  Blank lines are skipped.
    """
    buf = np.frombuffer(block, np.uint8)
    # Offsets are int32 in blocks under 2 GiB, which halves their memory
    # against numpy's default int64.
    offset = np.int32 if buf.size < 2**31 else np.int64
    found = work("found", buf.size, bool)
    newlines = np.flatnonzero(np.equal(buf, ord("\n"), out=found))
    ends = work("ends", newlines.size, offset)
    ends[:] = newlines
    starts = work("starts", newlines.size, offset)
    starts[:1] = 0
    np.add(newlines[:-1], 1, out=starts[1:])
    del newlines
    lines = np.less(starts, ends, out=work("lines", starts.size, bool))
    if not lines.all():
        starts, ends = starts[lines], ends[lines]
    size = starts.size

    tabs = np.flatnonzero(np.equal(buf, ord("\t"), out=found))
    # The widths of the count fields, after each line's first tab.  A valid
    # line holds exactly one tab, so the k-th tab is the k-th line's first
    # up to the first line with none or with more than one.  That line
    # fails the checks below and is reported before any line after it is
    # read.  Lines past the last tab, and lines without one, get width 0.
    widths = work("widths", size, offset)
    widths.fill(0)
    aligned = min(tabs.size, size)
    np.subtract(ends[:aligned], tabs[:aligned], out=widths[:aligned])
    del tabs
    widths -= 1
    np.maximum(widths, 0, out=widths)

    # Horner's rule over the last bytes of every line, one distance from the
    # line ends at a time, with the bytes before each count field read as 0;
    # offsets before the block are clipped to its first byte.
    longest = int(widths.max(initial=0))
    counts = work("counts", size, np.int64)
    counts.fill(0)
    top = work("top", size, np.uint8)  # the largest digit of each count field
    top.fill(0)
    at = work("at", size, np.intp)  # take() reads intp offsets without converting them
    digit = work("digit", size, np.uint8)
    inside = work("inside", size, bool)
    for back in range(min(longest, _INT64_DIGITS), 0, -1):
        buf.take(np.subtract(ends, back, out=at), mode="clip", out=digit)
        digit -= ord("0")  # a non-digit reads above 9
        digit *= np.less_equal(back, widths, out=inside)
        np.maximum(top, digit, out=top)
        counts *= 10
        counts += digit

    error = None
    if longest > _INT64_DIGITS or not widths.all() or top.max(initial=0) > 9:
        irregular = (widths == 0) | (widths > _INT64_DIGITS) | (top > 9)
        for i in np.flatnonzero(irregular).tolist():
            try:
                counts[i] = _count_of(block[starts[i] : ends[i]].decode("utf-8"))
            except ValueError as exc:
                error = i, exc
                break

    # One max for the block: below 2**16 every piece is uint16, and only
    # otherwise does each piece take its own.
    dtype = np.dtype(np.uint16) if counts.max(initial=0) < 2**16 else None
    bounds = np.searchsorted(starts, [at for _, at, _, _ in pieces]).tolist() + [starts.size]
    for (source, at, data_at, last), a, b in zip(pieces, bounds, bounds[1:]):
        if error is not None and error[0] < b:
            i, exc = error
            line = _line_number(source.data, data_at + int(starts[i]) - at)
            raise CorpusError(f"{source.name}:{line}: {exc}")
        cell = source.add(counts[a:b], last, dtype)
        if cell is not None:
            yield cell


def _read_cells(paths: Iterable[Path]) -> Iterator[ArticleSet]:
    """The cells of ``paths`` in order, or the first error a file-by-file read meets."""
    block = _Block()
    for path in paths:
        try:
            source = _CellFile(path)
        except (CorpusError, OSError) as exc:
            error = exc
        else:
            yield from block.add(source)
            continue
        yield from block.flush()  # a bad line in an earlier file is reported first
        raise error
    yield from block.flush()


def read_cell(path: Path) -> ArticleSet:
    """Parse one cell file as ``load_corpus`` parses each; errors name the file and line."""
    (cell,) = _read_cells([Path(path)])
    return cell


def load_corpus(directory: Path | str) -> Corpus:
    """Load every ``*.tsv`` cell file under ``directory`` into a Corpus.

    The files are read in sorted order, each checked whole as by
    ``read_cell``, and their lines are queued into blocks of at most
    _BLOCK_BYTES bytes that span files: a small file shares a block with
    its neighbours, and a large one is cut into several.  Each block is
    converted in one vectorised pass, and each file gets its own counts;
    no article id is read.  The error raised is the one a file-by-file
    read meets first: a bad line names its own file and line, and the
    block pending when a later file fails its whole-file checks is parsed
    before that error is raised.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.tsv"))
    if not paths:
        raise CorpusError(f"no cell files (*.tsv) found in {directory}")
    return Corpus.from_cells(_read_cells(paths))


def _write_lines(path: Path, lines: Iterable[bytes]) -> None:
    """Write the header and ``lines`` to ``<path>.part``: renamed ``path``, or removed on error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".part")
    try:
        with open(partial, "wb") as out:
            out.write(f"{_HEADER}\n".encode())
            out.writelines(lines)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_cell(aset: ArticleSet, directory: Path | str) -> Path:
    """Write one cell in the load_corpus file format (UTF-8, LF), every article id empty."""
    path = Path(directory, cell_filename(aset.group, aset.key))
    batches = (aset.counts[i:i + _WRITE_ROWS].tolist() for i in range(0, aset.n, _WRITE_ROWS))
    _write_lines(path, ("".join(f"\t{c}\n" for c in rows).encode() for rows in batches))
    return path


def write_corpus(corpus: Corpus, directory: Path | str) -> None:
    for _, aset in sorted(corpus.cells.items()):
        write_cell(aset, directory)


def derive_stream_seed(master_seed: int, *parts: str) -> int:
    """Stable seed of one stream, so multi-stream runs are order-independent.

    ``master_seed`` is taken mod 2**64, as every seed is, so -1 and
    2**64 - 1 give the same streams.
    """
    text = f"{operator.index(master_seed) & (2**64 - 1)}|" + "|".join(parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _kept(n: int, spec: SampleSpec) -> np.ndarray | None:
    """The sorted positions of the articles a sample of ``n`` keeps; None keeps them all."""
    if spec.size >= n:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed & (2**64 - 1)))
    return np.sort(rng.choice(n, size=spec.size, replace=False))


def sample_cell(aset: ArticleSet, spec: SampleSpec) -> ArticleSet:
    """spec.size articles drawn without replacement, in input order; a smaller cell is returned."""
    kept = _kept(aset.n, spec)
    return aset if kept is None else ArticleSet(aset.group, aset.key, aset.counts[kept])


def _specs(corpus: Corpus, size: int, seed: int) -> Iterator[tuple[ArticleSet, SampleSpec]]:
    """Each cell in sorted order, with the spec of its sample: a seed derived from ``seed``."""
    for (group, k), aset in sorted(corpus.cells.items()):
        yield aset, SampleSpec(size, derive_stream_seed(seed, group, k.field, str(k.year)))


def sample_corpus(corpus: Corpus, size: int, seed: int) -> Corpus:
    """Every cell down-sampled to ``size`` articles, each from its own derived seed."""
    return Corpus.from_cells(sample_cell(aset, spec) for aset, spec in _specs(corpus, size, seed))


def _kept_lines(source: Path, cell: ArticleSet, spec: SampleSpec) -> Iterator[bytes]:
    """The lines ``spec`` keeps of ``cell``'s checked file ``source``, in batches.

    Ids are copied byte for byte, counts written from ``cell`` as by
    ``write_cell``, and blank lines dropped.  Raises CorpusError, once
    ``source`` is closed, if it no longer holds the cell's article count,
    and at once if a kept line has no tab.
    """
    seen, taken, kept = 0, 0, _kept(cell.n, spec)
    with open(source, "rb") as lines:
        next(lines)
        while batch := lines.readlines(_BLOCK_BYTES):
            batch = [line for line in batch if line not in (b"\n", b"\r\n")]
            start, seen = seen, seen + len(batch)
            counts = cell.counts[start:seen]
            if kept is not None:
                stop = int(np.searchsorted(kept, seen))
                at, taken = kept[taken:stop] - start, stop
                batch, counts = [batch[i] for i in at.tolist()], counts[at]
            if not all(b"\t" in line for line in batch):
                raise CorpusError(f"{source.name}: a line lost its tab since it was checked")
            yield b"".join([b"%s\t%d\n" % (line.partition(b"\t")[0], count)
                            for line, count in zip(batch, counts.tolist())])
    if seen != cell.n:
        raise CorpusError(f"{source.name}: {seen} articles, but {cell.n} when it was checked")


def sample_files(input_dir: Path | str, output_dir: Path | str, size: int, seed: int) -> int:
    """Copy the lines ``sample_corpus`` keeps to ``output_dir``, which may be ``input_dir``.

    ``size`` and ``seed`` are checked, then ``load_corpus`` checks every file.
    Returns the number of cells.
    """
    SampleSpec(size, seed)
    corpus = load_corpus(input_dir)
    for aset, spec in _specs(corpus, size, seed):
        name = cell_filename(aset.group, aset.key)
        _write_lines(Path(output_dir, name), _kept_lines(Path(input_dir, name), aset, spec))
    return len(corpus.cells)


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
