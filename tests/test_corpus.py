from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldnorm.corpus import (
    _COUNT_MAX,
    _HEADER,
    WORLD,
    ArticleSet,
    Corpus,
    CorpusError,
    ExclusionPolicy,
    FieldYearKey,
    SampleSpec,
    apply_exclusion,
    cell_filename,
    load_corpus,
    read_cell,
    sample_cell,
    write_cell,
    write_corpus,
    _parse_filename,
)

from conftest import make_cell


def write_tsv(directory, name, rows):
    path = directory / name
    path.write_text("\n".join(["article_id\tcount"] + rows) + "\n", encoding="utf-8")
    return path


class TestKeysAndCells:
    def test_key_validation(self):
        with pytest.raises(ValueError):
            FieldYearKey("  ", 2013)
        with pytest.raises(ValueError):
            FieldYearKey("BIOC", 13)
        assert FieldYearKey("BIOC", 2013).year == 2013

    def test_article_set_validation(self):
        key = FieldYearKey("BIOC", 2013)
        with pytest.raises(ValueError):
            ArticleSet("G", key, ())
        with pytest.raises(ValueError):
            ArticleSet("G", key, (1, -2))
        with pytest.raises(ValueError):
            ArticleSet("G", key, (1, 2), ids=("a",))

    def test_counts_are_a_private_read_only_int64_array(self):
        source = np.array([3, 0, 1])
        cell = ArticleSet("G", FieldYearKey("BIOC", 2013), source)
        source[0] = 9
        assert cell.counts.dtype == np.int64 and cell.counts.tolist() == [3, 0, 1]
        assert cell.counts_array() is cell.counts
        with pytest.raises(ValueError, match="read-only"):
            cell.counts[0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.counts = np.array([1])
        assert (cell.n, cell.cited, cell.raw_mean) == (3, 2, 4 / 3)

    def test_corpus_requires_world_cell(self):
        with pytest.raises(CorpusError, match="missing world cell"):
            Corpus.from_cells([make_cell("G", "BIOC", 2013, [1, 2])])

    def test_corpus_rejects_duplicates(self):
        cells = [
            make_cell(WORLD, "BIOC", 2013, [1]),
            make_cell(WORLD, "BIOC", 2013, [2]),
        ]
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus.from_cells(cells)


class TestLoadCorpus:
    def test_loads_matching_files(self, tmp_path):
        write_tsv(tmp_path, "WORLD__BIOC__2013.tsv", [f"w{i}\t{i}" for i in range(5)])
        write_tsv(tmp_path, "MRC__BIOC__2013.tsv", ["a\t3", "b\t0", "c\t1"])
        corpus = load_corpus(tmp_path)
        assert len(corpus.cells) == 2
        assert len(corpus.cell("MRC", FieldYearKey("BIOC", 2013))) == 3
        assert len(corpus.world(FieldYearKey("BIOC", 2013))) == 5

    def test_missing_world_cell(self, tmp_path):
        write_tsv(tmp_path, "MRC__BIOC__2013.tsv", ["a\t3"])
        with pytest.raises(CorpusError, match="missing world cell"):
            load_corpus(tmp_path)

    def test_negative_count_names_file_and_line(self, tmp_path):
        write_tsv(tmp_path, "WORLD__BIOC__2013.tsv", ["a\t1", "b\t-1"])
        with pytest.raises(CorpusError, match=r"WORLD__BIOC__2013\.tsv:3.*negative"):
            load_corpus(tmp_path)

    def test_non_integer_count(self, tmp_path):
        write_tsv(tmp_path, "WORLD__BIOC__2013.tsv", ["a\tx"])
        with pytest.raises(CorpusError, match="not an integer"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "content, error",
        [
            ("article_id\tcount\na\t1\nb\t+3\n", ":3: count '\\+3' is not an integer"),
            ("article_id\tcount\na\t1\nb\t 7 \n", ":3: count ' 7 ' is not an integer"),
            ("article_id\tcount\na\t1\nb\t1_000\n", ":3: count '1_000' is not an integer"),
            ("article_id\tcount\na\t1\nb\t\u0663\n", ":3: count '\u0663' is not an integer"),
            ("article_id\tcount\na\t1\nb\t\n", ":3: count '' is not an integer"),
            ("\ufeffarticle_id\tcount\na\t1\n", ":1: .*UTF-8 BOM"),
        ],
        ids=["plus", "spaces", "underscore", "arabic-indic", "empty", "bom"],
    )
    def test_strict_input_contract(self, tmp_path, content, error):
        (tmp_path / "WORLD__BIOC__2013.tsv").write_text(content, encoding="utf-8")
        with pytest.raises(CorpusError, match=r"^WORLD__BIOC__2013\.tsv" + error):
            load_corpus(tmp_path)

    def test_leading_zeros_accepted(self, tmp_path):
        write_tsv(tmp_path, "WORLD__BIOC__2013.tsv", ["a\t007", "b\t0"])
        assert tuple(load_corpus(tmp_path).world(FieldYearKey("BIOC", 2013)).counts) == (7, 0)

    @pytest.mark.parametrize(
        "year", ["2_014", "+2014", "\u0662\u0660\u0661\u0665", " 2014", "20145", "214"]
    )
    def test_filename_year_is_four_ascii_digits(self, tmp_path, year):
        name = f"WORLD__BIOC__{year}.tsv"
        write_tsv(tmp_path, name, ["a\t1"])
        with pytest.raises(CorpusError, match=f"^{re.escape(name)}: .*not four ASCII digits"):
            load_corpus(tmp_path)

    def test_count_bound_is_int64(self, tmp_path):
        path = write_tsv(tmp_path, "WORLD__BIOC__2013.tsv", [f"a\t{2**63 - 1}"])
        assert read_cell(path).counts.tolist() == [2**63 - 1]
        write_tsv(tmp_path, "WORLD__BIOC__2013.tsv", ["a\t1", f"b\t{2**63}"])
        error = r"^WORLD__BIOC__2013\.tsv:3: count 9223372036854775808 exceeds 2\*\*63-1$"
        with pytest.raises(CorpusError, match=error):
            load_corpus(tmp_path)

    def test_malformed_filename(self, tmp_path):
        write_tsv(tmp_path, "WORLD_BIOC_2013.tsv", ["a\t1"])
        with pytest.raises(CorpusError, match="malformed"):
            load_corpus(tmp_path)

    def test_bad_header(self, tmp_path):
        (tmp_path / "WORLD__BIOC__2013.tsv").write_text("id,count\na,1\n")
        with pytest.raises(CorpusError, match="header"):
            load_corpus(tmp_path)

    def test_crlf_accepted(self, tmp_path):
        (tmp_path / "WORLD__BIOC__2013.tsv").write_bytes(b"article_id\tcount\r\na\t2\r\n")
        corpus = load_corpus(tmp_path)
        assert tuple(corpus.world(FieldYearKey("BIOC", 2013)).counts) == (2,)

    def test_round_trip_is_lossless(self, tmp_path, demo_corpus):
        write_corpus(demo_corpus, tmp_path)
        reloaded = load_corpus(tmp_path)
        assert set(reloaded.cells) == set(demo_corpus.cells)
        for ck, aset in demo_corpus.cells.items():
            assert np.array_equal(reloaded.cells[ck].counts, aset.counts)

    def test_ids_preserved(self, tmp_path):
        cell = ArticleSet(WORLD, FieldYearKey("BIOC", 2013), (1, 0), ids=("x", "y"))
        write_cell(cell, tmp_path)
        assert read_cell(tmp_path / cell_filename(WORLD, cell.key)).ids == ("x", "y")


def line_loop_read_cell(path):
    """The line-by-line parser that read_cell replaced, kept as its reference.

    It reads lone CRs as line ends, and raises the codec's own error on
    invalid UTF-8 and int()'s own on counts of over 4300 digits; read_cell
    gives a file:line message for each.
    """
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
            count = int(digits)
            if count > _COUNT_MAX:
                raise CorpusError(f"{path.name}:{lineno}: count {count_text} exceeds 2**63-1")
            counts.append(count)
            ids.append(article_id)
    if not counts:
        raise CorpusError(f"{path.name}: cell contains no articles")
    has_ids = any(ids)
    return ArticleSet(group, key, counts, tuple(ids) if has_ids else None)


def parse_outcome(reader, path):
    """(counts, ids) of a parsed cell, or the CorpusError message."""
    try:
        cell = reader(path)
    except CorpusError as exc:
        return str(exc)
    return cell.counts.tolist(), cell.ids


ARTICLE_IDS = st.one_of(
    st.just(""),
    st.sampled_from(["a1", "10.1/x", " ", "\ufeff", "-3", "\u00e9t\u00e9"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), max_size=4),
)
VALID_COUNTS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(1, 9), st.integers(0, 999)).map(lambda t: "0" * t[0] + str(t[1])),
    st.integers(10**17, _COUNT_MAX).map(str),
    st.integers(_COUNT_MAX - 9, _COUNT_MAX).map(str),
    st.tuples(st.integers(1, 8), st.integers(0, _COUNT_MAX)).map(lambda t: "0" * t[0] + str(t[1])),
)
# Long fields and values around 2**63, within the bound or not.
LONG_COUNTS = st.one_of(
    st.integers(10**17, 10**25).map(str),
    st.integers(_COUNT_MAX - 3, _COUNT_MAX + 9).map(str),
    st.tuples(st.integers(1, 8), st.integers(_COUNT_MAX - 3, 10**20)).map(
        lambda t: "0" * t[0] + str(t[1])
    ),
)
# Signs, spaces, underscores, other scripts' digits, extra tabs, and "/"
# and ":", the bytes either side of "0"-"9".
JUNK_COUNTS = st.one_of(
    st.sampled_from(["+3", "-1", "-0", "-", "--5", "", " 7 ", "7 ", "1_000", "\u0663", "1\t2"]),
    st.text("0123456789+-_ \t\u0663/:", max_size=6),
)
HEADERS = st.sampled_from(
    [_HEADER] * 30 + ["\ufeff" + _HEADER, "id,count", "", _HEADER + "\t", "article_id count"]
)


@st.composite
def cell_files(draw) -> bytes:
    """Cell file bytes with LF or CRLF ends and no lone CR; valid or not."""
    ids = ARTICLE_IDS if draw(st.booleans()) else st.just("")
    valid = st.tuples(ids, VALID_COUNTS).map("\t".join)
    if draw(st.booleans()):
        rows = st.one_of(valid, valid, valid, st.just(""))
    else:
        long = st.tuples(ids, LONG_COUNTS).map("\t".join)
        junk = st.tuples(ids, JUNK_COUNTS).map("\t".join)
        rows = st.one_of(valid, long, junk, st.just(""), ids)  # ids alone: one column
    lines = [draw(HEADERS)] + draw(st.lists(rows, min_size=1, max_size=8))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


class TestParserOracle:
    """read_cell gives the counts, ids and error messages of the line loop."""

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(data=cell_files())
    def test_matches_line_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "G__F__2013.tsv"
        path.write_bytes(data)
        assert parse_outcome(read_cell, path) == parse_outcome(line_loop_read_cell, path)

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"article_id\tcount\n", "G__F__2013.tsv: cell contains no articles"),
            (b"article_id\tcount", "G__F__2013.tsv: cell contains no articles"),
            (b"article_id\tcount\r\n\r\n\n", "G__F__2013.tsv: cell contains no articles"),
            (b"article_id\tcount\n\t1\n\n\r\n\n\t-2\n", "G__F__2013.tsv:6: negative count -2"),
            (b"", "G__F__2013.tsv:1: expected header 'article_id\\tcount', got ''"),
            (b"article_id\tcount\na\t3\n\nb\t0", ([3, 0], ("a", "b"))),
            (b"article_id\tcount\n\t0000000000000000000000012\n", ([12], None)),
        ],
        ids=["header-only", "header-only-no-newline", "blank-lines-only", "after-blank-lines",
             "empty-file", "no-final-newline", "leading-zeros"],
    )
    def test_edge_cases(self, tmp_path, data, expected):
        path = tmp_path / "G__F__2013.tsv"
        path.write_bytes(data)
        assert parse_outcome(read_cell, path) == expected
        assert parse_outcome(line_loop_read_cell, path) == expected

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"article_id\tcount\r\t1\n", 1),
            (b"article_id\tcount\n\t1\r\t2\n", 2),
            (b"article_id\tcount\r\n\t1\r\n\n\t2\r", 4),
            (b"article_id\tcount\n\t1\r\r\n", 2),
            (b"article_id\tcount\na\rb\t1\n", 2),
        ],
        ids=["header", "between-articles", "last-byte", "cr-before-crlf", "inside-id"],
    )
    def test_lone_cr_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "G__F__2013.tsv"
        path.write_bytes(data)
        error = rf"^G__F__2013\.tsv:{line}: carriage return without a line feed"
        with pytest.raises(CorpusError, match=error):
            read_cell(path)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xffarticle_id\tcount\n\t1\n", 1),
            (b"article_id\tcount\n\t1\nab\xff\t2\n", 3),
            (b"article_id\tcount\r\n\t1\r\n\r\n\t3\xc3\r\n", 4),
            (b"article_id\tcount\n\t1\n\xed\xa0\x80\t2\n", 3),
        ],
        ids=["header", "article-id", "count-after-blank-crlf-line", "surrogate"],
    )
    def test_invalid_utf8_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "G__F__2013.tsv"
        path.write_bytes(data)
        with pytest.raises(CorpusError, match=rf"^G__F__2013\.tsv:{line}: not valid UTF-8$"):
            read_cell(path)

    def test_counts_longer_than_int_text_limit(self, tmp_path):
        # int() refuses more than 4300 digits; leading zeros still count as 7.
        path = write_tsv(tmp_path, "G__F__2013.tsv", ["a\t" + "0" * 5000 + "7", "b\t1"])
        assert read_cell(path).counts.tolist() == [7, 1]
        write_tsv(tmp_path, "G__F__2013.tsv", ["a\t1", "b\t" + "9" * 5000])
        error = r"^G__F__2013\.tsv:3: count 9{5000} exceeds 2\*\*63-1$"
        with pytest.raises(CorpusError, match=error):
            read_cell(path)


class TestSampleCell:
    def test_small_cell_unchanged(self):
        cell = make_cell("G", "F", 2013, [1, 2, 3, 4, 5])
        assert sample_cell(cell, SampleSpec(10, seed=1)) is cell

    def test_deterministic(self):
        cell = make_cell("G", "F", 2013, list(range(1000)))
        first = sample_cell(cell, SampleSpec(500, seed=42))
        second = sample_cell(cell, SampleSpec(500, seed=42))
        assert np.array_equal(first.counts, second.counts)
        assert len(first) == 500

    def test_multiset_subset(self):
        rng = np.random.default_rng(0)
        counts = [int(c) for c in rng.integers(0, 20, 200)]
        cell = make_cell("G", "F", 2013, counts)
        sampled = sample_cell(cell, SampleSpec(50, seed=9))
        from collections import Counter

        full, sub = Counter(counts), Counter(sampled.counts)
        assert all(sub[v] <= full[v] for v in sub)

    def test_ids_stay_aligned(self):
        counts = tuple(range(100))
        ids = tuple(f"id{i}" for i in range(100))
        cell = ArticleSet("G", FieldYearKey("F", 2013), counts, ids)
        sampled = sample_cell(cell, SampleSpec(10, seed=5))
        assert all(f"id{c}" == i for c, i in zip(sampled.counts, sampled.ids))

    def test_binomial_concentration(self):
        # Half zeros, half ones: the sampled share of ones stays near 0.5.
        counts = [0] * 5000 + [1] * 5000
        cell = make_cell("G", "F", 2013, counts)
        sampled = sample_cell(cell, SampleSpec(1000, seed=7))
        share = sum(sampled.counts) / 1000
        assert abs(share - 0.5) <= 0.05


class TestApplyExclusion:
    def build(self, sizes):
        cells = []
        for i, size in enumerate(sizes):
            key = FieldYearKey(f"F{i}", 2013)
            cells.append(make_cell("G", f"F{i}", 2013, [1] * size))
            cells.append(make_cell(WORLD, f"F{i}", 2013, [1] * size))
        return Corpus.from_cells(cells)

    def test_absolute_floor(self):
        corpus = self.build([400, 300, 50])
        kept = apply_exclusion(corpus, "G", ExclusionPolicy())
        assert {k.field for k in kept} == {"F0", "F1"}

    def test_relative_floor(self):
        # mean is 1060, so the 120-article cell falls below 0.25 * 1060.
        corpus = self.build([2000, 120])
        kept = apply_exclusion(corpus, "G", ExclusionPolicy())
        assert {k.field for k in kept} == {"F0"}

    def test_symmetric_cells_all_kept(self):
        corpus = self.build([500, 500, 500])
        assert len(apply_exclusion(corpus, "G", ExclusionPolicy())) == 3

    def test_unknown_group(self, demo_corpus):
        with pytest.raises(KeyError):
            apply_exclusion(demo_corpus, "NOPE", ExclusionPolicy())

    def test_idempotent(self):
        corpus = self.build([400, 300, 180, 90])
        policy = ExclusionPolicy()
        kept = apply_exclusion(corpus, "G", policy)
        trimmed = Corpus.from_cells(
            [a for (g, k), a in corpus.cells.items() if k in kept or g == WORLD]
        )
        assert apply_exclusion(trimmed, "G", policy) == kept
