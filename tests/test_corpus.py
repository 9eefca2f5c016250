from __future__ import annotations

import copy
import dataclasses
import gc
import math
import pickle
import re
import shutil
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldnorm import corpus as corpus_module
from fieldnorm.bootstrap import BootstrapSpec
from fieldnorm.report import ReportConfig
from fieldnorm.synthetic import LognormalSpec, generate_cell, scenario_grid
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
    derive_stream_seed,
    load_corpus,
    pair_cells,
    read_cell,
    sample_cell,
    sample_corpus,
    sample_files,
    write_cell,
    write_corpus,
    _parse_filename,
)

from conftest import KEY_A, KEY_B, make_cell

BLOCK_BYTES = corpus_module._BLOCK_BYTES


def width_rule(largest):
    """The dtype a cell whose largest count is ``largest`` holds its counts in."""
    return np.uint16 if largest < 2**16 else np.uint32 if largest < 2**32 else np.uint64


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

    def test_key_hashes_orders_and_prints_as_before(self):
        keys = [FieldYearKey(f, y) for f in ("b", "A", "a", "B") for y in (2011, 2009, 2010)]
        for key in keys:
            assert hash(key) == hash((key.field, key.year))
        assert [tuple(k) for k in sorted(keys)] == sorted((k.field, k.year) for k in keys)
        key = FieldYearKey("F", 2010)
        assert str(key) == "F/2010"
        assert repr(key) == "FieldYearKey(field='F', year=2010)"

    def test_key_survives_pickle_and_copy(self):
        key = FieldYearKey("F", 2010)
        for clone in (pickle.loads(pickle.dumps(key)), copy.copy(key), copy.deepcopy(key)):
            assert clone == key and hash(clone) == hash(key)
            assert type(clone) is FieldYearKey and str(clone) == "F/2010"

    @pytest.mark.parametrize("field, year, message", [
        ("F", 2010.0, "year must be an integer, got 2010.0"),
        ("F", "2010", "year must be an integer, got '2010'"),
        ("F", 999, "year must be a 4-digit positive integer, got 999"),
        ("F", 10000, "year must be a 4-digit positive integer, got 10000"),
        (" ", 2010, "field label must be a non-empty string"),
        (7, 2010, "field label must be a non-empty string, got 7"),
    ])
    def test_every_way_of_building_a_key_validates(self, field, year, message):
        builders = [
            lambda: FieldYearKey(field, year),
            lambda: FieldYearKey._make((field, year)),
            lambda: FieldYearKey("F", 2010)._replace(field=field, year=year),
        ]
        for build in builders:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()

    def test_numpy_integer_year_is_stored_as_int(self, tmp_path):
        key = FieldYearKey("F", np.int64(2010))
        assert type(key.year) is int and key == FieldYearKey("F", 2010)
        cells = [ArticleSet(WORLD, key, (1, 2))]
        write_corpus(Corpus.from_cells(cells), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["WORLD__F__2010.tsv"]
        assert load_corpus(tmp_path).keys == {key}

    @pytest.mark.parametrize("group, field", [
        ("G/H", "F"), ("G\\H", "F"), ("G", "F/E"), ("G", "F\\E"), ("G", "F__E"),
    ])
    def test_label_that_cannot_name_a_file_is_rejected(self, tmp_path, group, field):
        label = group if group != "G" else field
        cell = make_cell(group, field, 2013, [1, 2])
        with pytest.raises(CorpusError, match=f"^label {re.escape(repr(label))} may not contain"):
            cell_filename(group, cell.key)
        (tmp_path / "G").mkdir()
        with pytest.raises(CorpusError, match=re.escape(repr(label))):
            write_cell(cell, tmp_path)
        assert [p.name for p in tmp_path.rglob("*")] == ["G"]

    @pytest.mark.parametrize("group, field", [("A_", "F"), ("G", "F_"), ("", "F")])
    def test_label_that_would_not_read_back_is_rejected(self, tmp_path, group, field):
        # A___F__2013.tsv is the name of the cell of group A and field _F.
        label = group if group != "G" else field
        cell = make_cell(group, field, 2013, [1, 2])
        with pytest.raises(CorpusError) as raised:
            write_cell(cell, tmp_path / "out")
        assert str(raised.value) == f"label {label!r} may not be empty or end in '_'"
        assert not (tmp_path / "out").exists()
        assert cell_filename("A", FieldYearKey("_F", 2013)) == "A___F__2013.tsv"
        assert _parse_filename(Path("A___F__2013.tsv")) == ("A", FieldYearKey("_F", 2013))

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(group=st.text("_/\\aBé .", max_size=6), field=st.text("_/\\aBé .", max_size=6),
           year=st.integers(1000, 9999))
    def test_every_name_written_reads_back(self, group, field, year):
        try:
            key = FieldYearKey(field, year)
            name = cell_filename(group, key)
        except ValueError:  # CorpusError among them
            return
        assert _parse_filename(Path(name)) == (group, key)

    @pytest.mark.parametrize("name, message", [
        ("A__F___2013.tsv", "A__F___2013.tsv: year '_2013' is not four ASCII digits"),
        ("__F__2013.tsv", "__F__2013.tsv: malformed cell filename"),
        pytest.param(r"Z\x__F__2013.tsv", r"Z\x__F__2013.tsv: label 'Z\\x' may not contain '\\'",
                     marks=pytest.mark.skipif(sys.platform == "win32",
                                              reason="a backslash separates paths on Windows")),
    ])
    def test_name_that_no_cell_is_written_under_is_refused(self, tmp_path, name, message):
        write_tsv(tmp_path, "WORLD__F__2013.tsv", ["a\t1"])
        write_tsv(tmp_path, name, ["b\t2"])
        for read in (load_corpus, lambda cells: sample_files(cells, tmp_path / "out", 1, 0)):
            with pytest.raises(CorpusError) as raised:
                read(tmp_path)
            assert str(raised.value) == message
        assert not (tmp_path / "out").exists()

    def test_article_set_validation(self):
        key = FieldYearKey("BIOC", 2013)
        with pytest.raises(ValueError):
            ArticleSet("G", key, ())
        with pytest.raises(ValueError):
            ArticleSet("G", key, (1, -2))

    @pytest.mark.parametrize(
        "counts",
        [
            [1.5, 2.7],
            np.array([1.9]),
            [1.0, 2.0],
            ["3", "4"],
            [True, False],
            np.array([True]),
            [1, None],
            [2**64],
            [-1, 2**63],
        ],
    )
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ValueError, match=r"cell G/BIOC/2013: counts must be integers"):
            ArticleSet("G", FieldYearKey("BIOC", 2013), counts)

    @pytest.mark.parametrize("counts", [[2**63], np.array([1, 2**63], dtype=np.uint64)])
    def test_uint64_counts_beyond_int64_rejected(self, counts):
        with pytest.raises(ValueError, match=r"cell G/BIOC/2013: a count exceeds 2\*\*63-1"):
            ArticleSet("G", FieldYearKey("BIOC", 2013), counts)

    @pytest.mark.parametrize("counts", [[[0, 5], [3, 0]], np.int64(4), 7])
    def test_counts_not_one_flat_sequence_rejected(self, counts):
        with pytest.raises(ValueError, match=r"cell G/BIOC/2013: counts must be one flat sequence"):
            ArticleSet("G", FieldYearKey("BIOC", 2013), counts)

    def test_empty_counts_rejected_before_their_dtype(self):
        # np.asarray(()) is float64: the cell must still read as empty
        for counts in ((), [], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="cell G/BIOC/2013 is empty"):
                ArticleSet("G", FieldYearKey("BIOC", 2013), counts)

    @pytest.mark.parametrize(
        "counts",
        [
            (0, 5, _COUNT_MAX),
            [np.int32(4), np.int64(2)],
            np.array([4, 2], dtype=np.uint8),
            np.array([4, _COUNT_MAX], dtype=np.uint64),
            np.array([7], dtype=np.int16),
            [0, 2**16 - 1],
            np.array([2**16, 1], dtype=np.int64),
            [3, 2**32 - 1],
            np.array([2**32], dtype=np.uint64),
        ],
    )
    def test_integer_counts_accepted(self, counts):
        cell = ArticleSet("G", FieldYearKey("BIOC", 2013), counts)
        assert cell.counts.dtype == width_rule(max(int(c) for c in counts))
        assert cell.counts.tolist() == [int(c) for c in counts]

    def test_counts_are_a_private_read_only_int64_array(self):
        # The cell's own counts are uint16 here; counts_array() is an int64 copy.
        source = np.array([3, 0, 1])
        cell = ArticleSet("G", FieldYearKey("BIOC", 2013), source)
        source[0] = 9
        assert cell.counts.dtype == np.uint16 and cell.counts.tolist() == [3, 0, 1]
        copy = cell.counts_array()
        assert copy.dtype == np.int64 and copy.tolist() == [3, 0, 1]
        copy[0] = 2**40
        assert cell.counts.tolist() == [3, 0, 1]
        with pytest.raises(ValueError, match="read-only"):
            cell.counts[0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.counts = np.array([1])
        assert (cell.n, cell.cited, cell.raw_mean) == (3, 2, 4 / 3)

    def test_corpus_requires_world_cell(self):
        with pytest.raises(CorpusError, match="missing world cell"):
            Corpus.from_cells([make_cell("G", "BIOC", 2013, [1, 2])])

    def test_corpus_built_directly_requires_world_cell(self):
        cell = make_cell("G", "BIOC", 2013, [1, 2])
        with pytest.raises(CorpusError, match="^missing world cell for G/BIOC/2013$"):
            Corpus({(cell.group, cell.key): cell})

    @pytest.mark.parametrize("group, field", [("G", "B"), (WORLD, "A")])
    def test_corpus_index_must_name_its_own_cell(self, group, field):
        # G's A/2013 entry holds another key's or another group's cell.
        stray = make_cell(group, field, 2013, [1, 2])
        cells = {("G", KEY_A): stray, (WORLD, KEY_A): make_cell(WORLD, "A", 2013, [0, 3])}
        message = f"^cell {group}/{field}/2013 filed under G/A/2013$"
        with pytest.raises(CorpusError, match=message):
            Corpus(cells)

    def test_corpus_rejects_duplicates(self):
        cells = [
            make_cell(WORLD, "BIOC", 2013, [1]),
            make_cell(WORLD, "BIOC", 2013, [2]),
        ]
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus.from_cells(cells)


class TestPairCells:
    """Paths the entry points' tests leave out; the other faults are cases of
    test_bootstrap's ``test_rejected_job_raises_before_any_draw``."""

    GROUP = [make_cell("G", "B", 2013, [1, 0]), make_cell("G", "A", 2013, [2])]

    def test_group_side_alone(self):
        group, world = pair_cells(self.GROUP)
        assert [cell.key for cell in group] == [FieldYearKey("A", 2013), FieldYearKey("B", 2013)]
        assert group == tuple(self.GROUP[::-1]) and world == ()
        with pytest.raises(ValueError, match=r"^mixed groups \['G', 'H'\]$"):
            pair_cells(self.GROUP + [make_cell("H", "C", 2013, [1])])

    def test_corpus_and_pair_cells_give_one_scope(self):
        # The same cells, in whatever order they arrive, make equal scopes in key order.
        world = [make_cell(WORLD, "A", 2013, [1]), make_cell(WORLD, "B", 2013, [0, 2])]
        corpus = Corpus.from_cells(world + self.GROUP)
        scope = corpus.scope("G", [KEY_B, KEY_A])
        assert scope == corpus.scope("G", {KEY_A, KEY_B}) == pair_cells(self.GROUP, world)
        assert scope == pair_cells(self.GROUP[::-1], world[::-1])
        assert [(c.group, c.key) for c in scope.group + scope.world] == [
            ("G", KEY_A), ("G", KEY_B), (WORLD, KEY_A), (WORLD, KEY_B)]

    def test_missing_world_keys_named_as_corpus_names_them(self):
        world = [make_cell(WORLD, "C", 2013, [1])]
        with pytest.raises(ValueError, match="^missing world cells for G/A/2013, G/B/2013$"):
            pair_cells(self.GROUP, world)

    def test_duplicate_world_key_rejected(self):
        world = [make_cell(WORLD, "A", 2013, [1]), make_cell(WORLD, "B", 2013, [1])]
        with pytest.raises(ValueError, match="^duplicate cell keys$"):
            pair_cells(self.GROUP, world + world[:1])


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

    def test_filename_year_below_1000_rejected(self, tmp_path):
        write_tsv(tmp_path, "G__F__0999.tsv", ["a\t1"])
        with pytest.raises(CorpusError) as raised:
            load_corpus(tmp_path)
        message = "G__F__0999.tsv: year must be a 4-digit positive integer, got 999"
        assert str(raised.value) == message

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

    @pytest.mark.parametrize("earlier", [None, (7, 8, 9)])
    def test_interrupted_write_leaves_the_file_as_it_was(self, tmp_path, monkeypatch, earlier):
        # A cell of four articles, written two lines at a time, whose second
        # batch fails: no file, or the one written before, stays behind.
        class Interrupted(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, slice) and index.start:
                    raise RuntimeError("interrupted")
                return super().__getitem__(index)

        monkeypatch.setattr(corpus_module, "_WRITE_ROWS", 2)
        key = FieldYearKey("F", 2013)
        if earlier is not None:
            write_cell(ArticleSet(WORLD, key, earlier), tmp_path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        counts = np.array([1, 2, 3, 4], np.uint16).view(Interrupted)
        cell = ArticleSet._adopt(WORLD, key, counts)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_cell(cell, tmp_path)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(rows=st.lists(
        st.tuples(
            st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n"), max_size=4),
            st.integers(0, _COUNT_MAX),
        ),
        min_size=1, max_size=6,
    ))
    def test_write_read_round_trip(self, tmp_path_factory, rows):
        # write_cell writes counts alone; the ids of a file go out through sample.
        ids, counts = zip(*rows)
        cell = ArticleSet(WORLD, FieldYearKey("BIOC", 2013), counts)
        directory = tmp_path_factory.getbasetemp() / "round-trip"
        written = write_cell(cell, directory)
        assert read_cell(written).counts.tolist() == list(counts)
        assert written_rows(written) == [("", str(c)) for c in counts]
        write_tsv(directory, written.name, [f"{i}\t{c}" for i, c in rows])
        assert load_with_ids(directory) == [((WORLD, cell.key), list(counts), list(ids))]


# A sample size that keeps every article of any cell.
KEEP_ALL = _COUNT_MAX


def written_rows(path):
    """The (id, count) fields of each line of a file write_cell or sample_files wrote.

    Those files end every line in LF and hold no blank line.
    """
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n") and "\r" not in text and "\n\n" not in text
    header, *lines = text[:-1].split("\n")
    assert header == _HEADER
    return [tuple(line.split("\t")) for line in lines]


def line_loop_read_cell(path):
    """The cell and ids of the line-by-line parser that read_cell replaced.

    It is kept as their reference.  It reads lone CRs as line ends, and
    raises the codec's own error on invalid UTF-8 and int()'s own on counts
    of over 4300 digits; read_cell gives a file:line message for each.
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
    return ArticleSet(group, key, counts), ids


def read_cell_and_ids(path):
    """read_cell's cell, with the ids sample_files copies once read_cell has checked the file.

    The ids are those of a copy of the file, named as a WORLD cell, in a
    directory of its own.
    """
    cell = read_cell(path)
    directory = path.parent / "single"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    shutil.copyfile(path, directory / ("WORLD__" + path.name.split("__", 1)[1]))
    ((_, _, ids),) = load_with_ids(directory)
    return cell, ids


def parse_outcome(reader, path):
    """(counts, ids) of a parsed cell, or the CorpusError message."""
    try:
        cell, ids = reader(path)
    except CorpusError as exc:
        return str(exc)
    return cell.counts.tolist(), ids


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
def cell_files(draw, valid_only: bool = False) -> bytes:
    """Cell file bytes with LF or CRLF ends and no lone CR; valid or not.

    With ``valid_only`` the header and every row are valid, though the file
    may still hold blank lines only.
    """
    ids = ARTICLE_IDS if draw(st.booleans()) else st.just("")
    valid = st.tuples(ids, VALID_COUNTS).map("\t".join)
    if valid_only or draw(st.booleans()):
        rows = st.one_of(valid, valid, valid, st.just(""))
    else:
        long = st.tuples(ids, LONG_COUNTS).map("\t".join)
        junk = st.tuples(ids, JUNK_COUNTS).map("\t".join)
        rows = st.one_of(valid, long, junk, st.just(""), ids)  # ids alone: one column
    header = _HEADER if valid_only else draw(HEADERS)
    lines = [header] + draw(st.lists(rows, min_size=1, max_size=8))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


class TestParserOracle:
    """read_cell, and sample_files keeping all, give the counts, ids and errors of the line loop."""

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(data=cell_files())
    def test_matches_line_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "G__F__2013.tsv"
        path.write_bytes(data)
        assert parse_outcome(read_cell_and_ids, path) == parse_outcome(line_loop_read_cell, path)

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"article_id\tcount\n", "G__F__2013.tsv: cell contains no articles"),
            (b"article_id\tcount", "G__F__2013.tsv: cell contains no articles"),
            (b"article_id\tcount\r\n\r\n\n", "G__F__2013.tsv: cell contains no articles"),
            (b"article_id\tcount\n\t1\n\n\r\n\n\t-2\n", "G__F__2013.tsv:6: negative count -2"),
            (b"", "G__F__2013.tsv:1: expected header 'article_id\\tcount', got ''"),
            (b"article_id\tcount\na\t3\n\nb\t0", ([3, 0], ["a", "b"])),
            (b"article_id\tcount\n\t0000000000000000000000012\n", ([12], [""])),
        ],
        ids=["header-only", "header-only-no-newline", "blank-lines-only", "after-blank-lines",
             "empty-file", "no-final-newline", "leading-zeros"],
    )
    def test_edge_cases(self, tmp_path, data, expected):
        path = tmp_path / "G__F__2013.tsv"
        path.write_bytes(data)
        assert parse_outcome(read_cell_and_ids, path) == expected
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


def load_outcome(reader, directory):
    """(cell key, counts, ids) of every cell in corpus order, or the error message."""
    try:
        return reader(directory)
    except CorpusError as exc:
        return str(exc)


def load_with_ids(directory):
    """load_corpus's cells, with the ids sample_files copies from them when it keeps all.

    It writes to ``kept`` beside ``directory``, and checks that each count
    is written as the cell holds it, without leading zeros.
    """
    cells = load_corpus(directory).cells
    out = Path(directory).parent / "kept"
    shutil.rmtree(out, ignore_errors=True)
    assert sample_files(directory, out, KEEP_ALL, 0) == len(cells)
    outcome = []
    for ck, cell in cells.items():
        ids, counts = zip(*written_rows(out / cell_filename(*ck)))
        assert list(counts) == [str(c) for c in cell.counts.tolist()]
        outcome.append((ck, cell.counts.tolist(), list(ids)))
    return outcome


def line_loop_load_corpus(directory):
    cells = [line_loop_read_cell(p) for p in sorted(Path(directory).glob("*.tsv"))]
    ids = {(cell.group, cell.key): ids for cell, ids in cells}
    corpus = Corpus.from_cells(cell for cell, _ in cells)
    return [(ck, cell.counts.tolist(), ids[ck]) for ck, cell in corpus.cells.items()]


# One name in eight is malformed, and a G cell may lack its WORLD cell.
CELL_NAMES = st.sampled_from(["WORLD"] * 5 + ["G", "G", "bad"]).map(
    lambda group: group + "_F{}" if group == "bad" else group + "__F{}__2013"
)


@st.composite
def cell_directories(draw) -> list[tuple[str, bytes]]:
    """1-6 (file name, bytes) pairs with distinct names, valid or not."""
    files = draw(st.lists(cell_files(valid_only=draw(st.booleans())), min_size=1, max_size=6))
    return [(draw(CELL_NAMES).format(i) + ".tsv", data) for i, data in enumerate(files)]


def write_directory(directory, files):
    for old in directory.glob("*.tsv"):
        old.unlink()
    for name, data in files:
        (directory / name).write_bytes(data)


class TestCorpusOracle:
    """load_corpus gives the cells, or the first error, of a file-by-file line loop.

    Small block budgets make blocks span files and cut files, inside runs
    of blank lines and before a last line without an LF.
    """

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(files=cell_directories(), block_bytes=st.sampled_from([1, 9, 300, BLOCK_BYTES]))
    def test_matches_line_loop(self, tmp_path_factory, files, block_bytes):
        directory = tmp_path_factory.getbasetemp() / "corpus"
        directory.mkdir(exist_ok=True)
        write_directory(directory, files)
        expected = load_outcome(line_loop_load_corpus, directory)
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", block_bytes):
            assert load_outcome(load_with_ids, directory) == expected

    @pytest.mark.parametrize("block_bytes", [1, 40, BLOCK_BYTES])
    def test_bad_line_before_bad_header(self, tmp_path, block_bytes):
        write_tsv(tmp_path, "WORLD__A__2013.tsv", ["a\t1", "b\tx", "c\t2"])
        (tmp_path / "WORLD__B__2013.tsv").write_text("id,count\na,1\n", encoding="utf-8")
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", block_bytes):
            with pytest.raises(CorpusError, match=r"^WORLD__A__2013\.tsv:3: count 'x'"):
                load_corpus(tmp_path)

    # At 10 bytes the first block holds A and B's first line, the second
    # B's last line and C.
    @pytest.mark.parametrize("block_bytes", [10, BLOCK_BYTES])
    def test_ids_in_one_file_of_a_block(self, tmp_path, block_bytes):
        write_tsv(tmp_path, "WORLD__A__2013.tsv", ["\t1", "\t2"])
        write_tsv(tmp_path, "WORLD__B__2013.tsv", ["x\t3", "\t4"])
        write_tsv(tmp_path, "WORLD__C__2013.tsv", ["\t5"])
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", block_bytes):
            cells = load_with_ids(tmp_path)
        assert [(counts, ids) for _, counts, ids in cells] == [
            ([1, 2], ["", ""]), ([3, 4], ["x", ""]), ([5], [""])
        ]

    @pytest.mark.parametrize("rows, line", [(["55"], 2), (["a\t1", "77"], 3), (["\t1\t2", "3"], 2)])
    @pytest.mark.parametrize("block_bytes", [4, BLOCK_BYTES])
    def test_digits_without_a_tab(self, tmp_path, rows, line, block_bytes):
        # A line of digits alone, here also at the start of a block, is one column.
        path = write_tsv(tmp_path, "WORLD__A__2013.tsv", rows)
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", block_bytes):
            with pytest.raises(CorpusError) as raised:
                load_corpus(tmp_path)
        assert str(raised.value) == parse_outcome(line_loop_read_cell, path)
        assert str(raised.value).startswith(f"WORLD__A__2013.tsv:{line}: ")

    # At 12 bytes A shares its first block with B, and B, with blank lines,
    # is cut into several pieces.
    @pytest.mark.parametrize("block_bytes", [1, 12, BLOCK_BYTES])
    def test_counts_are_read_only_and_pin_only_themselves(self, tmp_path, block_bytes):
        write_tsv(tmp_path, "WORLD__A__2013.tsv", ["\t1"])
        write_tsv(tmp_path, "WORLD__B__2013.tsv", ["\t2", "", "\t3", "", "\t4"])
        write_tsv(tmp_path, "WORLD__C__2013.tsv", ["\t5", "\t6"])
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", block_bytes):
            cells = list(load_corpus(tmp_path).cells.values())
        assert [c.counts.tolist() for c in cells] == [[1], [2, 3, 4], [5, 6]]
        for cell in cells:
            assert cell.counts.dtype == np.uint16 and not cell.counts.flags.writeable
            assert cell.counts.base is None or cell.counts.base.nbytes == cell.counts.nbytes

    # At 1 byte every line is a block of its own.  At 12 bytes B's pieces
    # are its first two lines (with A), 70000 and 3, 2**40 alone, then 4
    # (with C's first line).  Either way B starts as uint16, widens to
    # uint32 and then to uint64; in one block it is a single uint64 piece.
    @pytest.mark.parametrize("block_bytes", [1, 12, BLOCK_BYTES])
    def test_cell_widens_mid_file(self, tmp_path, block_bytes):
        write_tsv(tmp_path, "WORLD__A__2013.tsv", ["\t9"])
        rows = ["\t1", "\t2", "", "\t70000", "\t3", f"\t{2**40}", "\t4"]
        path = write_tsv(tmp_path, "WORLD__B__2013.tsv", rows)
        write_tsv(tmp_path, "WORLD__C__2013.tsv", ["\t70000", "\t5"])
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", block_bytes):
            cells = list(load_corpus(tmp_path).cells.values())
            expected = parse_outcome(line_loop_read_cell, path)
            assert parse_outcome(read_cell_and_ids, path) == expected
        assert [c.counts.tolist() for c in cells] == [
            [9], [1, 2, 70000, 3, 2**40, 4], [70000, 5]
        ]
        assert [c.counts.dtype for c in cells] == [np.uint16, np.uint64, np.uint32]
        for cell in cells:
            assert not cell.counts.flags.writeable
            assert cell.counts.base is None or cell.counts.base.nbytes == cell.counts.nbytes

    def test_parsed_counts_exist_once(self, tmp_path):
        # The traced peak of reading a file cut into many blocks is its
        # counts, its bytes and one block's temporaries, measured at 1.0 MB;
        # a copy of the counts (uint16 here) would add another 2 MB.
        n = 10**6
        path = tmp_path / "WORLD__A__2013.tsv"
        path.write_bytes(b"article_id\tcount\n" + b"\t7\n" * n)
        gc.collect()
        tracemalloc.start()
        try:
            cell = read_cell(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cell.n == n and cell.counts.base is None
        assert peak <= cell.counts.nbytes + path.stat().st_size + 2 * 2**20

    def test_long_count_inside_a_split_file(self, tmp_path):
        rows = [f"a{i}\t{i}" for i in range(40)]
        rows[20] = "a20\t" + "0" * 20 + "12345"
        path = write_tsv(tmp_path, "WORLD__A__2013.tsv", rows)
        with mock.patch.object(corpus_module, "_BLOCK_BYTES", 64):
            assert load_corpus(tmp_path).world(FieldYearKey("A", 2013)).counts.tolist() == (
                list(range(20)) + [12345] + list(range(21, 40))
            )
            rows[30] = "a30\t" + "9" * 19
            write_tsv(tmp_path, "WORLD__A__2013.tsv", rows)
            with pytest.raises(CorpusError) as raised:
                load_corpus(tmp_path)
        error = f"WORLD__A__2013.tsv:32: count {'9' * 19} exceeds 2**63-1"
        assert str(raised.value) == parse_outcome(line_loop_read_cell, path) == error


def sorted_snapshot_moments(counts: np.ndarray) -> tuple:
    """The five moments as separate expressions over an explicit sorted snapshot."""
    ordered = np.sort(counts)
    logs = np.log1p(ordered)
    raw_mean, log_mean = float(ordered.mean()), float(logs.mean())
    return (
        ordered.size - int(np.searchsorted(ordered, 0, side="right")),
        raw_mean,
        float(np.sum((ordered - raw_mean) ** 2)),
        log_mean,
        float(np.sum((logs - log_mean) ** 2)),
    )


def bits(moments: tuple) -> tuple:
    return tuple(m if isinstance(m, int) else float(m).hex() for m in moments)


class TestCellMemory:
    """A cell keeps its counts and five numbers; its moments are those of a sorted snapshot."""

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(
        n=st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 3 * 8192)),
        shape=st.sampled_from(["small", "lognormal", "near_max", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_moments_match_a_sorted_snapshot(self, n, shape, seed):
        rng = np.random.default_rng(seed)
        near_max = _COUNT_MAX - rng.integers(0, 1000, n)
        counts = {
            "small": rng.integers(0, 4, n),
            "lognormal": np.floor(rng.lognormal(1.0, 2.0, n)).astype(np.int64),
            "near_max": near_max,
            "mixed": np.where(rng.random(n) < 0.5, near_max, rng.integers(0, 4, n)),
        }[shape]
        cell = ArticleSet("G", FieldYearKey("BIOC", 2013), counts)
        moments = (cell.cited, cell.raw_mean, cell.raw_m2, cell.log_mean, cell.log_m2)
        assert bits(moments) == bits(sorted_snapshot_moments(counts))

    @pytest.mark.parametrize("largest", [2**16 - 1, 2**16, 2**32 - 1, 2**32, _COUNT_MAX])
    def test_moments_at_every_width(self, largest):
        # Whatever the width, the statistics are those of the int64 counts,
        # with ln(1+c) in float64.
        counts = np.random.default_rng(3).integers(0, 60, 5000)
        counts[[7, 4000]] = largest, largest // 3
        cell = ArticleSet("G", FieldYearKey("BIOC", 2013), counts)
        assert cell.counts.dtype == width_rule(largest)
        moments = (cell.cited, cell.raw_mean, cell.raw_m2, cell.log_mean, cell.log_m2)
        assert moments == sorted_snapshot_moments(counts)

    @pytest.mark.parametrize("sigma, dtype", [(1.0, np.uint16), (3.0, np.uint32)])
    def test_statistics_of_a_million_articles_match_exact_sums(self, sigma, dtype):
        # The mean is the exact mean rounded once; M2 and the log statistics
        # are within 1e-12 of exact or fsum references.  Measured: raw_m2 is
        # 1 ulp off at sigma 1 and exact at sigma 3, the log statistics
        # within 1.5e-16, so the float64 sums are not bit-exact for every cell.
        cell = generate_cell(LognormalSpec(1.0, sigma, 0.0, 10**6, seed=11),
                             FieldYearKey("BIOC", 2013), "G")
        assert cell.counts.dtype == dtype
        values, freqs = (array.tolist() for array in np.unique(cell.counts, return_counts=True))
        total = sum(v * f for v, f in zip(values, freqs))
        m2 = sum(v * v * f for v, f in zip(values, freqs)) - Fraction(total**2, cell.n)
        logs = [math.log1p(v) for v in values]
        log_mean = math.fsum(f * log for f, log in zip(freqs, logs)) / cell.n
        log_m2 = math.fsum(f * (log - log_mean) ** 2 for f, log in zip(freqs, logs))
        assert cell.raw_mean == float(Fraction(total, cell.n))
        assert cell.raw_m2 == pytest.approx(float(m2), rel=1e-12, abs=0)
        assert cell.log_mean == pytest.approx(log_mean, rel=1e-12, abs=0)
        assert cell.log_m2 == pytest.approx(log_m2, rel=1e-12, abs=0)

    def test_cell_holds_only_its_counts(self):
        n = 10**5
        source = np.random.default_rng(5).integers(0, 50, n)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cell = ArticleSet("G", FieldYearKey("BIOC", 2013), source)
            built = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert cell.log_sd is not None and cell.raw_m2 > 0 and 0 < cell.cited <= n
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [value for value in vars(cell).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is cell.counts
        # Measured: 3.6 KB held beside the counts (the cell object, its
        # fields and the five numbers), and 68 KB of peak beside the two
        # n-length temporaries (numpy's cast buffers of 8192 elements).
        assert held - before <= cell.counts.nbytes + 16 * 2**10
        assert peak - built <= 2 * 8 * n + 128 * 2**10


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

    def test_ids_stay_aligned(self, tmp_path):
        write_tsv(tmp_path, "WORLD__F__2013.tsv", [f"id{c}\t{c}" for c in range(100)])
        assert sample_files(tmp_path, tmp_path / "out", 10, 5) == 1
        cell, ids = line_loop_read_cell(tmp_path / "out" / "WORLD__F__2013.tsv")
        assert cell.n == 10 and ids == [f"id{c}" for c in cell.counts.tolist()]

    @pytest.mark.parametrize("size, lines", [
        (KEEP_ALL, b"a\t1\nnotab\n\t2\n"),
        (2, b"notab\nnotab\n\t2\n"),  # any two of the three keep a line without a tab
    ], ids=["all", "two"])
    def test_kept_line_without_a_tab_refused(self, tmp_path, monkeypatch, size, lines):
        # The file holds three articles when load_corpus checks it, and a
        # line without a tab, but still three articles, when sample copies it.
        (tmp_path / "cells").mkdir()
        source = write_tsv(tmp_path / "cells", "WORLD__F__2013.tsv", ["a\t1", "b\t3", "\t2"])
        out = tmp_path / "out"
        assert sample_files(source.parent, out, size, 0) == 1
        earlier = (out / source.name).read_bytes()
        load = corpus_module.load_corpus

        def load_then_change(directory):
            corpus = load(directory)
            source.write_bytes(b"article_id\tcount\n" + lines)
            return corpus

        monkeypatch.setattr(corpus_module, "load_corpus", load_then_change)
        with pytest.raises(CorpusError, match=r"^WORLD__F__2013\.tsv: a line lost its tab"
                                              r" since it was checked$"):
            sample_files(source.parent, out, size, 0)
        assert [p.name for p in out.iterdir()] == [source.name]
        assert (out / source.name).read_bytes() == earlier

    def test_binomial_concentration(self):
        # Half zeros, half ones: the sampled share of ones stays near 0.5.
        counts = [0] * 5000 + [1] * 5000
        cell = make_cell("G", "F", 2013, counts)
        sampled = sample_cell(cell, SampleSpec(1000, seed=7))
        share = sum(sampled.counts) / 1000
        assert abs(share - 0.5) <= 0.05


class TestIntegerFields:
    @pytest.mark.parametrize("spec, settings, message", [
        (SampleSpec, {"size": 10.5}, "sample size must be an integer, got 10.5"),
        (SampleSpec, {"seed": 1.5}, "sample seed must be an integer, got 1.5"),
        (SampleSpec, {"size": True}, "sample size must be an integer, got True"),
        (LognormalSpec, {"n": 10.5}, "lognormal n must be an integer, got 10.5"),
        (LognormalSpec, {"seed": 1.5}, "lognormal seed must be an integer, got 1.5"),
        (LognormalSpec, {"seed": False}, "lognormal seed must be an integer, got False"),
        (ExclusionPolicy, {"min_articles": 100.5},
         "exclusion min_articles must be an integer, got 100.5"),
        (ExclusionPolicy, {"min_articles": "100"},
         "exclusion min_articles must be an integer, got '100'"),
    ])
    def test_other_values_rejected(self, spec, settings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec(**settings)

    def test_numpy_integers_taken_as_ints(self):
        cell = make_cell("G", "F", 2013, range(100))
        spec = SampleSpec(np.int64(10), np.int64(-1))
        assert spec == SampleSpec(10, -1) and type(spec.seed) is int
        assert sample_cell(cell, spec).counts.tolist() == sample_cell(
            cell, SampleSpec(10, 2**64 - 1)).counts.tolist()
        assert ExclusionPolicy(np.int32(5)) == ExclusionPolicy(5)
        key = FieldYearKey("F", 2013)
        drawn = generate_cell(LognormalSpec(n=np.int64(50), seed=np.uint64(2**64 - 3)), key, "G")
        assert drawn.counts.tolist() == generate_cell(
            LognormalSpec(n=50, seed=-3), key, "G").counts.tolist()


def held(value):
    """``value`` with each Corpus in it, at any depth of lists, as its cells' counts."""
    if isinstance(value, list):
        return [held(item) for item in value]
    if isinstance(value, Corpus):
        return {key: cell.counts.tolist() for key, cell in value.cells.items()}
    return value


SAMPLED = Corpus.from_cells([make_cell(group, "F", 2013, range(50)) for group in ("G", WORLD)])
# Each place a seed enters, as a function of that seed.
SEED_ENTRIES = {
    "SampleSpec": lambda seed: SampleSpec(10, seed),
    "BootstrapSpec": lambda seed: BootstrapSpec(100, seed),
    "LognormalSpec": lambda seed: LognormalSpec(seed=seed),
    "ReportConfig": lambda seed: ReportConfig(seed=seed),
    "sample_corpus": lambda seed: sample_corpus(SAMPLED, 10, seed),
    "scenario_grid": lambda seed: scenario_grid(ns=[20], base_seed=seed),
    "derive_stream_seed": lambda seed: derive_stream_seed(seed, "G", "F"),
}


# Each real-valued setting, by the name its error gives, as a function of its value.
REAL_ENTRIES = {
    "report alpha": lambda value: ReportConfig(alpha=value).alpha,
    "exclusion min_fraction_of_mean":
        lambda value: ExclusionPolicy(100, value).min_fraction_of_mean,
    "lognormal mu": lambda value: LognormalSpec(mu=value).mu,
    "lognormal sigma": lambda value: LognormalSpec(sigma=value).sigma,
    "lognormal zero_inflation": lambda value: LognormalSpec(zero_inflation=value).zero_inflation,
}


@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_real_rule_holds_where_a_real_setting_enters(entry):
    # One rule, beside the integers': a real number, numpy reals included, held as a float.
    make = REAL_ENTRIES[entry]
    for value in (0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4)):
        held = make(value)
        assert type(held) is float and held == 0.25
    for value in (True, np.bool_(True), "0.25", None):
        message = f"^{entry} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            make(value)


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_seed_rule_holds_where_a_seed_enters(entry):
    # One rule, corpus.check_seed: an integer, held mod 2**64.
    make = SEED_ENTRIES[entry]
    assert held(make(-1)) == held(make(2**64 - 1)) == held(make(np.int64(-1)))
    assert held(make(-1)) != held(make(0))
    for seed in (True, 1.5, "3"):
        message = f"seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            make(seed)


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
