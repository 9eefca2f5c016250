from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from fieldnorm.corpus import (
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
