from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import fieldnorm.bootstrap
import fieldnorm.report
from fieldnorm.corpus import (
    WORLD, ArticleSet, Corpus, ExclusionPolicy, apply_exclusion, sample_corpus,
)
from fieldnorm.indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
)
from fieldnorm.report import (
    CI_METHODS,
    CSV_HEADER,
    IndicatorReport,
    ReportConfig,
    build_report,
    metadata_path,
    write_csv,
    write_metadata,
)

from conftest import make_cell, read_csv_rows


@pytest.fixture
def demo_report(demo_corpus):
    config = ReportConfig(indicators=(MNLCS, EMNPC, MNPC), ci_methods=("formula",))
    return build_report(demo_corpus, config)


def row(report, **match):
    found = [
        r for r in report.rows if all(getattr(r, k) == v for k, v in match.items())
    ]
    assert len(found) == 1, f"expected one row for {match}, got {len(found)}"
    return found[0]


class TestReportConfig:
    @pytest.mark.parametrize("settings, message", [
        ({"ci_methods": ("fieller",), "expansion_mode": "literall"},
         "unknown expansion mode 'literall'"),
        ({"indicators": (EMNPC, MNPC), "continuity": "of"}, "unknown continuity mode 'of'"),
    ])
    def test_unknown_mode_rejected(self, settings, message):
        with pytest.raises(ValueError, match=message):
            ReportConfig(**settings)

    @pytest.mark.parametrize("settings, message", [
        ({"indicators": ()}, "at least one indicator is required"),
        ({"indicators": (MNLCS, "MNLSC")}, r"unknown indicators \['MNLSC'\]"),
        ({"indicators": (MNLCS, EMNPC, MNLCS)}, "duplicate indicators"),
        ({"indicators": (MNCS,), "ci_methods": ("fieller",)}, "fieller is MNLCS only"),
        ({"ci_methods": ("formula", "bootstrapp")}, r"unknown ci methods \['bootstrapp'\]"),
        ({"ci_methods": ()}, "no ci method"),
        ({"ci_methods": ("formula", "formula")},
         r"duplicate ci methods in \['formula', 'formula'\]"),
        ({"exclusion": None}, "exclusion must be an ExclusionPolicy, got None"),
        ({"ci_methods": ("bootstrap",), "resample_world": "off"},
         "resample_world must be None or a bool, got 'off'"),
        ({"ci_methods": ("bootstrap",), "bootstrap_iterations": 150.5},
         "bootstrap iterations must be an integer, got 150.5"),
        ({"ci_methods": ("bootstrap",), "seed": 3.0}, "report seed must be an integer, got 3.0"),
        ({"seed": True}, "report seed must be an integer, got True"),
    ])
    def test_config_that_yields_no_row_or_a_wrong_one_rejected(self, settings, message):
        with pytest.raises(ValueError, match=message):
            ReportConfig(**settings)

    def test_numpy_integer_seed_runs_as_its_int(self, demo_corpus, tmp_path):
        # The seed reaches derive_stream_seed, and the sidecar's JSON, as an int.
        settings = dict(ci_methods=("bootstrap",), bootstrap_iterations=100,
                        exclusion=ExclusionPolicy(1, 0.0))
        config = ReportConfig(seed=np.int64(3), **settings)
        assert type(config.seed) is int
        report = build_report(demo_corpus, config)
        assert report == build_report(demo_corpus, ReportConfig(seed=3, **settings))
        assert json.loads(write_metadata(report, tmp_path / "r.csv").read_text())["seed"] == 3

    def test_sample_size_samples_each_cell_as_sample_corpus(self, demo_corpus):
        # build_report is where a run samples, library and compute alike.
        settings = dict(indicators=(MNLCS, MNPC), exclusion=ExclusionPolicy(1, 0.0), seed=5)
        report = build_report(demo_corpus, ReportConfig(sample_size=4, **settings))
        sampled = build_report(sample_corpus(demo_corpus, 4, 5), ReportConfig(**settings))
        assert report.rows == sampled.rows
        assert report.rows != build_report(demo_corpus, ReportConfig(**settings)).rows
        assert {r.n for r in report.rows if r.scope == "Y2013"} == {8}

    def test_numpy_integer_sample_size_held_as_its_int(self, demo_corpus, tmp_path):
        config = ReportConfig(sample_size=np.int64(100))
        assert type(config.sample_size) is int
        report = build_report(demo_corpus, config)
        text = write_metadata(report, tmp_path / "r.csv").read_text()
        assert '"sample_size": 100,' in text

    @pytest.mark.parametrize("size", [0, 1.5, True])
    def test_invalid_sample_size_rejected(self, size):
        with pytest.raises(ValueError, match="sample size must be"):
            ReportConfig(sample_size=size)

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, np.int64(-1), 2**65 - 1])
    def test_seed_held_mod_2_64(self, seed):
        # Seeds equal mod 2**64 give the same streams, so the same config.
        assert ReportConfig(seed=seed) == ReportConfig(seed=2**64 - 1)
        assert type(ReportConfig(seed=seed).seed) is int

    def test_fieller_with_mnlcs_among_others_accepted(self):
        ReportConfig(indicators=(MNCS, MNLCS), ci_methods=("fieller",))

    def test_every_mode_accepted(self):
        for continuity in ("auto", "on", "off"):
            for expansion_mode in ("literal", "expand_from_mean"):
                ReportConfig(continuity=continuity, expansion_mode=expansion_mode)


class TestBuildReport:
    def test_worked_example_values(self, demo_report):
        combined = row(demo_report, group="G", scope="ALL", indicator=MNLCS)
        assert round(combined.estimate, 2) == 1.09
        assert combined.n == 10
        world = row(demo_report, group=WORLD, scope="ALL", indicator=MNLCS)
        assert world.estimate == pytest.approx(1.0, abs=1e-9)

    def test_emnpc_and_mnpc_rows(self, demo_corpus):
        config = ReportConfig(indicators=(EMNPC, MNPC), exclusion=ExclusionPolicy(1, 0.0))
        report = build_report(demo_corpus, config)
        assert row(report, group="G", scope="ALL", indicator=EMNPC).estimate == pytest.approx(
            1.0769, abs=5e-4
        )
        assert row(report, group="G", scope="ALL", indicator=MNPC).estimate == pytest.approx(1.1)

    def test_world_ratio_rows_are_one(self, demo_report):
        for indicator in (MNLCS, EMNPC, MNPC):
            world = row(demo_report, group=WORLD, scope="ALL", indicator=indicator)
            assert world.estimate == pytest.approx(1.0, abs=1e-9)

    def test_per_year_and_all_scopes_present(self, demo_corpus):
        report = build_report(demo_corpus, ReportConfig(indicators=(MNLCS,)))
        scopes = {r.scope for r in report.rows}
        assert scopes == {"Y2013", "ALL"}

    def test_zero_world_cell_fragility_contrast(self):
        # one uncited world cell: MNPC undefined, EMNPC still defined
        corpus = Corpus.from_cells(
            [
                make_cell("G", "A", 2013, [1, 0, 2]),
                make_cell("G", "B", 2013, [1, 1, 0]),
                make_cell(WORLD, "A", 2013, [0, 0, 0]),
                make_cell(WORLD, "B", 2013, [1, 0, 1]),
            ]
        )
        config = ReportConfig(indicators=(EMNPC, MNPC), exclusion=ExclusionPolicy(1, 0.0))
        report = build_report(corpus, config)
        mnpc_row = row(report, group="G", scope="ALL", indicator=MNPC)
        assert not mnpc_row.defined
        assert mnpc_row.estimate is None
        assert "zero world proportion" in mnpc_row.notes
        emnpc_row = row(report, group="G", scope="ALL", indicator=EMNPC)
        assert emnpc_row.defined
        assert emnpc_row.estimate is not None

    def test_undefined_mean_indicator_flagged_not_fatal(self):
        corpus = Corpus.from_cells(
            [
                make_cell("G", "A", 2013, [1, 2]),
                make_cell(WORLD, "A", 2013, [0, 0]),
            ]
        )
        report = build_report(corpus, ReportConfig(indicators=(MNLCS,)))
        flagged = row(report, group="G", scope="ALL", indicator=MNLCS)
        assert not flagged.defined and flagged.estimate is None

    def test_exclusion_applies_only_to_equalised_indicators(self):
        cells = []
        for field, size in (("BIG", 400), ("SMALL", 30)):
            counts = [1, 0] * (size // 2)
            cells.append(make_cell("G", field, 2013, counts))
            cells.append(make_cell(WORLD, field, 2013, counts * 2))
        corpus = Corpus.from_cells(cells)
        config = ReportConfig(
            indicators=(MNLCS, EMNPC, EQ_PROP_CITED, MNPC),
            exclusion=ExclusionPolicy(min_articles=100, min_fraction_of_mean=0.25),
        )
        report = build_report(corpus, config)
        assert row(report, group="G", scope="ALL", indicator=MNLCS).n == 430
        assert row(report, group="G", scope="ALL", indicator=MNPC).n == 430
        assert row(report, group="G", scope="ALL", indicator=EMNPC).n == 400
        assert row(report, group="G", scope="ALL", indicator=EQ_PROP_CITED).n == 400

    def test_all_cells_excluded_yields_flagged_row(self):
        corpus = Corpus.from_cells(
            [make_cell("G", "A", 2013, [1, 0]), make_cell(WORLD, "A", 2013, [1, 0])]
        )
        config = ReportConfig(indicators=(EMNPC,), exclusion=ExclusionPolicy())
        report = build_report(corpus, config)
        flagged = row(report, group="G", scope="ALL", indicator=EMNPC)
        assert not flagged.defined
        assert "exclusion" in flagged.notes

    def test_each_scope_is_resolved_once(self, monkeypatch):
        # Three fields by two years for two groups; G2's B cells fall below
        # the exclusion floor, so the equalised indicators read other key sets.
        cells = []
        for field, year in itertools.product("ABC", (2013, 2014)):
            cells.append(make_cell(WORLD, field, year, [0, 1, 2, 5] * 60))
            cells.append(make_cell("G1", field, year, [0, 1, 3] * 50))
            cells.append(make_cell("G2", field, year, [1, 2] * (10 if field == "B" else 80)))
        corpus = Corpus.from_cells(cells)
        policy = ExclusionPolicy()
        distinct = set()
        for group in ("G1", "G2", WORLD):
            all_keys = corpus.keys_for(group)
            retained = all_keys if group == WORLD else apply_exclusion(corpus, group, policy)
            scopes = [{k for k in all_keys if k.year == year} for year in (2013, 2014)]
            for keys in scopes + [all_keys]:
                distinct.add((group, frozenset(keys)))
                distinct.add((group, frozenset(keys & retained)))
        assert len(distinct) == 12  # 3 groups x 3 scopes, and G2's 3 without B

        resolved = []
        resolve = Corpus.scope

        def counted(self, group, keys):
            resolved.append((group, frozenset(keys)))
            return resolve(self, group, keys)

        monkeypatch.setattr(Corpus, "scope", counted)
        config = ReportConfig(
            indicators=(MNLCS, MNCS, LUNDBERG_Z, EMNPC, MNPC, PROP_CITED, EQ_PROP_CITED),
            ci_methods=("formula", "fieller"),
            exclusion=policy,
        )
        report = build_report(corpus, config)
        assert len(report.rows) == 3 * 3 * 8
        assert len(resolved) == len(set(resolved))
        assert set(resolved) == distinct

    def test_exclusion_skipped_without_an_equalised_indicator(self, monkeypatch):
        # SMALL falls below the floor, so a row that read the retained keys
        # would differ from the run without a policy.
        cells = []
        for field, size in (("BIG", 400), ("SMALL", 30)):
            counts = [1, 0, 4] * (size // 3)
            cells.append(make_cell("G", field, 2013, counts))
            cells.append(make_cell(WORLD, field, 2013, counts * 2))
        corpus = Corpus.from_cells(cells)
        calls = []

        def counted(*args):
            calls.append(args)
            return apply_exclusion(*args)

        monkeypatch.setattr(fieldnorm.report, "apply_exclusion", counted)
        config = ReportConfig(indicators=(MNLCS,), ci_methods=("formula", "fieller"))
        report = build_report(corpus, config)
        assert calls == []
        keep_all = replace(config, exclusion=ExclusionPolicy(1, 0.0))
        assert report.rows == build_report(corpus, keep_all).rows
        build_report(corpus, replace(config, indicators=(MNLCS, EMNPC)))
        assert len(calls) == 1  # group G; WORLD rows keep every cell

    def test_point_computed_once_per_scope_and_indicator(self, demo_corpus, monkeypatch):
        points, redrawn_points = [], []
        estimate = fieldnorm.bootstrap.indicator_result
        kernel = fieldnorm.bootstrap.indicator_estimate

        def counted(indicator, keys, group, world):
            points.append((indicator, group[0].group))
            return estimate(indicator, keys, group, world)

        def counted_kernel(indicator, keys, group, world):
            # Replicates come as CellReplicates; a point comes as the ArticleSets.
            if all(isinstance(cell, ArticleSet) for cell in group):
                redrawn_points.append(indicator)
            return kernel(indicator, keys, group, world)

        monkeypatch.setattr(fieldnorm.bootstrap, "indicator_result", counted)
        monkeypatch.setattr(fieldnorm.bootstrap, "indicator_estimate", counted_kernel)
        config = ReportConfig(indicators=(MNLCS, EMNPC), ci_methods=CI_METHODS,
                              bootstrap_iterations=100, exclusion=ExclusionPolicy(1, 0.0))
        report = build_report(demo_corpus, config)
        # (G, WORLD) x (Y2013, ALL) x (MNLCS by three methods, EMNPC by two).
        assert len(report.rows) == 2 * 2 * 5
        # Y2013 and ALL hold the same cells, so they are one Scope.
        assert sorted(points) == sorted(itertools.product((MNLCS, EMNPC), ("G", WORLD)))
        # The bootstrap rows take that point; the draw computes none again.
        assert redrawn_points == []

    def test_corpus_holds_only_its_cells(self, demo_corpus):
        config = ReportConfig(indicators=(MNLCS, EMNPC), ci_methods=("formula", "fieller"),
                              exclusion=ExclusionPolicy())
        build_report(demo_corpus, config)
        assert set(vars(demo_corpus)) == {"cells"}

    def test_fieller_only_for_mnlcs(self, demo_corpus):
        config = ReportConfig(indicators=(MNLCS, MNCS), ci_methods=("fieller",))
        report = build_report(demo_corpus, config)
        assert {r.indicator for r in report.rows} == {MNLCS}

    def test_bootstrap_rows(self, demo_corpus):
        config = ReportConfig(
            indicators=(MNLCS,), ci_methods=("bootstrap",), bootstrap_iterations=150
        )
        report = build_report(demo_corpus, config)
        boot = row(report, group="G", scope="ALL", indicator=MNLCS)
        assert boot.method == "BOOTSTRAP_PERCENTILE"
        assert boot.lower <= boot.estimate <= boot.upper

    def test_proportion_rows(self, demo_corpus):
        config = ReportConfig(indicators=(PROP_CITED, EQ_PROP_CITED))
        report = build_report(demo_corpus, config)
        prop = row(report, group="G", scope="ALL", indicator=PROP_CITED)
        assert prop.estimate == pytest.approx(0.7)
        assert prop.method == "WILSON"
        assert 0.0 <= prop.lower <= prop.estimate <= prop.upper <= 1.0


class TestCsvOutput:
    def test_header_and_round_trip(self, demo_report, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(demo_report, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert "\r" not in text
        parsed = read_csv_rows(path)
        assert len(parsed) == len(demo_report.rows)
        by_key = {
            (r.group, r.scope, r.indicator, r.method): r for r in demo_report.rows
        }
        for record in parsed:
            source = by_key[
                (record["group"], record["scope"], record["indicator"], record["method"])
            ]
            if source.estimate is None:
                assert record["estimate"] is None
            else:
                assert record["estimate"] == pytest.approx(source.estimate, rel=1e-5)

    def test_byte_identical_rewrite(self, demo_report, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(demo_report, first)
        write_csv(demo_report, second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(IndicatorReport(rows=(), metadata={}), path)
        assert path.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n"

    def test_six_significant_digits(self, demo_report, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(demo_report, path)
        target = [
            line for line in path.read_text().splitlines()
            if line.startswith("G,ALL,10,MNLCS")
        ]
        assert len(target) == 1
        assert target[0].split(",")[4] == "1.08952"

    def test_undefined_limits_serialised_empty(self, tmp_path):
        corpus = Corpus.from_cells(
            [
                make_cell("G", "A", 2013, [1, 1]),
                make_cell(WORLD, "A", 2013, [0, 0]),
            ]
        )
        report = build_report(corpus, ReportConfig(indicators=(MNLCS,)))
        path = tmp_path / "r.csv"
        write_csv(report, path)
        data_row = path.read_text().splitlines()[1].split(",")
        assert data_row[4] == "" and data_row[5] == "" and data_row[6] == ""
        assert data_row[8] == "false"

    def test_sidecar_is_the_config(self, demo_corpus, tmp_path):
        config = ReportConfig(exclusion=ExclusionPolicy())
        report = build_report(demo_corpus, config)
        path = tmp_path / "report.csv"
        meta = json.loads(write_metadata(report, path, input_dir="cells").read_text())
        fields = {f.name for f in dataclasses.fields(ReportConfig)}
        derived = {"resample_world_defaults", "bootstrap_iteration_defaults",
                   "percentile_definition"}
        assert set(meta) == fields | {"input_dir"} | derived
        assert meta["input_dir"] == "cells" and meta["sample_size"] is None
        assert meta["exclusion"] == {"min_articles": 100, "min_fraction_of_mean": 0.25}
        assert meta["indicators"] == [MNLCS]

    def test_metadata_sidecar(self, demo_report, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(demo_report, path)
        side = write_metadata(demo_report, path)
        assert side == metadata_path(path)
        meta = json.loads(side.read_text())
        assert meta["alpha"] == 0.05
        assert meta["percentile_definition"] == "nearest-rank"
