from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest

from fieldnorm import cli
from fieldnorm.cli import main
from fieldnorm.corpus import FieldYearKey, SampleSpec, load_corpus, write_corpus
from fieldnorm.report import ReportConfig, metadata_path
from fieldnorm.synthetic import GROUP_SHIFTS_DEFAULT, LognormalSpec

from conftest import read_csv_rows


def write_demo_corpus(directory, demo_corpus):
    write_corpus(demo_corpus, directory)
    return directory


def run(argv):
    return main([str(a) for a in argv])


def write_malformed_dir(directory):
    """A directory whose one cell file holds ``x`` as a count."""
    directory.mkdir()
    (directory / "G__A__2013.tsv").write_text("article_id\tcount\na\tx\n")
    return directory


class TestCompute:
    def test_worked_example_mnlcs(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out = tmp_path / "report.csv"
        status = run(["compute", "--input-dir", indir, "--output", out,
                      "--indicators", "mnlcs", "--ci", "formula"])
        assert status == 0
        rows = read_csv_rows(out)
        combined = [
            r for r in rows if r["group"] == "G" and r["scope"] == "ALL"
        ]
        assert round(combined[0]["estimate"], 2) == 1.09
        assert "G:" in capsys.readouterr().out

    def test_every_method_prints_the_indicator_values(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        printed = {}
        for ci in ("formula", "bootstrap", "all"):
            assert run(["compute", "--input-dir", indir, "--output", tmp_path / f"{ci}.csv",
                        "--indicators", "mnlcs,emnpc", "--ci", ci,
                        "--bootstrap-iters", "100"]) == 0
            printed[ci] = capsys.readouterr().out
        assert "G: n=10 MNLCS=1.090 EMNPC=" in printed["bootstrap"]
        assert printed["bootstrap"] == printed["all"] == printed["formula"]

    def test_no_applicable_method_fails(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out = tmp_path / "r.csv"
        status = run(["compute", "--input-dir", indir, "--output", out,
                      "--indicators", "mncs", "--ci", "fieller"])
        assert status == 1
        assert "fieller is MNLCS only" in capsys.readouterr().err
        assert not out.exists()

    def test_undefined_mnpc_still_exits_zero(self, tmp_path, capsys):
        indir = tmp_path / "cells"
        indir.mkdir()
        (indir / "G__A__2013.tsv").write_text("article_id\tcount\n\t1\n\t0\n")
        (indir / "WORLD__A__2013.tsv").write_text("article_id\tcount\n\t0\n\t0\n")
        out = tmp_path / "report.csv"
        status = run(["compute", "--input-dir", indir, "--output", out,
                      "--indicators", "mnpc"])
        assert status == 0
        rows = read_csv_rows(out)
        assert any(r["indicator"] == "MNPC" and not r["defined"] for r in rows)

    def test_hard_error_nonzero_exit(self, tmp_path, capsys):
        indir = tmp_path / "cells"
        indir.mkdir()
        (indir / "G__A__2013.tsv").write_text("article_id\tcount\n\t-1\n")
        status = run(["compute", "--input-dir", indir, "--output", tmp_path / "r.csv"])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_indicator_name_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            run(["compute", "--input-dir", tmp_path, "--output", tmp_path / "r.csv",
                 "--indicators", "mnlcs,mnlsc"])
        assert exited.value.code == 2
        assert ("unknown indicator 'mnlsc' (choose from mnlcs, mncs, lundberg, emnpc, mnpc, prop)"
                in capsys.readouterr().err)

    def test_invalid_utf8_error_names_file_and_line(self, tmp_path, capsys):
        indir = tmp_path / "cells"
        indir.mkdir()
        (indir / "WORLD__A__2013.tsv").write_bytes(b"article_id\tcount\n\t1\nab\xff\t2\n")
        status = run(["compute", "--input-dir", indir, "--output", tmp_path / "r.csv"])
        assert status == 1
        assert capsys.readouterr().err == "error: WORLD__A__2013.tsv:3: not valid UTF-8\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--min-articles", "0", "min_articles must be >= 1"),
        ("--min-fraction-of-mean", "1.5", "min_fraction_of_mean must lie in [0, 1]"),
    ])
    def test_invalid_exclusion_floor_fails(self, tmp_path, demo_corpus, capsys, flag, value,
                                           message):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out = tmp_path / "r.csv"
        status = run(["compute", "--input-dir", indir, "--output", out, flag, value])
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "0.9"], "alpha must lie in (0, 0.5)"),
        (["--sample-size", "0"], "sample size must be >= 1"),
    ], ids=["alpha", "sample-size"])
    def test_bad_flag_reported_before_any_cell_is_read(self, tmp_path, capsys, flags, message):
        indir = write_malformed_dir(tmp_path / "cells")
        out = tmp_path / "r.csv"
        assert run(["compute", "--input-dir", indir, "--output", out, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not metadata_path(out).exists()

    def test_proportion_rows_ignore_resample_world(self, tmp_path, demo_corpus, capsys):
        # The proportions read no world statistic: their rows under "on" are
        # their rows under "off", and every other row still resamples it.
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        lines = {}
        for mode in ("on", "off"):
            out = tmp_path / f"{mode}.csv"
            assert run(["compute", "--input-dir", indir, "--output", out,
                        "--indicators", "prop,mnlcs,emnpc,mnpc", "--ci", "bootstrap",
                        "--bootstrap-iters", "100", "--min-articles", "1",
                        "--resample-world", mode]) == 0
            lines[mode] = out.read_text().splitlines()[1:]

        def rows(mode, indicators):
            return [line for line in lines[mode] if line.split(",")[3] in indicators]

        proportions = ("PROP_CITED", "EQ_PROP_CITED")
        assert len(rows("on", proportions)) == 8
        assert rows("on", proportions) == rows("off", proportions)
        means = rows("on", ("MNLCS", "EMNPC", "MNPC"))
        assert len(means) == 12 and all("resample_world=true" in line for line in means)

    def test_zero_bootstrap_iterations_fail(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        status = run(["compute", "--input-dir", indir, "--output", tmp_path / "r.csv",
                      "--ci", "bootstrap", "--bootstrap-iters", "0"])
        assert status == 1
        assert "at least 100 bootstrap iterations are required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ci, iterations", [("formula", "0"), ("all", "5")], ids=["formula-only", "all"]
    )
    def test_bootstrap_iterations_checked_before_any_row(
        self, tmp_path, demo_corpus, capsys, monkeypatch, ci, iterations
    ):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "build_report", no_rows)
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out = tmp_path / "r.csv"
        status = run(["compute", "--input-dir", indir, "--output", out,
                      "--ci", ci, "--bootstrap-iters", iterations])
        assert status == 1
        assert "at least 100 bootstrap iterations are required" in capsys.readouterr().err
        assert not out.exists() and not metadata_path(out).exists()

    def test_empty_input_dir_fails(self, tmp_path, capsys):
        indir = tmp_path / "cells"
        indir.mkdir()
        out = tmp_path / "report.csv"
        argvs = [
            ["compute", "--input-dir", indir, "--output", out],
            ["sample", "--input-dir", indir, "--output-dir", tmp_path / "sampled"],
            ["compare-ci", "--input-dir", indir, "--output", tmp_path / "summary.csv"],
        ]
        for argv in argvs:
            assert run(argv) == 1
            assert "no cell files (*.tsv) found in" in capsys.readouterr().err
        assert not out.exists()

    def test_default_flags_give_the_default_config(self, tmp_path, demo_corpus, monkeypatch,
                                                   capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        configs = []
        build = cli.build_report

        def captured(corpus, config):
            configs.append(config)
            return build(corpus, config)

        monkeypatch.setattr(cli, "build_report", captured)
        assert run(["compute", "--input-dir", indir, "--output", tmp_path / "r.csv"]) == 0
        (config,) = configs
        assert config == ReportConfig()

    def test_grid_flags_default_to_the_library_defaults(self, tmp_path, monkeypatch, capsys):
        # A grid flag left out takes scenario_grid's axis, one LognormalSpec
        # default, and sample's --size is SampleSpec's.
        resolved = []
        grid = cli.scenario_grid

        def captured(*args, **kwargs):
            bound = inspect.signature(grid).bind(*args, **kwargs)
            bound.apply_defaults()
            resolved.append(bound.arguments)
            return grid(*args, **kwargs)

        monkeypatch.setattr(cli, "scenario_grid", captured)
        assert run(["simulate", "--output-dir", tmp_path / "sim"]) == 0
        spec = LognormalSpec()
        assert resolved == [{"mus": (spec.mu,), "sigmas": (spec.sigma,),
                             "zero_inflations": (spec.zero_inflation,), "ns": (spec.n,),
                             "group_shifts": GROUP_SHIFTS_DEFAULT, "base_seed": 0}]
        assert (spec.mu, spec.sigma, spec.zero_inflation, spec.n) == (1.0, 1.0, 0.0, 1000)
        args = cli.build_parser().parse_args(["sample", "--input-dir", "in", "--output-dir", "out"])
        assert args.size == SampleSpec().size == 500

    def test_deterministic_reruns(self, tmp_path, demo_corpus):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["compute", "--input-dir", indir, "--indicators", "mnlcs,emnpc",
                "--ci", "all", "--seed", "7", "--bootstrap-iters", "120"]
        assert run(argv + ["--output", out1]) == 0
        assert run(argv + ["--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sampling_applied(self, tmp_path, capsys):
        indir = tmp_path / "cells"
        run(["simulate", "--output-dir", indir, "--mu", "1.0", "--sigma", "1.0",
             "--n", "400", "--seed", "5"])
        scen_dir = next(indir.iterdir())
        out = tmp_path / "r.csv"
        status = run(["compute", "--input-dir", scen_dir, "--output", out,
                      "--sample-size", "100", "--indicators", "mnlcs"])
        assert status == 0
        assert all(r["n"] == 100 for r in read_csv_rows(out))


class TestSample:
    def test_large_cells_reduced_small_kept(self, tmp_path, demo_corpus, capsys):
        indir = tmp_path / "cells"
        indir.mkdir()
        rows = [f"a{i}\t{i % 4}" for i in range(1000)]
        (indir / "WORLD__F__2014.tsv").write_text(
            "article_id\tcount\n" + "\n".join(rows) + "\n"
        )
        (indir / "G__F__2014.tsv").write_text("article_id\tcount\na\t1\nb\t0\n")
        outdir = tmp_path / "sampled"
        assert run(["sample", "--input-dir", indir, "--output-dir", outdir,
                    "--size", "500", "--seed", "3"]) == 0
        sampled = load_corpus(outdir)
        key = FieldYearKey("F", 2014)
        assert len(sampled.world(key)) == 500
        assert len(sampled.cell("G", key)) == 2

    def test_zero_size_fails(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        outdir = tmp_path / "sampled"
        assert run(["sample", "--input-dir", indir, "--output-dir", outdir, "--size", "0"]) == 1
        assert capsys.readouterr().err == "error: sample size must be >= 1\n"
        assert not outdir.exists()

    def test_zero_size_reported_before_any_cell_is_read(self, tmp_path, capsys):
        indir = write_malformed_dir(tmp_path / "cells")
        outdir = tmp_path / "sampled"
        assert run(["sample", "--input-dir", indir, "--output-dir", outdir, "--size", "0"]) == 1
        assert capsys.readouterr().err == "error: sample size must be >= 1\n"
        assert not outdir.exists()

    def test_rerun_identical(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            run(["sample", "--input-dir", indir, "--output-dir", out,
                 "--size", "3", "--seed", "11"])
        for f1 in sorted(out1.iterdir()):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

    def test_seed_taken_mod_2_64(self, tmp_path, demo_corpus, capsys):
        # -1 and 2**64 - 1 are one seed, as in every other command.
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        outs = [tmp_path / "minus-one", tmp_path / "max"]
        for out, seed in zip(outs, ["-1", str(2**64 - 1)]):
            assert run(["sample", "--input-dir", indir, "--output-dir", out,
                        "--size", "3", "--seed", seed]) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir()) and files
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestSimulate:
    def test_writes_scenario_directories(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        status = run(["simulate", "--output-dir", outdir, "--mu", "0.5", "1.0",
                      "--sigma", "1.0", "--n", "200", "--seed", "2"])
        assert status == 0
        dirs = sorted(p.name for p in outdir.iterdir())
        assert len(dirs) == 2
        corpus = load_corpus(outdir / dirs[0])
        assert corpus.groups == {"G1"}

    def test_grid_points_that_share_a_label_write_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        assert run(["simulate", "--output-dir", outdir, "--mu", "1", "1.0000001",
                    "--n", "50"]) == 1
        assert "mu1-sg1-zi0-n50" in capsys.readouterr().err
        assert not outdir.exists()
        details = tmp_path / "details.csv"
        assert run(["compare-ci", "--output", tmp_path / "summary.csv", "--details", details,
                    "--mu", "1", "1.0000001", "--n", "200"]) == 1
        assert "mu1-sg1-zi0-n200" in capsys.readouterr().err
        assert not details.exists()

    def test_deterministic_tree(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run(["simulate", "--output-dir", out, "--mu", "1.0", "--sigma", "1.2",
                 "--zero-inflation", "0.3", "--n", "150", "--seed", "9"])
        files1 = sorted(out1.rglob("*.tsv"))
        files2 = sorted(out2.rglob("*.tsv"))
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_sparse_scenario_mostly_uncited(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        run(["simulate", "--output-dir", outdir, "--mu", "1.0", "--sigma", "1.0",
             "--zero-inflation", "0.98", "--n", "500", "--seed", "3"])
        corpus = load_corpus(next(outdir.iterdir()))
        counts = corpus.world(next(iter(corpus.keys))).counts_array()
        share = np.count_nonzero(counts) / len(counts)
        assert 0.005 <= share <= 0.035


class TestCompareCi:
    def test_synthetic_grid_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        details = tmp_path / "details.csv"
        status = run(["compare-ci", "--output", out, "--details", details,
                      "--indicators", "mnlcs", "--mu", "1.0", "--sigma", "1.0",
                      "--n", "200", "--iterations", "150", "--seed", "4"])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("label,cells,gaps")
        assert lines[1].startswith("MNLCS,1,0")
        assert details.exists()

    def test_zero_iterations_fail(self, tmp_path, capsys):
        status = run(["compare-ci", "--output", tmp_path / "summary.csv", "--n", "100",
                      "--iterations", "0"])
        assert status == 1
        assert "at least 100 bootstrap iterations are required" in capsys.readouterr().err

    def test_alpha_above_half_fails(self, tmp_path, capsys):
        status = run(["compare-ci", "--output", tmp_path / "summary.csv", "--n", "100",
                      "--iterations", "100", "--alpha", "0.9"])
        assert status == 1
        assert "alpha must lie in (0, 0.5)" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "0.9"], "alpha must lie in (0, 0.5)"),
        (["--iterations", "5"], "at least 100 bootstrap iterations are required"),
    ], ids=["alpha", "iterations"])
    @pytest.mark.parametrize("source", ["input-dir", "grid"])
    def test_bad_flag_reported_before_any_cell_is_read_or_generated(
        self, tmp_path, capsys, monkeypatch, source, flags, message
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("a scenario was generated")

        monkeypatch.setattr(cli, "scenario_grid", no_grid)
        scenarios = {
            "input-dir": ["--input-dir", write_malformed_dir(tmp_path / "cells")],
            "grid": ["--n", "1000000", "--mu", "0.5", "1", "2", "--sigma", "0.7", "1.2"],
        }[source]
        out = tmp_path / "summary.csv"
        assert run(["compare-ci", "--output", out, *scenarios, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--mu", "44"], "above 2**63 - 1"),
        (["--mu", "nan"], "mu and sigma must be finite"),
        (["--sigma", "inf"], "mu and sigma must be finite"),
    ])
    def test_grid_that_cannot_give_counts_fails(self, tmp_path, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = run(["compare-ci", "--output", tmp_path / "summary.csv", "--n", "100",
                          "--iterations", "100", *flags])
        assert status == 1
        err = capsys.readouterr().err
        assert message in err and "negative count" not in err

    @pytest.mark.parametrize("indicators, same_as, other", [
        ("mnlcs,mncs,lundberg", "off", "on"),
        ("emnpc,mnpc", "on", "off"),
    ])
    def test_auto_resamples_world_for_emnpc_and_mnpc_only(
        self, tmp_path, capsys, indicators, same_as, other
    ):
        def details(resample_world):
            path = tmp_path / resample_world / "details.csv"
            assert run(["compare-ci", "--output", tmp_path / resample_world / "summary.csv",
                        "--details", path, "--indicators", indicators,
                        "--resample-world", resample_world, "--iterations", "100",
                        "--seed", "8", "--mu", "0.5", "1.5", "--n", "60",
                        "--group-shift", "0.0", "0.3"]) == 0
            return path.read_bytes()

        auto = details("auto")
        assert auto == details(same_as)
        assert auto != details(other)

    def test_existing_corpus_input(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out = tmp_path / "summary.csv"
        status = run(["compare-ci", "--input-dir", indir, "--output", out,
                      "--indicators", "emnpc", "--iterations", "120", "--seed", "1"])
        assert status == 0
        assert out.read_text().splitlines()[1].startswith("EMNPC,1,")

    @pytest.mark.parametrize("flags, named", [
        (["--mu", "9"], "--mu"),
        (["--sigma", "2"], "--sigma"),
        (["--group-shift", "0.0"], "--group-shift"),
        (["--n", "5", "--mu", "9", "--zero-inflation", "0.99"], "--mu, --zero-inflation, --n"),
    ], ids=["mu", "sigma", "group-shift", "three-flags"])
    def test_grid_flags_with_input_dir_fail(self, tmp_path, demo_corpus, capsys, flags, named):
        # The grid flags shape synthetic scenarios only; with --input-dir
        # they used to be ignored without a word.
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        out = tmp_path / "summary.csv"
        status = run(["compare-ci", "--input-dir", indir, "--output", out,
                      "--iterations", "100", *flags])
        assert status == 1
        assert capsys.readouterr().err == \
            f"error: {named} set the synthetic grid and cannot be used with --input-dir\n"
        assert not out.exists()

    def test_scenario_directory_matches_the_grid_run(self, tmp_path, capsys):
        grid = ["--mu", "1.2", "--sigma", "1.0", "--zero-inflation", "0.1", "--n", "120",
                "--group-shift", "0.0", "0.2"]
        assert run(["simulate", "--output-dir", tmp_path / "sim", *grid, "--seed", "7"]) == 0
        (scenario,) = (tmp_path / "sim").iterdir()
        common = ["--indicators", "mnlcs,mncs,lundberg,emnpc,mnpc,prop",
                  "--iterations", "100", "--seed", "7"]
        outputs = {}
        for name, source in (("grid", grid), ("dir", ["--input-dir", scenario])):
            summary, details = tmp_path / f"{name}-summary.csv", tmp_path / f"{name}-details.csv"
            assert run(["compare-ci", "--output", summary, "--details", details,
                        *common, *source]) == 0
            outputs[name] = (summary.read_bytes(), details.read_bytes())
        assert outputs["dir"] == outputs["grid"]

    def test_corpus_without_groups_fails(self, tmp_path, demo_corpus, capsys):
        indir = write_demo_corpus(tmp_path / "cells", demo_corpus)
        for path in indir.glob("G__*.tsv"):
            path.unlink()
        out = tmp_path / "summary.csv"
        status = run(["compare-ci", "--input-dir", indir, "--output", out,
                      "--iterations", "100"])
        assert status == 1
        assert "no scenario has a group other than WORLD" in capsys.readouterr().err
        assert not out.exists()


class TestRunFlags:
    """compute and compare-ci take their shared flags from one table, cli._RUN_FLAGS."""

    REQUIRED = {"compute": ["--input-dir", "in", "--output", "out.csv"],
                "compare-ci": ["--output", "out.csv"]}
    NON_DEFAULT = {"--indicators": "mnpc,prop", "--alpha": "0.1", "--seed": "7",
                   "--continuity": "on", "--resample-world": "off"}

    def parse(self, command, *flags):
        return vars(cli.build_parser().parse_args([command, *self.REQUIRED[command], *flags]))

    @staticmethod
    def dest(flag):
        return flag.lstrip("-").replace("-", "_")

    def test_compare_ci_help_names_the_indicators(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare-ci", "--help"])
        assert exit_info.value.code == 0
        assert "mnlcs,mncs,lundberg,emnpc,mnpc,prop" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", list(cli._RUN_FLAGS))
    def test_both_commands_parse_a_run_flag_alike(self, flag):
        parsed = [self.parse(command, flag, self.NON_DEFAULT[flag])[self.dest(flag)]
                  for command in self.REQUIRED]
        assert parsed[0] == parsed[1] != cli._RUN_FLAGS[flag]["default"]

    def test_both_commands_share_the_run_flag_defaults(self):
        dests = [self.dest(flag) for flag in cli._RUN_FLAGS]
        compute, compare = ({d: self.parse(command)[d] for d in dests} for command in self.REQUIRED)
        assert compute == compare
