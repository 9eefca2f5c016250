"""The commands end to end, run through ``cli.main`` as a user runs them.

Every check here reads only numpy and the package: the ``runtime-only`` CI job
installs neither scipy nor hypothesis and runs this module alone. Outputs are
compared byte for byte. pyproject.toml's ``filterwarnings`` turns a
RuntimeWarning (a division or log that a mask missed) into an error here; the
subprocesses are started with ``-W error::RuntimeWarning`` for the same reason.
"""

from __future__ import annotations

import itertools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fieldnorm
import fieldnorm.bootstrap
from fieldnorm.cli import main

from conftest import read_csv_rows

README = Path(__file__).resolve().parents[1] / "README.md"
ALL = "mnlcs,mncs,lundberg,emnpc,mnpc,prop"
# Two scenarios of one year, so compute reads two fields as one corpus and the
# multi-cell intervals (heuristic expansion, cross-cell MNPC) run too.
GRID = ["--mu", "1.2", "2.0", "--sigma", "1.0", "--zero-inflation", "0.1", "--n", "300",
        "--group-shift", "0.2", "--seed", "7"]
SCENARIOS = ("mu1.2-sg1-zi0.1-n300", "mu2-sg1-zi0.1-n300")


def run(argv):
    return main([str(a) for a in argv])


def merge_cells(scenario_dirs, cells: Path) -> Path:
    """Copy every scenario's cell files into one directory."""
    cells.mkdir()
    for scenario in scenario_dirs:
        paths = sorted(scenario.glob("*.tsv"))
        assert paths, f"no cells in {scenario}"
        for path in paths:
            shutil.copy(path, cells / path.name)
    return cells


@pytest.fixture(scope="module")
def job(tmp_path_factory) -> Path:
    """The GRID's two scenarios merged in ``cells/``, and ``sampled/``: 150 articles a cell."""
    root = tmp_path_factory.mktemp("job")
    assert run(["simulate", "--output-dir", root / "sim", *GRID]) == 0
    merge_cells([root / "sim" / s for s in SCENARIOS], root / "cells")
    assert run(["sample", "--input-dir", root / "cells", "--output-dir", root / "sampled",
                "--size", "150", "--seed", "7"]) == 0
    return root


def compute(input_dir, output, *flags) -> bytes:
    assert run(["compute", "--input-dir", input_dir, "--output", output, *flags]) == 0
    return Path(output).read_bytes()


def test_every_command_runs(job, tmp_path):
    report = compute(job / "sampled", tmp_path / "report.csv", "--indicators", ALL,
                     "--ci", "all", "--bootstrap-iters", "100", "--seed", "7")
    assert b"HEURISTIC_EXPANSION" in report
    summary, details = tmp_path / "summary.csv", tmp_path / "details.csv"
    assert run(["compare-ci", "--output", summary, "--details", details, "--indicators", ALL,
                "--iterations", "100", *GRID]) == 0
    assert summary.read_text().startswith("label,") and details.stat().st_size > 0


def test_compare_ci_mnpc_rows_do_not_depend_on_the_other_indicators(tmp_path):
    # compare-ci draws all its bootstrap rows in one batch and seeds
    # consecutive rows together.
    def mnpc_rows(indicators):
        details = tmp_path / f"{indicators}-details.csv"
        assert run(["compare-ci", "--output", tmp_path / f"{indicators}-summary.csv",
                    "--details", details, "--indicators", indicators, "--iterations", "100",
                    *GRID]) == 0
        return [line for line in details.read_text().splitlines() if ",MNPC," in line]

    alone = mnpc_rows("mnpc")
    assert alone
    assert mnpc_rows(ALL) == alone


@pytest.mark.parametrize("inputs", ["simulated", "sampled"])
def test_bootstrap_rows_do_not_depend_on_the_batch(job, tmp_path, monkeypatch, inputs):
    # A run draws all its bootstrap rows in one batch, so a row must come
    # out as it does when it is the run's only kind of bootstrap row.
    if inputs == "simulated":
        sim = tmp_path / "sim"
        assert run(["simulate", "--output-dir", sim, "--mu", "1.2", "2.0", "--zero-inflation",
                    "0.1", "--n", "150", "--group-shift", "0.2", "--seed", "7"]) == 0
        cells = merge_cells(sorted(sim.iterdir()), tmp_path / "cells")
    else:
        cells = job / "sampled"
    batches = []
    draw = fieldnorm.bootstrap.bootstrap_intervals

    def counted(jobs, alpha):
        batches.append(len(jobs))
        return draw(jobs, alpha)

    monkeypatch.setattr(fieldnorm.bootstrap, "bootstrap_intervals", counted)
    common = ["--bootstrap-iters", "100", "--seed", "7"]
    alone = compute(cells, tmp_path / "alone.csv", "--indicators", "mnpc", "--ci", "bootstrap",
                    *common)
    batched = compute(cells, tmp_path / "batched.csv", "--indicators", ALL, "--ci", "all",
                      *common)
    assert len(batches) == 2  # one per run

    def mnpc_rows(report):
        return [line for line in report.decode().splitlines()
                if ",MNPC," in line and ",BOOTSTRAP_PERCENTILE," in line]

    expected = mnpc_rows(alone)
    assert sum(",BOOTSTRAP_PERCENTILE,true," in line for line in expected) >= 4
    assert mnpc_rows(batched) == expected


@pytest.mark.parametrize("inputs", ["one-scenario", "job"])
def test_sample_then_compute_matches_sample_size(job, tmp_path, inputs):
    # compute --sample-size and sample draw each cell's sample by one rule.
    if inputs == "one-scenario":
        sim = tmp_path / "sim"
        assert run(["simulate", "--output-dir", sim, "--mu", "1.2", "--n", "300",
                    "--group-shift", "0.2", "--seed", "7"]) == 0
        (cells,) = sim.iterdir()
        sampled = tmp_path / "sampled"
        assert run(["sample", "--input-dir", cells, "--output-dir", sampled,
                    "--size", "150", "--seed", "7"]) == 0
        fields = 1
    else:
        cells, sampled, fields = job / "cells", job / "sampled", len(SCENARIOS)
    common = ["--indicators", ALL, "--ci", "formula", "--seed", "7"]
    direct = compute(cells, tmp_path / "direct.csv", "--sample-size", "150", *common)
    staged = compute(sampled, tmp_path / "staged.csv", *common)
    # Every scope holds one 150-article sample of each field.
    assert all(r["n"] == 150 * fields for r in read_csv_rows(tmp_path / "direct.csv"))
    assert direct == staged


def test_ids_and_crlf_endings_read_as_the_plain_cells(job, tmp_path):
    # The sampled cells have no article ids and LF endings. Give every data
    # line an id and every line a CRLF ending. The sidecars differ in
    # input_dir, so only the CSVs compare.
    crlf = tmp_path / "sampled-crlf"
    crlf.mkdir()
    for path in sorted((job / "sampled").glob("*.tsv")):
        header, *data = path.read_text(encoding="utf-8").splitlines()
        lines = [header] + [f"a{number}{line}" for number, line in enumerate(data, start=2)]
        (crlf / path.name).write_bytes("".join(f"{line}\r\n" for line in lines).encode())
    for path in crlf.glob("WORLD__*.tsv"):
        assert re.search(rb"^a2\t[0-9]*\r$", path.read_bytes(), re.MULTILINE)
    for flags in (["--ci", "formula"], ["--ci", "all", "--bootstrap-iters", "100", "--seed", "7"]):
        plain = compute(job / "sampled", tmp_path / "plain.csv", "--indicators", ALL, *flags)
        assert compute(crlf, tmp_path / "crlf.csv", "--indicators", ALL, *flags) == plain


def test_default_flags_give_the_report_of_no_flags(job, tmp_path):
    # Each default is written once, in ReportConfig, and the flags read it there.
    bare = compute(job / "sampled", tmp_path / "bare.csv")
    spelled = compute(job / "sampled", tmp_path / "spelled.csv", "--indicators", "mnlcs",
                      "--ci", "formula", "--alpha", "0.05", "--seed", "0", "--min-articles", "100",
                      "--min-fraction-of-mean", "0.25", "--continuity", "auto",
                      "--expansion-mode", "literal", "--resample-world", "auto")
    assert spelled == bare
    sidecars = [(tmp_path / f"{name}.meta.json").read_bytes() for name in ("bare", "spelled")]
    assert sidecars[0] == sidecars[1]


def test_library_report_is_the_report_of_compute(job, tmp_path):
    # ReportConfig() is compute with no flags, small-cell exclusion included:
    # one G1 cell of 60 articles falls below the 100-article floor.
    cells = tmp_path / "cells"
    shutil.copytree(job / "cells", cells)
    small = cells / f"G1__{SCENARIOS[0]}__2000.tsv"
    header, *data = small.read_text(encoding="utf-8").splitlines()
    small.write_text("".join(f"{line}\n" for line in [header, *data[:60]]), encoding="utf-8")
    computed = compute(cells, tmp_path / "compute.csv", "--indicators", "mnlcs,emnpc")
    corpus = fieldnorm.load_corpus(cells)

    def library(name, **settings):
        config = fieldnorm.ReportConfig(indicators=(fieldnorm.MNLCS, fieldnorm.EMNPC), **settings)
        fieldnorm.write_csv(fieldnorm.build_report(corpus, config), tmp_path / name)
        return (tmp_path / name).read_bytes()

    assert library("library.csv") == computed
    assert library("keep-all.csv", exclusion=fieldnorm.ExclusionPolicy(1, 0.0)) != computed


def test_readme_library_example_runs(job, tmp_path, monkeypatch):
    # The first python block after "## Library", run as written on a copy of
    # cells/ in a directory of its own.
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("## Library"):
            break
    for line in lines:
        if line.startswith("```python"):
            break
    code = "\n".join(itertools.takewhile(lambda line: not line.startswith("```"), lines))
    assert "bootstrap_indicator" in code
    library = tmp_path / "library"
    shutil.copytree(job / "cells", library / "cells")
    monkeypatch.chdir(library)
    exec(compile(code, f"{README.name} Library example", "exec"), {"__name__": "__main__"})
    assert (library / "report.csv").stat().st_size > 0


def forked_peaks(script: str, *args) -> list[float]:
    """Run ``script`` in a fresh interpreter; return the peaks, in MB, it prints last.

    Linux carries a process's peak across fork and exec into the new
    program's ru_maxrss, so the child is forked by a shell, not by this
    process, and its peaks are its own.
    """
    package_root = str(Path(fieldnorm.__file__).resolve().parents[1])
    child = subprocess.run(
        ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-W", "error::RuntimeWarning",
         "-c", script, *map(str, args)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert child.returncode == 0, child.stderr
    return [float(peak) for peak in child.stdout.splitlines()[-1].split()]


_LINUX_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the ceilings were measured on Linux, where ru_maxrss is in KiB")

# The child prints its peak resident set, in MB, on its last line.
_LARGE_COMPUTES = """
import resource, sys
from fieldnorm.cli import main
cells, out = sys.argv[1:]
for ci, indicators in (("formula", "mnlcs,mncs,lundberg,emnpc,mnpc,prop"), ("fieller", "mnlcs")):
    argv = ["compute", "--input-dir", cells, "--output", f"{out}/large-{ci}.csv",
            "--indicators", indicators, "--ci", ci]
    if main(argv) != 0:
        raise SystemExit(f"compute --ci {ci} failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


@_LINUX_ONLY
def test_two_cells_of_a_million_articles_stay_under_a_memory_ceiling(tmp_path):
    """Formula and Fieller computes on two cells of 10^6 articles peak below 66 MB.

    A loaded cell holds only its counts, 2 bytes per article here (uint16,
    every count below 65,536). On a 2-vCPU Linux machine with Python 3.11 and
    numpy 2.4 the computes' process peaks at 49.8-49.9 MB, against 71.9-72.2
    MB when counts were int64 and 95-103 MB when every cell also kept its
    sorted counts and ln(1+c) values. The ceiling is that 50 MB plus a 16 MB
    margin for other Python and numpy builds, so a return to int64 counts
    fails.
    """
    assert run(["simulate", "--output-dir", tmp_path / "large", "--n", "1000000",
                "--seed", "7"]) == 0
    (cells,) = (tmp_path / "large").iterdir()
    (peak_mb,) = forked_peaks(_LARGE_COMPUTES, cells, tmp_path)
    assert peak_mb <= 66, f"ru_maxrss {peak_mb:.1f} MB exceeds the 66 MB ceiling"


# The child prints the process's peak after a formula compute, then after a
# bootstrap compute of the same cells.
_FORMULA_THEN_BOOTSTRAP = """
import resource, sys
from fieldnorm.cli import main
cells, out = sys.argv[1:]
peaks = []
for ci in ("formula", "bootstrap"):
    argv = ["compute", "--input-dir", cells, "--output", f"{out}/{ci}.csv",
            "--indicators", "mnlcs", "--ci", ci, "--bootstrap-iters", "100"]
    if main(argv) != 0:
        raise SystemExit(f"compute --ci {ci} failed")
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(*peaks)
"""


@_LINUX_ONLY
def test_bootstrap_blocks_stay_under_a_memory_ceiling(tmp_path):
    """A bootstrap over 40 resampled cells adds at most 8 MB to the formula run's peak.

    Twenty fields of one year, each a 1,000-article G1 cell and its WORLD
    cell: every MNLCS row resamples all 40 cells, 40,000 words a replicate,
    so the budget of 2^20 words (4 MB) sets its blocks. On a 2-vCPU Linux
    machine with Python 3.11 and numpy 2.4 the process peaks at 35.0-35.1 MB
    after the formula compute and at 41.2-41.4 MB after the bootstrap: the
    bootstrap adds 6.2-6.3 MB, the block buffer and the rows' arrays. The
    ceiling on what it adds is 8 MB, a 1.7 MB margin; a budget of 2^21 words
    adds 10.0 MB and one of 2^22 adds 18.2 MB, so raising it again fails.
    (The 2^18 budget before added 3.2 MB.) The whole peak must also stay
    under 58 MB, the 41.4 MB measured plus the 16 MB margin for other Python
    and numpy builds that the 10^6-article ceiling takes.
    """
    mus = [f"{0.5 + 0.1 * i:g}" for i in range(20)]
    assert run(["simulate", "--output-dir", tmp_path / "sim", "--mu", *mus, "--n", "1000",
                "--seed", "7"]) == 0
    cells = merge_cells(sorted((tmp_path / "sim").iterdir()), tmp_path / "cells")
    assert len(list(cells.glob("*.tsv"))) == 40
    formula_mb, bootstrap_mb = forked_peaks(_FORMULA_THEN_BOOTSTRAP, cells, tmp_path)
    added = bootstrap_mb - formula_mb
    assert added <= 8, f"the bootstrap adds {added:.1f} MB of ru_maxrss, over the 8 MB ceiling"
    assert bootstrap_mb <= 58, f"ru_maxrss {bootstrap_mb:.1f} MB exceeds the 58 MB ceiling"
