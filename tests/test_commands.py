"""The commands end to end, run through ``cli.main`` as a user runs them.

Every check here reads only numpy and the package: the ``runtime-only`` CI job
installs neither scipy nor hypothesis and runs this module,
``tests/test_golden.py`` and ``tests/test_acceptance.py``. Outputs are
compared byte for byte. pyproject.toml's ``filterwarnings`` turns a
RuntimeWarning (a division or log that a mask missed) into an error here; the
subprocesses are started with ``-W error::RuntimeWarning`` for the same reason.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fieldnorm
import fieldnorm.bootstrap
import fieldnorm.corpus
from fieldnorm.cli import build_parser, main

from conftest import FORKS, counted_forks, read_csv_rows

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
    # input_dir, so only the CSVs compare, then compare-ci's two tables.
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
    tables = {}
    for name, cells in (("plain", job / "sampled"), ("crlf", crlf)):
        summary, details = tmp_path / f"{name}-summary.csv", tmp_path / f"{name}-details.csv"
        assert run(["compare-ci", "--input-dir", cells, "--output", summary, "--details", details,
                    "--indicators", ALL, "--iterations", "100", "--seed", "7"]) == 0
        tables[name] = summary.read_bytes(), details.read_bytes()
    assert tables["crlf"] == tables["plain"]


def write_id_fixture(cells: Path) -> None:
    """Four cells with ids: CRLF endings and blank lines in F, non-ASCII ids
    (U+2028 and U+0085 among them, which str.splitlines takes for line ends),
    a G cell of F smaller than ``--size 10``, and no ids in WORLD's H cell,
    whose last line has no LF."""
    cells.mkdir()
    world = [f"w{i:02d}-été\t{(i * 7) % 11}" for i in range(30)]
    world[4:4] = [""]
    world[17:17] = ["", ""]
    group = ["日本\t3", "", "g\u20282\t0", "\t5", "ü \x85\t12"]
    for name, rows in (("WORLD__F__2013.tsv", world), ("G__F__2013.tsv", group)):
        lines = ["article_id\tcount", *rows]
        (cells / name).write_bytes("".join(f"{line}\r\n" for line in lines).encode())
    plain = [f"\t{i % 4}" for i in range(25)]
    (cells / "WORLD__H__2013.tsv").write_bytes("\n".join(["article_id\tcount", *plain]).encode())
    rows = [f"h{i}\t{i}" for i in range(14)]
    (cells / "G__H__2013.tsv").write_bytes("\n".join(["article_id\tcount", *rows, ""]).encode())


# The SHA-256 of the name and bytes of every file ``sample --size 10 --seed 7``
# writes from ``write_id_fixture``, recorded when loaded cells still held ids.
SAMPLE_DIGEST = "c8247f554a9a785c000e9bd807491e2fe7f69cc21a4e1f31e7787b84c475970b"


def files_of(directory: Path) -> list[tuple[str, bytes]]:
    """The name and bytes of every file in ``directory``, in name order."""
    return [(path.name, path.read_bytes()) for path in sorted(directory.iterdir())]


def test_sample_output_is_pinned(tmp_path):
    write_id_fixture(tmp_path / "cells")
    assert run(["sample", "--input-dir", tmp_path / "cells", "--output-dir", tmp_path / "out",
                "--size", "10", "--seed", "7"]) == 0
    digest = hashlib.sha256()
    for name, data in files_of(tmp_path / "out"):
        digest.update(name.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == SAMPLE_DIGEST


def test_sample_in_place_writes_the_bytes_of_a_sample_elsewhere(tmp_path):
    # --output-dir equal to --input-dir replaces each file with its sample.
    write_id_fixture(tmp_path / "cells")
    shutil.copytree(tmp_path / "cells", tmp_path / "in-place")
    flags = ["--size", "10", "--seed", "7"]
    assert run(["sample", "--input-dir", tmp_path / "cells", "--output-dir", tmp_path / "out",
                *flags]) == 0
    assert run(["sample", "--input-dir", tmp_path / "in-place", "--output-dir",
                tmp_path / "in-place", *flags]) == 0
    assert files_of(tmp_path / "in-place") == files_of(tmp_path / "out")


@pytest.mark.parametrize("in_place", [False, True], ids=["elsewhere", "in-place"])
@pytest.mark.parametrize("change, articles", [("grown", 31), ("shrunk", 29)])
def test_sample_refuses_a_file_changed_since_it_was_checked(tmp_path, monkeypatch, capsys,
                                                            in_place, change, articles):
    # WORLD__F__2013.tsv holds 30 articles when load_corpus checks it, and
    # one more or one fewer when sample copies its lines.
    cells = tmp_path / "cells"
    write_id_fixture(cells)
    out = cells if in_place else tmp_path / "out"
    argv = ["sample", "--input-dir", cells, "--output-dir", out, "--size", "10", "--seed", "7"]
    if not in_place:
        assert run(argv) == 0
    changed = cells / "WORLD__F__2013.tsv"
    data = changed.read_bytes()
    data = data + b"x\t1\r\n" if change == "grown" else data[:data.rindex(b"w29")]
    load = fieldnorm.corpus.load_corpus

    def load_then_change(directory):
        corpus = load(directory)
        changed.write_bytes(data)
        return corpus

    earlier = files_of(out)
    monkeypatch.setattr(fieldnorm.corpus, "load_corpus", load_then_change)
    assert run(argv) == 1
    error = f"error: WORLD__F__2013.tsv: {articles} articles, but 30 when it was checked\n"
    assert capsys.readouterr().err == error
    now = files_of(out)
    if in_place:  # the two G cells, sorted first, were sampled; the rest is as it was
        earlier = [(name, data if name == changed.name else old) for name, old in earlier]
        assert [name for name, _ in now] == [name for name, _ in earlier]
        now, earlier = now[2:], earlier[2:]
    assert now == earlier


def write_one_article_year(cells: Path) -> None:
    """Group G over fields F and H: several articles a cell in 2013, one in 2014."""
    cells.mkdir()
    counts = {
        ("G", "F", 2013): [0, 3, 1, 7, 2, 0], ("G", "H", 2013): [1, 0, 4, 2, 2],
        ("G", "F", 2014): [4], ("G", "H", 2014): [0],
        ("WORLD", "F", 2013): [0, 3, 1, 7, 2, 0, 5, 0, 1, 1, 9, 2],
        ("WORLD", "H", 2013): [1, 0, 4, 2, 2, 0, 0, 3, 1, 6],
        ("WORLD", "F", 2014): [4, 0, 2, 1, 0, 3, 8, 1],
        ("WORLD", "H", 2014): [0, 1, 1, 0, 5, 2, 0, 3],
    }
    for (group, field, year), values in counts.items():
        lines = ["article_id\tcount", *(f"\t{count}" for count in values)]
        (cells / f"{group}__{field}__{year}.tsv").write_bytes(
            "".join(f"{line}\n" for line in lines).encode())


# The SHA-256 of the report and sidecar that ``compute`` writes from
# ``write_one_article_year`` (flags as below), recorded when a bootstrap row
# that draws nothing was still handed to the index scheme.
ONE_ARTICLE_YEAR_DIGESTS = {
    ".csv": "4806ff0bcbbacc1ee547fd445ba0f2cfe28b2ec5f39f2d7ffac037ecb50f1fc8",
    ".meta.json": "fcb8edf39ea113f2546d22aa30abf3d3445750d1f7fcd61fc64865d76df095b2",
}


def test_rows_that_draw_nothing_are_their_points(tmp_path, monkeypatch):
    # Each of G's 2014 cells holds one article, and compute holds the world
    # fixed for prop and mncs, so G's Y2014 rows draw no cell; --min-articles
    # keeps those cells for EQ_PROP_CITED too.
    monkeypatch.chdir(tmp_path)
    write_one_article_year(Path("cells"))
    flags = ["--ci", "bootstrap", "--indicators", "prop,mncs", "--bootstrap-iters", "1000",
             "--seed", "7", "--min-articles", "1"]
    for name in ("report", "rerun"):
        compute("cells", f"{name}.csv", *flags)
        written = {suffix: hashlib.sha256(Path(name + suffix).read_bytes()).hexdigest()
                   for suffix in ONE_ARTICLE_YEAR_DIGESTS}
        assert written == ONE_ARTICLE_YEAR_DIGESTS
    rows = [row for row in read_csv_rows("report.csv") if row["group"] == "G"]
    points = [row for row in rows if row["scope"] == "Y2014"]
    assert sorted(row["indicator"] for row in points) == ["EQ_PROP_CITED", "MNCS", "PROP_CITED"]
    assert all(row["defined"] and row["ci_lower"] == row["estimate"] == row["ci_upper"]
               for row in points)
    assert all(row["ci_lower"] < row["ci_upper"] for row in rows if row["scope"] != "Y2014")


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


def test_seeds_equal_mod_2_64_write_the_same_files(job, tmp_path):
    # The sidecar records the seed the run used, so -1 and 2**64 - 1 agree.
    flags = ["--ci", "bootstrap", "--bootstrap-iters", "100", "--sample-size", "100"]
    files = []
    for name, seed in (("minus", "-1"), ("top", "18446744073709551615")):
        report = compute(job / "cells", tmp_path / f"{name}.csv", *flags, "--seed", seed)
        files.append((report, (tmp_path / f"{name}.meta.json").read_bytes()))
    assert files[0] == files[1]
    assert b'"seed": 18446744073709551615\n' in files[0][1]
    # So do the other commands' outputs.
    grid = ["--mu", "1.2", "--n", "100", "--group-shift", "0.2"]
    commands = {
        "sample": lambda out, seed: ["sample", "--input-dir", job / "cells", "--output-dir", out,
                                     "--size", "50", "--seed", seed],
        "simulate": lambda out, seed: ["simulate", "--output-dir", out, *grid, "--seed", seed],
        "compare-ci": lambda out, seed: ["compare-ci", "--output", out / "summary.csv",
                                         "--details", out / "details.csv", "--indicators", ALL,
                                         "--iterations", "100", *grid, "--seed", seed],
    }
    for command, argv in commands.items():
        outs = [tmp_path / command / name for name in ("minus", "top")]
        for out, seed in zip(outs, ("-1", "18446744073709551615")):
            out.mkdir(parents=True)
            assert run(argv(out, seed)) == 0
        written = [sorted((path.relative_to(out), path.read_bytes())
                          for path in out.rglob("*") if path.is_file()) for out in outs]
        assert written[0] == written[1] and written[0], command


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


@FORKS
def test_a_python_thread_keeps_the_bootstrap_in_one_process(job, tmp_path, monkeypatch):
    # A forked child could need a lock that another thread holds, so while
    # one runs ``_cpus`` allows one process and every row is drawn here, to
    # the same bytes.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_forks(monkeypatch)
    flags = ["--indicators", ALL, "--ci", "bootstrap", "--bootstrap-iters", "100", "--seed", "7"]
    split = compute(job / "sampled", tmp_path / "split.csv", *flags)
    assert forks
    forked = len(forks)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fieldnorm.bootstrap._cpus() == 1
        serial = compute(job / "sampled", tmp_path / "serial.csv", *flags)
    finally:
        stop.set()
        thread.join()
    assert len(forks) == forked
    assert serial == split


@FORKS
def test_the_bootstrap_forks_on_linux_only(job, tmp_path, monkeypatch):
    # A forked child asks the kernel to kill it with the command through
    # Linux's prctl, so a system that can fork and read two CPUs from its
    # affinity mask, but is not Linux, draws every row here, to the same bytes.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_forks(monkeypatch)
    flags = ["--indicators", ALL, "--ci", "bootstrap", "--bootstrap-iters", "100", "--seed", "7"]
    split = compute(job / "sampled", tmp_path / "split.csv", *flags)
    assert forks
    forked = len(forks)
    monkeypatch.setattr(sys, "platform", "freebsd14")
    assert fieldnorm.bootstrap._cpus() == 1
    serial = compute(job / "sampled", tmp_path / "serial.csv", *flags)
    assert len(forks) == forked
    assert serial == split


def readme_block(heading: str, fence: str) -> str:
    """The first code block opened by ``fence`` after the README heading ``heading``."""
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith(heading):
            break
    for line in lines:
        if line.startswith(fence):
            break
    return "\n".join(itertools.takewhile(lambda line: not line.startswith("```"), lines))


def test_readme_command_lines_parse():
    # Each fieldnorm line of "## Command line", continuation lines joined,
    # parsed by the CLI's parser without being run: a renamed flag fails.
    block = readme_block("## Command line", "```sh").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("fieldnorm ")]
    assert [argv[0] for argv in commands] == ["compute", "sample", "simulate", "compare-ci"]
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: fieldnorm {shlex.join(argv)}")


def test_readme_library_example_runs(job, tmp_path, monkeypatch):
    # The first python block after "## Library", run as written on a copy of
    # cells/ in a directory of its own.
    code = readme_block("## Library", "```python")
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


# The child prints the modules that importing the command line loads beyond
# those that importing numpy loads.
_IMPORT_FOOTPRINT = """
import sys
import numpy
loaded = set(sys.modules)
import fieldnorm.cli
print(" ".join(sorted(set(sys.modules) - loaded)))
"""
# Modules that no command needs at import; each would add to every command's
# start-up (concurrent.futures.process alone takes 14-18 ms).
_HEAVY_MODULES = ("scipy", "numpy.random", "concurrent.futures", "multiprocessing",
                  "subprocess")


def test_importing_the_command_line_loads_no_heavy_module():
    package_root = str(Path(fieldnorm.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], capture_output=True,
                           text=True, timeout=300, env={**os.environ, "PYTHONPATH": package_root})
    assert child.returncode == 0, child.stderr
    added = child.stdout.split()
    assert "fieldnorm.cli" in added
    heavy = [name for name in added
             if any(name == m or name.startswith(m + ".") for m in _HEAVY_MODULES)]
    assert heavy == [], f"import fieldnorm.cli loads {', '.join(heavy)}"


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
# bootstrap compute of the same cells, then the largest peak of the
# processes that drew bootstrap rows beside it (0 if none did).
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
peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
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
    and numpy builds that the 10^6-article ceiling takes.  So must the peak
    of each process forked to draw rows beside it, which the parent's
    ru_maxrss does not see: 32.9-33.0 MB on that machine, where the run
    forks one.
    """
    mus = [f"{0.5 + 0.1 * i:g}" for i in range(20)]
    assert run(["simulate", "--output-dir", tmp_path / "sim", "--mu", *mus, "--n", "1000",
                "--seed", "7"]) == 0
    cells = merge_cells(sorted((tmp_path / "sim").iterdir()), tmp_path / "cells")
    assert len(list(cells.glob("*.tsv"))) == 40
    formula_mb, bootstrap_mb, worker_mb = forked_peaks(_FORMULA_THEN_BOOTSTRAP, cells, tmp_path)
    added = bootstrap_mb - formula_mb
    assert added <= 8, f"the bootstrap adds {added:.1f} MB of ru_maxrss, over the 8 MB ceiling"
    assert bootstrap_mb <= 58, f"ru_maxrss {bootstrap_mb:.1f} MB exceeds the 58 MB ceiling"
    assert worker_mb <= 58, f"a worker's ru_maxrss {worker_mb:.1f} MB exceeds the 58 MB ceiling"


# The child runs the command it is given and prints its peak, in MB.
_PEAK_OF = """
import resource, sys
from fieldnorm.cli import main
if main(sys.argv[1:]) != 0:
    raise SystemExit(f"{sys.argv[1]} failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


@_LINUX_ONLY
def test_simulate_writes_a_cell_a_batch_at_a_time(tmp_path):
    """``simulate --n 1000000`` peaks below 78 MB.

    ``write_cell`` formats and writes a batch of lines at a time. On a
    2-vCPU Linux machine with Python 3.11 and numpy 2.4 the process peaks
    at 61.9-62.0 MB, against 60.5 MB for building the grid alone and 124.1
    MB when ``write_cell`` held a cell's text three times (its lines, their
    join and its bytes). The ceiling is 62 MB plus the 16 MB margin that
    the ceilings above take.
    """
    (peak_mb,) = forked_peaks(_PEAK_OF, "simulate", "--output-dir", tmp_path / "sim",
                              "--n", "1000000", "--seed", "7")
    assert peak_mb <= 78, f"simulate's ru_maxrss {peak_mb:.1f} MB exceeds 78 MB"


@_LINUX_ONLY
def test_article_ids_stay_in_their_files(tmp_path):
    """Computes and samples of two 10^6-article cells with ids peak below 93 MB.

    Every line carries an 18-character id, as real inputs do: 21 MB a file.
    On a 2-vCPU Linux machine with Python 3.11 and numpy 2.4 the compute
    peaks at 76.5-76.9 MB, against 234.9-235.1 MB when every loaded cell
    decoded its ids into Python strings. Most of the rise over the 49 MB of
    the same cells without ids is a file's bytes, held whole while its
    lines are parsed. ``sample``, the one command that reads ids, copies
    the lines it keeps a batch at a time and peaks at 76.4-76.9 MB with
    ``--size 500`` and 76.7-77.0 MB keeping every article, against 125.0
    and 271.8 MB when it decoded a file's ids into strings and wrote the
    kept cell whole. Each ceiling is 77 MB plus the 16 MB margin that the
    ceilings above take.
    """
    assert run(["simulate", "--output-dir", tmp_path / "sim", "--n", "1000000",
                "--seed", "7"]) == 0
    (sim,) = (tmp_path / "sim").iterdir()
    cells = tmp_path / "cells"
    cells.mkdir()
    for path in sorted(sim.glob("*.tsv")):
        with open(path, "rb") as source, open(cells / path.name, "wb") as out:
            out.write(next(source))
            out.writelines(b"10.1234/%010d%s" % (i, line) for i, line in enumerate(source))
    assert re.match(rb"article_id\tcount\n10\.1234/0000000000\t[0-9]+\n",
                    (cells / path.name).read_bytes()[:60])
    (compute_mb,) = forked_peaks(_PEAK_OF, "compute", "--input-dir", cells,
                                 "--output", tmp_path / "r.csv", "--indicators", "mnlcs,prop",
                                 "--ci", "formula")
    assert compute_mb <= 93, f"compute's ru_maxrss {compute_mb:.1f} MB exceeds 93 MB"
    for size in ("500", "2000000"):
        (sample_mb,) = forked_peaks(_PEAK_OF, "sample", "--input-dir", cells,
                                    "--output-dir", tmp_path / size, "--size", size)
        assert sample_mb <= 93, f"sample --size {size}: ru_maxrss {sample_mb:.1f} MB exceeds 93 MB"
    # These cells have LF endings, no blank line and no leading zero, so a
    # sample that keeps every article copies them byte for byte.
    assert files_of(tmp_path / "2000000") == files_of(cells)
    assert [data.count(b"\n") for _, data in files_of(tmp_path / "500")] == [501, 501]
