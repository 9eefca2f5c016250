"""Pinned output of the simulate -> sample -> compute pipeline.

Criterion 12 checks that a rerun gives the same bytes; this test checks that
they are the bytes recorded when the pipeline last changed on purpose.  A
refactor that keeps every number keeps every digest.  A change that alters
output on purpose records the new digests here, and says why.
"""

from __future__ import annotations

import hashlib
from itertools import product

from fieldnorm.cli import main
from fieldnorm.corpus import WORLD, FieldYearKey, write_cell
from fieldnorm.synthetic import LognormalSpec, generate_cell

# SHA-256 of every file the pipeline writes, by path relative to the run
# directory.  report.meta.json records the relative --input-dir.
GOLDEN = {
    "report.csv": "f254c6568de2c1c57ad2f9f6f22cadf94666437020e422478e6588ad275b6890",
    "report.meta.json": "eb23842b0c4db1c6df1d315586e9a4322c7ff58453f65526d44dca204a011a40",
    "sampled/G1__mu1.2-sg1-zi0.1-n300__2000.tsv":
        "03ab2ff9155a2f7c6487b4b15c0c71fe91465287be16c106c87706e11b37b41b",
    "sampled/WORLD__mu1.2-sg1-zi0.1-n300__2000.tsv":
        "275e226bf014f37657cde8acc3c398bb0f9f0f9bafc24814aa3efc874b78f794",
    "sim/mu1.2-sg1-zi0.1-n300/G1__mu1.2-sg1-zi0.1-n300__2000.tsv":
        "b1b34f4da73a722a6629d126908a23bc49533212d74df9608b4a93e370218040",
    "sim/mu1.2-sg1-zi0.1-n300/WORLD__mu1.2-sg1-zi0.1-n300__2000.tsv":
        "133cb149a3f32c814e3e25278dbaeeb678a851fed876a05720ecef1536abb1b0",
}


def test_criterion_12_pipeline_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = "sim/mu1.2-sg1-zi0.1-n300"
    argvs = [
        ["simulate", "--output-dir", "sim", "--mu", "1.2", "--sigma", "1.0",
         "--zero-inflation", "0.1", "--n", "300", "--group-shift", "0.2", "--seed", "99"],
        ["sample", "--input-dir", scenario, "--output-dir", "sampled",
         "--size", "150", "--seed", "99"],
        ["compute", "--input-dir", "sampled", "--output", "report.csv",
         "--indicators", "mnlcs,mncs,lundberg,emnpc,mnpc,prop",
         "--ci", "all", "--seed", "99", "--bootstrap-iters", "150"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    assert written == GOLDEN


# The run above holds one cell, so neither the multi-cell intervals
# (HEURISTIC_EXPANSION, the cross-cell MNPC_WEIGHTED combination) nor the
# rows the exclusion policy leaves without cells appear in it.  This run
# holds four fields.  Both 40-article cells fall below the policy's floor
# for EMNPC and EQ_PROP_CITED, and the sparse one is moved to its own year,
# so that year's scope keeps no cell for those indicators; its Fieller
# interval is undefined, which flags the expansion over all four fields.
MULTI_CELL_GOLDEN = {
    "report.csv": "c6ad45e6bd0f00cb2dcc3877094b15b762ce96a7b5306d0cbd96a17951c6b2d6",
    "report.meta.json": "cf86bd93e106cc770627f3e2cf63b106b1e344ec752ef3a4d32304e1d5358f3a",
}

# compare-ci's summary and details tables over every indicator, on a grid
# whose sparse scenarios leave some intervals undefined.
COMPARE_CI_GOLDEN = {
    "details.csv": "3542f758d844bc1d44c4331f521a90788409b1b6a3c7826cf913ecb845be1f40",
    "summary.csv": "b74a708c7cdc256ca830e6e5aa71dad3ba21770863e582ba0138c01c860f4189",
}


def _digests(directory) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())
    }


def test_multi_cell_compute_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--output-dir", "sim", "--mu", "1.5", "--sigma", "1.0",
                 "--zero-inflation", "0.1", "0.9", "--n", "300", "40",
                 "--group-shift", "0.2", "--seed", "5"]) == 0
    cells = tmp_path / "cells"
    cells.mkdir()
    for path in sorted((tmp_path / "sim").glob("*/*.tsv")):
        name = path.name.replace("zi0.9-n40__2000", "zi0.9-n40__2001")
        (cells / name).write_bytes(path.read_bytes())
    assert main(["compute", "--input-dir", "cells", "--output", "out/report.csv",
                 "--indicators", "mnlcs,mncs,lundberg,emnpc,mnpc,prop",
                 "--ci", "all", "--seed", "5", "--bootstrap-iters", "100"]) == 0
    assert _digests(tmp_path / "out") == MULTI_CELL_GOLDEN


def test_compare_ci_output_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["compare-ci", "--output", str(out / "summary.csv"),
                 "--details", str(out / "details.csv"),
                 "--indicators", "mnlcs,mncs,lundberg,emnpc,mnpc,prop",
                 "--iterations", "100", "--seed", "3", "--mu", "0.5", "1.5",
                 "--sigma", "1.0", "--zero-inflation", "0.0", "0.95", "--n", "30", "40",
                 "--group-shift", "0.0", "0.3"]) == 0
    assert _digests(out) == COMPARE_CI_GOLDEN


# A wider corpus: 3 fields x 3 years x 2 groups, so each year's scope and
# the ALL scope hold several cells of both groups.  Some cells fall below the
# exclusion policy's floor: one of G1's, and every cell of G2 in 2012, which
# leaves that scope without cells for EMNPC and EQ_PROP_CITED.  In the field
# with 90% uncited articles some group cells hold fewer than five cited
# articles, which switches the MNPC continuity correction on.  The digests
# were recorded before scopes were resolved once per corpus, so they show
# that change kept every byte.
WIDE_GOLDEN = {
    "fieller.csv": "9f03cc0fe25caaa7ab34929fd23cc71d1d723c7f95a1dfb45c52d082b3e894b3",
    "fieller.meta.json": "9cefba73959b5f5f19023ec5d82d8fc4049e8000508b6cf7d9f93c3ad82ffcb0",
    "formula.csv": "fe6fe8ce764b7ccb026bd76e643d40be1f8e92fa0789fd67096729201842ca46",
    "formula.meta.json": "aa475e97680c7846af14a39f8c7a1c0ed33923a4ac82ecdb2748f1f06613aa05",
}


def _write_wide_corpus(directory) -> None:
    fields = (("alpha", 1.0, 0.0), ("beta", 1.4, 0.2), ("gamma", 0.6, 0.9))
    years = (2010, 2011, 2012)
    for (i, (field, mu, zero_inflation)), (j, year) in product(enumerate(fields),
                                                                enumerate(years)):
        key = FieldYearKey(field, year)
        sizes = {WORLD: 400, "G1": 40 if (field, year) == ("gamma", 2011) else 220,
                 "G2": 30 if year == 2012 else 130}
        shifts = {WORLD: 0.0, "G1": 0.25, "G2": -0.1}
        for g, group in enumerate((WORLD, "G1", "G2")):
            spec = LognormalSpec(mu + shifts[group] - 0.05 * j, 1.0, zero_inflation,
                                 sizes[group], seed=100 * i + 10 * j + g)
            write_cell(generate_cell(spec, key, group), directory)


def test_wide_analytic_compute_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_wide_corpus(tmp_path / "cells")
    for ci, indicators in (("formula", "mnlcs,mncs,lundberg,emnpc,mnpc,prop"),
                           ("fieller", "mnlcs")):
        assert main(["compute", "--input-dir", "cells", "--output", f"out/{ci}.csv",
                     "--indicators", indicators, "--ci", ci]) == 0
    assert _digests(tmp_path / "out") == WIDE_GOLDEN
