"""Pinned output of the simulate -> sample -> compute pipeline.

Criterion 12 checks that a rerun gives the same bytes; this test checks that
they are the bytes recorded when the pipeline last changed on purpose.  A
refactor that keeps every number keeps every digest.  A change that alters
output on purpose records the new digests here, and says why.
"""

from __future__ import annotations

import hashlib

from fieldnorm.cli import main

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
