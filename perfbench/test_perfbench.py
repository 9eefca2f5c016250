"""Smoke test of the benchmark: every workload on a tiny corpus.

Checks that each workload passes its output check and emits every metric
declared in BENCHMARK.json, that layers a workload does not run read 0
calls, and that the harness refuses to run without a source tree.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layers each workload bypasses: they must be reported as 0 calls.
IDLE = {
    "analytic": ("bootstrap.bootstrap_indicator", "corpus.sample_cell", "synthetic.scenario_grid"),
    "bootstrap": ("scopes.formula_interval", "corpus.write_cell", "synthetic.generate_cell"),
    "compare_ci": ("corpus.read_cell", "report.build_report", "corpus.write_cell"),
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    run.import_fieldnorm()
    record = run.run_workload(workload, seed=3, seconds=0, trace=True, scale="tiny")
    assert record["failed"] == 0, record["passes"]
    assert record["sha256"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(json.dumps(run.result(record, SPEC, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] == 2
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    layers = record["per_layer"]
    for name in IDLE[workload]:
        assert layers[f"{name}.calls"] == 0, name
    named = sum(v for k, v in layers.items() if k.endswith(".s") and k != "other.s")
    assert named + layers["other.s"] == pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert all(v > 0 for v in record["end_to_end"].values())


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_undefined_world_row_fails_the_check(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text(",".join(run.CSV_HEADER) + "\n"
                      "WORLD,F00/2010,400,MNLCS,,,,NORMAL_T,false,\n", encoding="utf-8")
    (tmp_path / "report.meta.json").write_text("{}", encoding="utf-8")
    with pytest.raises(run.CheckFailed, match="world estimate is undefined"):
        run.check_report(report)
