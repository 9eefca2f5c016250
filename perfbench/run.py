#!/usr/bin/env python3
"""fieldnorm benchmark: seeded workloads driven through ``fieldnorm.cli.main``.

Run from anywhere inside a source checkout (``src/fieldnorm`` next to this
directory):

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 40 --trace 0

The harness writes the workload's inputs from ``--seed`` into a scratch
directory under ``perfbench/.work``, then runs passes one at a time, each in
a fresh child interpreter (``child.py``) with BLAS/OpenMP threads capped at
1, for ``--seconds``.  Every pass's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is a JSON record of the environment, the input shape, the output SHA-256
and every pass.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from itertools import cycle, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"
WORK_ROOT = HERE / ".work"

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
PASS_TIMEOUT_S = 120  # keeps a run under 180 s even if a pass hangs
# Nominal seconds of child.reference(): reported times are scaled to the
# machine speed at which the reference loop takes exactly this long.
REFERENCE_S = 0.2
ALL_INDICATORS = "mnlcs,mncs,lundberg,emnpc,mnpc,prop"
INDICATOR_TAGS = ("MNLCS", "MNCS", "LUNDBERG_Z", "EMNPC", "MNPC", "PROP_CITED", "EQ_PROP_CITED")
# What every world row must score: the world set against itself.
WORLD_TARGETS = {"MNLCS": 1.0, "MNCS": 1.0, "EMNPC": 1.0, "MNPC": 1.0, "LUNDBERG_Z": 0.0}
CSV_HEADER = ["group", "scope", "n", "indicator", "estimate", "ci_lower", "ci_upper",
              "method", "defined", "notes"]
DETAILS_HEADER = ["scenario", "group", "indicator", "lower_pct_diff", "upper_pct_diff",
                  "defined", "note"]
WORLD_TOLERANCE = 1e-9

# Traced functions: (span name, defining module, attribute).  A dotted
# attribute is a method.  Span names are the per-layer metric names.
TARGETS = (
    ("corpus.read_cell", "corpus", "read_cell"),
    ("corpus.counts_array", "corpus", "ArticleSet.counts_array"),
    ("corpus.sample_cell", "corpus", "sample_cell"),
    ("corpus.write_cell", "corpus", "write_cell"),
    ("indicators.compute_baseline", "indicators", "compute_baseline"),
    ("scopes.indicator_value", "scopes", "indicator_value"),
    ("scopes.formula_interval", "scopes", "formula_interval"),
    ("scopes.fieller_interval", "scopes", "fieller_interval"),
    ("intervals.t_critical", "intervals", "t_critical"),
    ("intervals.z_critical", "intervals", "z_critical"),
    ("intervals.fieller_ci", "intervals", "fieller_ci"),
    ("intervals.mnpc_field_ci", "intervals", "mnpc_field_ci"),
    ("bootstrap.bootstrap_indicator", "bootstrap", "bootstrap_indicator"),
    ("bootstrap.point_estimate", "bootstrap", "point_estimate"),
    ("report.build_report", "report", "build_report"),
    ("report.write_csv", "report", "write_csv"),
    ("report.write_metadata", "report", "write_metadata"),
    ("synthetic.generate_cell", "synthetic", "generate_cell"),
    ("synthetic.scenario_grid", "synthetic", "scenario_grid"),
)

# (mu, sigma, zero_inflation) of each field's world cells, cycled over
# fields; the last two are zero-inflated like sparse web indicators.  The
# values are centred on the CLI's default scenario (mu 1, sigma 1) and were
# fitted so that the `analytic` corpus has the shape the ROADMAP baseline
# records: a median of 36 and a maximum of about 69 distinct count values
# per cell (README.md, "Workloads", gives the fit and what it leaves out).
FIELD_SHAPES = (
    (1.00, 1.0, 0.0), (1.03, 1.0, 0.0), (1.06, 1.0, 0.0), (1.09, 1.0, 0.0), (1.12, 1.0, 0.0),
    (1.15, 1.0, 0.0), (1.18, 1.0, 0.0), (1.21, 1.0, 0.0), (1.00, 1.0, 0.6), (1.00, 1.0, 0.9),
)
# Additive log-scale shift of each group against the world, cycled.
GROUP_SHIFTS = (-0.2, 0.0, 0.15, 0.3)
YEAR_STEP = 0.05  # older years have had longer to collect counts
FIRST_YEAR = 2010


@dataclass(frozen=True)
class Design:
    """Shape of a generated corpus; the seed only drives the draws."""

    groups: int
    fields: int
    years: int
    group_n: int
    world_n: int


@dataclass(frozen=True)
class Grid:
    """``compare-ci`` scenario grid flags."""

    mu: tuple
    sigma: tuple
    zero_inflation: tuple
    n: tuple
    group_shift: tuple

    def argv(self) -> list[str]:
        out = []
        for flag, values in (("--mu", self.mu), ("--sigma", self.sigma),
                             ("--zero-inflation", self.zero_inflation), ("--n", self.n),
                             ("--group-shift", self.group_shift)):
            out += [flag, *(f"{v:g}" for v in values)]
        return out


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one scale."""

    kind: str  # "analytic", "bootstrap" or "compare"
    design: Design | None = None
    grid: Grid | None = None
    iterations: int = 0

    def argvs(self, seed: int) -> list[list[str]]:
        s = str(seed)
        if self.kind == "analytic":
            return [
                ["compute", "--input-dir", "input", "--output", "out/formula.csv",
                 "--indicators", ALL_INDICATORS, "--ci", "formula", "--seed", s],
                ["compute", "--input-dir", "input", "--output", "out/fieller.csv",
                 "--indicators", "mnlcs", "--ci", "fieller", "--seed", s],
            ]
        if self.kind == "bootstrap":
            return [["compute", "--input-dir", "input", "--output", "out/bootstrap.csv",
                     "--indicators", ALL_INDICATORS, "--ci", "bootstrap",
                     "--bootstrap-iters", str(self.iterations), "--seed", s]]
        return [["compare-ci", "--output", "out/summary.csv", "--details", "out/details.csv",
                 "--indicators", ALL_INDICATORS, "--iterations", str(self.iterations),
                 "--seed", s, *self.grid.argv()]]


# Why each workload exists, and why there is no `sample` workload, is
# documented in README.md and BENCHMARK.json.
WORKLOADS = {
    "analytic": {
        "full": Workload("analytic", design=Design(4, 10, 4, 650, 5000)),
        "tiny": Workload("analytic", design=Design(2, 3, 2, 120, 400)),
    },
    "bootstrap": {
        "full": Workload("bootstrap", design=Design(2, 5, 2, 650, 5000), iterations=200),
        "tiny": Workload("bootstrap", design=Design(1, 2, 1, 120, 400), iterations=100),
    },
    "compare_ci": {
        "full": Workload("compare", iterations=200, grid=Grid(
            (0.5, 1.0, 2.0), (0.7, 1.2), (0.0, 0.9), (100, 1000), (0.0, 0.3))),
        "tiny": Workload("compare", iterations=100, grid=Grid(
            (1.0,), (1.0,), (0.0,), (100,), (0.0, 0.3))),
    },
}


class BenchError(RuntimeError):
    """No result can be given: no source tree, or no pass ran to its end."""


def import_fieldnorm() -> None:
    """Import the package from this checkout's ``src``, nowhere else."""
    if not (SRC / "fieldnorm" / "cli.py").is_file():
        raise BenchError(f"no fieldnorm source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import fieldnorm

    if Path(fieldnorm.__file__).resolve().parent != (SRC / "fieldnorm").resolve():
        raise BenchError(f"fieldnorm imported from {fieldnorm.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
    }


# ---------------------------------------------------------------- inputs


def _cell_seed(seed: int, *coords: int) -> int:
    import numpy as np

    state = np.random.SeedSequence([seed & (2**64 - 1), *coords]).generate_state(1, np.uint64)
    return int(state[0])


def _shape(cells: dict, nbytes: int) -> dict:
    distinct = [len(c) for c in cells.values()]
    return {
        "cells": len(cells),
        "articles": sum(sum(c.values()) for c in cells.values()),
        "bytes": nbytes,
        "distinct_median": statistics.median(distinct),
        "distinct_max": max(distinct),
    }


def write_inputs(design: Design, seed: int, directory: Path) -> dict:
    """Write the seeded corpus; return {(group, key): Counter of counts}."""
    from fieldnorm.corpus import WORLD, FieldYearKey, write_cell
    from fieldnorm.synthetic import LognormalSpec, generate_cell

    members = [(WORLD, 0.0, design.world_n)] + [
        (f"G{g + 1}", GROUP_SHIFTS[g % len(GROUP_SHIFTS)], design.group_n)
        for g in range(design.groups)
    ]
    cells = {}
    for f, y in product(range(design.fields), range(design.years)):
        mu, sigma, zero_inflation = FIELD_SHAPES[f % len(FIELD_SHAPES)]
        key = FieldYearKey(f"F{f:02d}", FIRST_YEAR + y)
        year_mu = mu + YEAR_STEP * (design.years - 1 - y)
        for m, (group, shift, n) in enumerate(members):
            spec = LognormalSpec(year_mu + shift, sigma, zero_inflation, n,
                                 seed=_cell_seed(seed, f, y, m))
            aset = generate_cell(spec, key, group)
            write_cell(aset, directory)
            cells[(group, key)] = Counter(aset.counts)
    return cells


def grid_cells(grid: Grid, seed: int) -> dict:
    """The cells ``compare-ci`` builds in process, for the shape record."""
    from fieldnorm.synthetic import scenario_grid

    corpora = scenario_grid(grid.mu, grid.sigma, grid.zero_inflation, grid.n,
                            group_shifts=grid.group_shift, base_seed=seed)
    return {(i, ck): Counter(aset.counts)
            for i, corpus in enumerate(corpora) for ck, aset in corpus.cells.items()}


def grid_labels(grid: Grid) -> list[str]:
    from fieldnorm.synthetic import scenario_label

    return [scenario_label(*p) for p in product(grid.mu, grid.sigma, grid.zero_inflation, grid.n)]


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _read_csv(path: Path, header: list[str]) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise CheckFailed(f"{path.name}: header {reader.fieldnames}")
        return list(reader)


def check_report(path: Path) -> int:
    """Check one ``compute`` CSV and sidecar; return its bootstrap rows that ran."""
    rows = _read_csv(path, CSV_HEADER)
    if not rows:
        raise CheckFailed(f"{path.name}: no rows")
    meta = path.with_name(path.stem + ".meta.json")
    try:
        json.loads(meta.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{meta.name}: {exc}") from None
    bootstrapped = 0
    for row in rows:
        where = f"{path.name}: {row['group']}/{row['scope']}/{row['indicator']}/{row['method']}"
        target = WORLD_TARGETS.get(row["indicator"])
        world = row["group"] == "WORLD" and target is not None
        if not row["estimate"]:
            if world:
                raise CheckFailed(f"{where}: world estimate is undefined")
            continue
        estimate = float(row["estimate"])
        if row["method"] == "BOOTSTRAP_PERCENTILE":
            bootstrapped += 1
        if world and abs(estimate - target) > WORLD_TOLERANCE:
            raise CheckFailed(f"{where}: world estimate {estimate}, expected {target}")
        if row["defined"] == "true":
            lower, upper = float(row["ci_lower"]), float(row["ci_upper"])
            if not lower <= estimate <= upper:
                raise CheckFailed(f"{where}: {lower} <= {estimate} <= {upper} fails")
    return bootstrapped


def check_compare(out: Path, labels: list[str], groups: int) -> int:
    """Check summary and details tables; return the scenario rows listed."""
    details = _read_csv(out / "details.csv", DETAILS_HEADER)
    listed = Counter((r["scenario"], r["group"], r["indicator"]) for r in details)
    expected = Counter(product(labels, [f"G{g + 1}" for g in range(groups)], INDICATOR_TAGS))
    if listed != expected:
        raise CheckFailed(f"details.csv lists {len(listed)} of {len(expected)} scenario rows")
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = {r["label"]: r for r in csv.DictReader(fh)}
    for tag in INDICATOR_TAGS:
        if tag not in summary or int(summary[tag]["cells"]) != len(labels) * groups:
            raise CheckFailed(f"summary.csv: bad or missing row for {tag}")
    return len(details)


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- passes


def run_pass(workdir: Path, argvs: list, trace: bool) -> dict:
    """One child interpreter running every argv of the workload."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    result_path = workdir / "pass.json"
    result_path.unlink(missing_ok=True)
    spec = json.dumps({"argvs": argvs, "trace": TARGETS if trace else [],
                       "result": result_path.name})
    env = {**os.environ, **THREAD_CAPS, "PYTHONPATH": str(SRC)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), spec], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "ok": False, "error": f"timed out after {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"trace": trace, "ok": False, "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    child = json.loads(result_path.read_text(encoding="utf-8"))
    record = {
        "trace": trace,
        "ok": True,
        "wall_s": sum(child["walls"]),
        "reference_s": sum(child["reference_s"]) / len(child["reference_s"]),
        "setup_s": child["imported"] - spawned,
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        "spans": child.get("spans"),
        "missing": child.get("missing"),
        "note_errors": child.get("note_errors"),
    }
    if Path(child["fieldnorm_file"]).resolve().parent != (SRC / "fieldnorm").resolve():
        record.update(ok=False, error=f"child imported {child['fieldnorm_file']}")
    return record


def check_pass(workload: Workload, workdir: Path, record: dict, cells: dict, labels: list) -> None:
    """Check one pass's outputs in place; set its work count and digest."""
    out = workdir / "out"
    try:
        if workload.kind == "analytic":
            check_report(out / "formula.csv")
            check_report(out / "fieller.csv")
            record["work"] = sum(sum(c.values()) for c in cells.values())
        elif workload.kind == "bootstrap":
            record["work"] = workload.iterations * check_report(out / "bootstrap.csv")
        else:
            listed = check_compare(out, labels, len(workload.grid.group_shift))
            record["work"] = workload.iterations * listed
        record["sha256"] = output_digest(out)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        record.update(ok=False, error=f"output check: {exc}")


# ---------------------------------------------------------------- metrics


def layer_metrics(spans: list, wall: float) -> dict:
    """Calls and self seconds per span name, plus the counters noted on spans."""
    duration = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += duration[i]
    calls = Counter(s[0] for s in spans)
    self_s = Counter()
    for i, span in enumerate(spans):
        self_s[span[0]] += duration[i] - covered[i]
    notes = {name: [s[4] for s in spans if s[0] == name and s[4] is not None]
             for name in ("corpus.read_cell", "indicators.compute_baseline",
                          "bootstrap.bootstrap_indicator", "bootstrap.point_estimate",
                          "report.build_report")}
    metrics = {}
    for name, _, _ in TARGETS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = self_s[name]
    metrics["corpus.articles_loaded"] = sum(n for n, _ in notes["corpus.read_cell"])
    metrics["corpus.bytes_read"] = sum(b for _, b in notes["corpus.read_cell"])
    baseline_calls = calls["indicators.compute_baseline"]
    metrics["indicators.baseline_reuse"] = (
        len(set(notes["indicators.compute_baseline"])) / baseline_calls if baseline_calls else 0.0
    )
    boot = [(s, s[2] - s[1]) for s in spans if s[0] == "bootstrap.bootstrap_indicator" and s[4]]
    metrics["bootstrap.replicates"] = sum(s[4][1] for s, _ in boot)
    metrics["bootstrap.undefined_replicates"] = sum(notes["bootstrap.point_estimate"])
    for tag in INDICATOR_TAGS:
        reps = sum(s[4][1] for s, _ in boot if s[4][0] == tag)
        seconds = sum(d for s, d in boot if s[4][0] == tag)
        metrics[f"bootstrap.s_per_replicate.{tag}"] = seconds / reps if reps else 0.0
    boot_s = sum(d for _, d in boot)
    drawn = sum(s[4][1] * s[4][2] for s, _ in boot)
    metrics["bootstrap.articles_drawn_per_s"] = drawn / boot_s if boot_s else 0.0
    metrics["report.rows"] = sum(notes["report.build_report"])
    metrics["other.s"] = wall - sum(self_s.values())
    metrics["trace.wall_s"] = wall
    return metrics


def summarise(passes: list, shape: dict) -> tuple[dict, dict]:
    """End-to-end and per-layer metric values from the passes of one run."""
    attempted = len(passes)
    failed = sum(1 for p in passes if not p["ok"])
    # Timings count from every pass whose child ran to the end, even one
    # whose output check then failed: that run reports itself incorrect.
    plain = [p for p in passes if "wall_s" in p and not p["trace"]]
    end_to_end = {}
    if plain:
        wall = statistics.median(p["wall_s"] * REFERENCE_S / p["reference_s"] for p in plain)
        end_to_end = {
            "wall_s": wall,
            "work_per_s": statistics.median(p.get("work", 0) for p in plain) / wall,
            "setup_s": statistics.median(p["setup_s"] * REFERENCE_S / p["reference_s"]
                                         for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
    traced = [p for p in passes if "wall_s" in p and p["trace"]]
    per_layer = {}
    if traced:
        # One pass's spans, so that the self times add up to its wall time.
        chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        per_layer = layer_metrics(chosen["spans"], chosen["wall_s"])
        if plain:
            raw_wall = statistics.median(p["wall_s"] for p in plain)
            per_layer["raw.wall_s"] = raw_wall
            per_layer["raw.setup_s"] = statistics.median(p["setup_s"] for p in plain)
            per_layer["raw.reference_s"] = statistics.median(p["reference_s"] for p in plain)
            per_layer["trace.overhead_s"] = chosen["wall_s"] - raw_wall
        per_layer["failed_frac"] = failed / attempted
        per_layer.update({f"input.{k}": v for k, v in shape.items()})
    return end_to_end, per_layer


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Set up, run passes for ``seconds`` and check them; return the run record."""
    workload = WORKLOADS[name][scale]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        labels = []
        if workload.design is not None:
            cells = write_inputs(workload.design, seed, workdir / "input")
            nbytes = sum(p.stat().st_size for p in (workdir / "input").iterdir())
        else:
            cells = grid_cells(workload.grid, seed)
            labels = grid_labels(workload.grid)
            nbytes = 0
        shape = _shape(cells, nbytes)
        argvs = workload.argvs(seed)
        kinds = cycle((False, True) if trace else (False,))
        passes = []
        started = time.monotonic()
        while True:
            pass_started = time.monotonic()
            record = run_pass(workdir, argvs, next(kinds))
            if record["ok"]:
                check_pass(workload, workdir, record, cells, labels)
            passes.append(record)
            # Start another pass only if one more like the last still ends in time.
            now = time.monotonic()
            if len(passes) >= (2 if trace else 1) and 2 * now - pass_started - started > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it
    digest = next((p["sha256"] for p in passes if "sha256" in p), None)
    for p in passes:
        if p.get("sha256", digest) != digest:
            p.update(ok=False, error="outputs differ from the run's first checked pass")
    end_to_end, per_layer = summarise(passes, shape)
    return {
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "input": shape,
        "argv": argvs,
        "sha256": digest,
        "missing_spans": next((p["missing"] for p in passes if p.get("missing")), []),
        "note_errors": next((p["note_errors"] for p in passes if p.get("note_errors")), []),
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "missing", "note_errors")}
                   for p in passes],
        "attempted": len(passes),
        "failed": sum(1 for p in passes if not p["ok"]),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def result(record: dict, spec: dict, trace: bool) -> dict:
    """The result line: the metrics ``spec`` (BENCHMARK.json) declares for this mode."""
    section = "per_layer" if trace else "end_to_end"
    values = record[section]
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}; see the passes above")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_fieldnorm()
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: v for k, v in record.items() if k not in ("end_to_end", "per_layer")}))
    try:
        line = result(record, spec, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
