"""Assembly of indicator tables and their CSV serialisation.

A report holds one row per (group, scope, indicator, interval method).
Scopes are each publication year on its own (label ``Y<year>``, all fields
combined) plus everything together (label ``ALL``).  World rows are
included so the stability of the reference set itself is visible.

CSV schema: ``group,scope,n,indicator,estimate,ci_lower,ci_upper,method,
defined,notes`` with UTF-8, LF line endings and RFC-4180 quoting.  Floats
carry 6 significant digits; undefined estimates or limits serialise as
empty fields.  The run configuration goes to a JSON sidecar next to the
CSV so a run can be reproduced exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .bootstrap import BootstrapSpec, bootstrap_indicator, derive_stream_seed
from .corpus import WORLD, Corpus, ExclusionPolicy, FieldYearKey, apply_exclusion
from .indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
)
from .intervals import (
    BOOTSTRAP_PERCENTILE,
    FIELLER,
    HEURISTIC_EXPANSION,
    LITERAL,
    IntervalEstimate,
)
from .scopes import FORMULA_METHOD, fieller_interval, formula_interval, indicator_value

CSV_HEADER = ("group", "scope", "n", "indicator", "estimate", "ci_lower", "ci_upper",
              "method", "defined", "notes")

FORMULA = "formula"
FIELLER_METHOD = "fieller"
BOOTSTRAP = "bootstrap"
CI_METHODS = (FORMULA, FIELLER_METHOD, BOOTSTRAP)

# Indicators whose scope honours the small-cell exclusion policy: the
# equalisation step is what inflates small cells.
EQUALISED_INDICATORS = (EMNPC, EQ_PROP_CITED)

# Whether the world baselines are resampled alongside the group cells for
# bootstrap rows: on for the sampled-world indicators, off for MNCS (world
# mean treated as exact) and for pure group-side proportions.
RESAMPLE_WORLD_DEFAULT = {
    MNLCS: True, LUNDBERG_Z: True, EMNPC: True, MNPC: True,
    MNCS: False, PROP_CITED: False, EQ_PROP_CITED: False,
}

BOOTSTRAP_ITERATIONS_DEFAULT = {
    MNLCS: 1000, MNCS: 1000, LUNDBERG_Z: 1000,
    EMNPC: 10000, MNPC: 10000, PROP_CITED: 10000, EQ_PROP_CITED: 10000,
}


@dataclass(frozen=True)
class ReportConfig:
    indicators: tuple[str, ...] = (MNLCS,)
    ci_methods: tuple[str, ...] = (FORMULA,)
    alpha: float = 0.05
    seed: int = 0
    bootstrap_iterations: int | None = None
    resample_world: bool | None = None
    exclusion: ExclusionPolicy | None = None
    continuity: str = "auto"
    expansion_mode: str = LITERAL
    extra_metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.indicators:
            raise ValueError("at least one indicator is required")
        unknown = set(self.ci_methods) - set(CI_METHODS)
        if unknown:
            raise ValueError(f"unknown ci methods {sorted(unknown)}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if self.bootstrap_iterations is not None:
            BootstrapSpec(self.bootstrap_iterations)  # checked before any row is computed


@dataclass(frozen=True)
class ReportRow:
    group: str
    scope: str
    n: int
    indicator: str
    estimate: float | None
    lower: float | None
    upper: float | None
    method: str
    defined: bool
    notes: str = ""


@dataclass(frozen=True)
class IndicatorReport:
    rows: tuple[ReportRow, ...]
    metadata: dict


def _join_notes(*notes: str) -> str:
    return "; ".join(n for n in notes if n)


def _method_applies(indicator: str, method: str) -> bool:
    if method == FIELLER_METHOD:
        return indicator == MNLCS
    return True


def _method_tag(indicator: str, method: str, keys: set[FieldYearKey]) -> str:
    """Interval-method tag a flagged row would have carried if computable."""
    if method == FORMULA:
        return FORMULA_METHOD[indicator]
    if method == FIELLER_METHOD:
        return FIELLER if len(keys) == 1 else HEURISTIC_EXPANSION
    return BOOTSTRAP_PERCENTILE


def _interval_for(
    corpus: Corpus,
    group: str,
    keys: set[FieldYearKey],
    indicator: str,
    method: str,
    scope_label: str,
    config: ReportConfig,
) -> IntervalEstimate:
    if method == FORMULA:
        return formula_interval(corpus, group, keys, indicator, config.alpha, config.continuity)
    if method == FIELLER_METHOD:
        return fieller_interval(corpus, group, keys, config.alpha, config.expansion_mode)
    resample = config.resample_world
    if resample is None:
        resample = RESAMPLE_WORLD_DEFAULT[indicator]
    iterations = config.bootstrap_iterations
    if iterations is None:
        iterations = BOOTSTRAP_ITERATIONS_DEFAULT[indicator]
    spec = BootstrapSpec(
        iterations=iterations,
        seed=derive_stream_seed(config.seed, group, scope_label, indicator),
        resample_world=resample,
        alpha=config.alpha,
    )
    group_sets = [corpus.cell(group, k) for k in sorted(keys)]
    world_sets = [corpus.world(k) for k in sorted(keys)]
    return bootstrap_indicator(group_sets, world_sets, indicator, spec)


def build_report(corpus: Corpus, config: ReportConfig) -> IndicatorReport:
    """One row per (group, scope, indicator, method); flags, never aborts."""
    rows: list[ReportRow] = []
    groups = sorted(corpus.groups) + [WORLD]
    for group in groups:
        all_keys = corpus.keys_for(group)
        if config.exclusion is not None and group != WORLD:
            retained = apply_exclusion(corpus, group, config.exclusion)
        else:
            retained = all_keys
        years = sorted({k.year for k in all_keys})
        scopes = [(f"Y{year}", {k for k in all_keys if k.year == year}) for year in years]
        scopes.append(("ALL", set(all_keys)))
        for scope_label, scope_keys in scopes:
            for indicator in config.indicators:
                keys = scope_keys & retained if indicator in EQUALISED_INDICATORS else scope_keys
                methods = [m for m in config.ci_methods if _method_applies(indicator, m)]
                if not keys:
                    for method in methods:
                        rows.append(
                            ReportRow(
                                group, scope_label, 0, indicator, None, None, None,
                                _method_tag(indicator, method, keys),
                                defined=False,
                                notes="no cells retained by exclusion policy",
                            )
                        )
                    continue
                n = sum(len(corpus.cell(group, k)) for k in keys)
                point = indicator_value(corpus, group, keys, indicator)
                for method in methods:
                    if not point.defined:
                        rows.append(
                            ReportRow(
                                group, scope_label, n, indicator, None, None, None,
                                _method_tag(indicator, method, keys),
                                defined=False, notes=point.note,
                            )
                        )
                        continue
                    interval = _interval_for(
                        corpus, group, keys, indicator, method, scope_label, config
                    )
                    rows.append(
                        ReportRow(
                            group, scope_label, n, indicator,
                            point.estimate, interval.lower, interval.upper,
                            interval.method,
                            defined=point.defined and interval.defined,
                            notes=_join_notes(point.note, interval.note),
                        )
                    )
    metadata = {
        "alpha": config.alpha,
        "seed": config.seed,
        "indicators": list(config.indicators),
        "ci_methods": list(config.ci_methods),
        "bootstrap_iterations": config.bootstrap_iterations,
        "resample_world": config.resample_world,
        "resample_world_defaults": RESAMPLE_WORLD_DEFAULT,
        "bootstrap_iteration_defaults": BOOTSTRAP_ITERATIONS_DEFAULT,
        "exclusion": None
        if config.exclusion is None
        else {
            "min_articles": config.exclusion.min_articles,
            "min_fraction_of_mean": config.exclusion.min_fraction_of_mean,
        },
        "continuity": config.continuity,
        "expansion_mode": config.expansion_mode,
        "percentile_definition": "nearest-rank",
        **config.extra_metadata,
    }
    return IndicatorReport(rows=tuple(rows), metadata=metadata)


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def write_csv(report: IndicatorReport, path: Path | str) -> None:
    """Stable-ordered CSV per the schema above; rerun gives identical bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(report.rows, key=lambda r: (r.group, r.scope, r.indicator, r.method))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in ordered:
            writer.writerow(
                [
                    row.group,
                    row.scope,
                    row.n,
                    row.indicator,
                    _fmt(row.estimate),
                    _fmt(row.lower),
                    _fmt(row.upper),
                    row.method,
                    "true" if row.defined else "false",
                    row.notes,
                ]
            )


def metadata_path(csv_path: Path | str) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".meta.json")


def write_metadata(report: IndicatorReport, csv_path: Path | str) -> Path:
    path = metadata_path(csv_path)
    path.write_text(
        json.dumps(report.metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def read_csv_rows(path: Path | str) -> list[dict]:
    """Parse a written report back into dicts (numeric fields as floats)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for record in reader:
            rows.append(
                {
                    **record,
                    "n": int(record["n"]),
                    "estimate": float(record["estimate"]) if record["estimate"] else None,
                    "ci_lower": float(record["ci_lower"]) if record["ci_lower"] else None,
                    "ci_upper": float(record["ci_upper"]) if record["ci_upper"] else None,
                    "defined": record["defined"] == "true",
                }
            )
        return rows
