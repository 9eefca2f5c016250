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
from typing import Iterable, Sequence

from .bootstrap import (
    BOOTSTRAP_ITERATIONS_DEFAULT,
    RESAMPLE_WORLD_DEFAULT,
    BootstrapSpec,
    bootstrap_indicator,
    bootstrap_plan,
    derive_stream_seed,
)
from .corpus import WORLD, Corpus, ExclusionPolicy, FieldYearKey, apply_exclusion
from .indicators import (
    EMNPC,
    EQ_PROP_CITED,
    MEAN_INDICATORS,
    MNLCS,
    PROPORTION_INDICATORS,
)
from .intervals import (
    BOOTSTRAP_PERCENTILE,
    EXPAND_FROM_MEAN,
    FIELLER,
    HEURISTIC_EXPANSION,
    LITERAL,
    IntervalEstimate,
    check_alpha,
)
from .scopes import (
    CONTINUITY_MODES,
    FORMULA_METHOD,
    fieller_interval,
    formula_interval,
    indicator_value,
)

CSV_HEADER = ("group", "scope", "n", "indicator", "estimate", "ci_lower", "ci_upper",
              "method", "defined", "notes")

FORMULA = "formula"
FIELLER_METHOD = "fieller"
BOOTSTRAP = "bootstrap"
CI_METHODS = (FORMULA, FIELLER_METHOD, BOOTSTRAP)

# Indicators whose scope honours the small-cell exclusion policy: the
# equalisation step is what inflates small cells.
EQUALISED_INDICATORS = (EMNPC, EQ_PROP_CITED)


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
        unknown = set(self.indicators) - set(MEAN_INDICATORS + PROPORTION_INDICATORS)
        if unknown:
            raise ValueError(f"unknown indicators {sorted(unknown)}")
        if len(set(self.indicators)) != len(self.indicators):
            raise ValueError(f"duplicate indicators in {list(self.indicators)}")
        unknown = set(self.ci_methods) - set(CI_METHODS)
        if unknown:
            raise ValueError(f"unknown ci methods {sorted(unknown)}")
        if not any(_method_applies(i, m) for i in self.indicators for m in self.ci_methods):
            raise ValueError(f"no ci method of {list(self.ci_methods)} applies to"
                             f" {list(self.indicators)} (fieller is MNLCS only)")
        check_alpha(self.alpha)
        if self.continuity not in CONTINUITY_MODES:
            raise ValueError(f"unknown continuity mode {self.continuity!r}")
        if self.expansion_mode not in (LITERAL, EXPAND_FROM_MEAN):
            raise ValueError(f"unknown expansion mode {self.expansion_mode!r}")
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
    spec = bootstrap_plan(
        indicator, RESAMPLE_WORLD_DEFAULT, config.bootstrap_iterations, config.resample_world,
        derive_stream_seed(config.seed, group, scope_label, indicator), config.alpha,
    )
    scope = corpus.scope(group, keys)
    return bootstrap_indicator(scope.group, scope.world, indicator, spec)


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
                # Why no interval can be given for this scope, if none can.
                if keys:
                    n = sum(cell.n for cell in corpus.scope(group, keys).group)
                    point = indicator_value(corpus, group, keys, indicator)
                    flag = None if point.defined else point.note
                else:
                    n, flag = 0, "no cells retained by exclusion policy"
                for method in methods:
                    if flag is not None:
                        rows.append(
                            ReportRow(
                                group, scope_label, n, indicator, None, None, None,
                                _method_tag(indicator, method, keys),
                                defined=False, notes=flag,
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
                            defined=interval.defined,
                            notes="; ".join(n for n in (point.note, interval.note) if n),
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


def format_field(value: float | None) -> str:
    """A float to 6 significant digits; an undefined value to an empty field."""
    return "" if value is None else f"{value:.6g}"


def write_table(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One CSV table: UTF-8, LF line endings, RFC-4180 quoting, parents created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(report: IndicatorReport, path: Path | str) -> None:
    """Stable-ordered CSV per the schema above; rerun gives identical bytes."""
    ordered = sorted(report.rows, key=lambda r: (r.group, r.scope, r.indicator, r.method))
    write_table(path, CSV_HEADER, (
        [row.group, row.scope, row.n, row.indicator, format_field(row.estimate),
         format_field(row.lower), format_field(row.upper), row.method,
         "true" if row.defined else "false", row.notes]
        for row in ordered
    ))


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
