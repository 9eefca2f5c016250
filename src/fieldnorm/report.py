"""Assembly of indicator tables and their CSV serialisation.

A report holds one row per (group, scope, indicator, interval method).
Scopes are each publication year on its own (label ``Y<year>``, all fields
combined) plus everything together (label ``ALL``).  World rows are
included so the stability of the reference set itself is visible.
``build_report`` plans the rows, one ``bootstrap.PlannedRow`` each named by
its group and scope label, with compute's seed streams and resample rule;
``bootstrap.row_results`` computes them at the run's alpha, continuity rule
and expansion mode, and each planned row maps to one ``ReportRow``.

CSV schema: ``group,scope,n,indicator,estimate,ci_lower,ci_upper,method,
defined,notes`` with UTF-8, LF line endings and RFC-4180 quoting.  Floats
carry 6 significant digits; undefined estimates or limits serialise as
empty fields.  The JSON sidecar next to the CSV is the ``ReportConfig``
plus the bootstrap default tables, the percentile definition and the inputs
``write_metadata`` is given, so a run can be reproduced exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bootstrap import (
    BOOTSTRAP_ITERATIONS_DEFAULT,
    RESAMPLE_WORLD_DEFAULT,
    BootstrapSpec,
    PlannedRow,
    bootstrap_plan,
    row_results,
)
from .corpus import (
    WORLD, Corpus, ExclusionPolicy, SampleSpec, apply_exclusion, check_numbers,
    derive_stream_seed, sample_corpus,
)
from .indicators import EMNPC, EQ_PROP_CITED, MNLCS, check_indicators
from .intervals import ALPHA_DEFAULT, EXPANSION_DEFAULT
from .scopes import BOOTSTRAP, CI_METHODS, CONTINUITY_DEFAULT, FORMULA, check_run, route_applies

CSV_HEADER = ("group", "scope", "n", "indicator", "estimate", "ci_lower", "ci_upper",
              "method", "defined", "notes")

# Indicators whose scope honours the small-cell exclusion policy: the
# equalisation step is what inflates small cells.
EQUALISED_INDICATORS = frozenset((EMNPC, EQ_PROP_CITED))


@dataclass(frozen=True)
class ReportConfig:
    """A ``compute`` run's settings: ``ReportConfig()`` is ``compute`` with no flags.

    Each is held as the run uses it: the seed mod 2**64, and a set
    ``sample_size`` as the int every cell is first down-sampled to.
    """

    indicators: tuple[str, ...] = (MNLCS,)
    ci_methods: tuple[str, ...] = (FORMULA,)
    alpha: float = ALPHA_DEFAULT
    seed: int = 0
    bootstrap_iterations: int | None = None
    resample_world: bool | None = None
    exclusion: ExclusionPolicy = ExclusionPolicy()
    continuity: str = CONTINUITY_DEFAULT
    expansion_mode: str = EXPANSION_DEFAULT
    sample_size: int | None = None

    def __post_init__(self) -> None:
        check_indicators(self.indicators)
        unknown = set(self.ci_methods) - set(CI_METHODS)
        if unknown:
            raise ValueError(f"unknown ci methods {sorted(unknown)}")
        if len(set(self.ci_methods)) != len(self.ci_methods):
            raise ValueError(f"duplicate ci methods in {list(self.ci_methods)}")
        if not any(route_applies(i, m) for i in self.indicators for m in self.ci_methods):
            raise ValueError(f"no ci method of {list(self.ci_methods)} applies to"
                             f" {list(self.indicators)} (fieller is MNLCS only)")
        check_numbers(self, "report", "seed", reals=("alpha",))
        check_run(self.alpha, self.continuity, self.expansion_mode)
        if self.sample_size is not None:
            object.__setattr__(self, "sample_size", SampleSpec(self.sample_size).size)
        if not isinstance(self.exclusion, ExclusionPolicy):
            raise ValueError(f"exclusion must be an ExclusionPolicy, got {self.exclusion!r}"
                             " (ExclusionPolicy(1, 0.0) keeps every cell)")
        if self.bootstrap_iterations is not None:
            BootstrapSpec(self.bootstrap_iterations)  # checked before any row is computed
        if self.resample_world is not None and not isinstance(self.resample_world, bool):
            raise ValueError(f"resample_world must be None or a bool, got {self.resample_world!r}")


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


def _planned_rows(corpus: Corpus, config: ReportConfig) -> Iterator[PlannedRow]:
    """The rows of a ``compute`` run, one per (group, scope, indicator, method) a route serves."""
    # Only the equalised indicators read the exclusion-retained scopes.
    equalised = EQUALISED_INDICATORS & set(config.indicators)
    for group in sorted(corpus.groups) + [WORLD]:
        all_keys = corpus.keys_for(group)
        if equalised and group != WORLD:
            retained = apply_exclusion(corpus, group, config.exclusion)
        else:
            retained = all_keys
        years = sorted({k.year for k in all_keys})
        scopes = [(f"Y{year}", {k for k in all_keys if k.year == year}) for year in years]
        scopes.append(("ALL", set(all_keys)))
        for scope_label, scope_keys in scopes:
            full = corpus.scope(group, scope_keys)
            kept_keys = scope_keys & retained
            kept = full if kept_keys == scope_keys else corpus.scope(group, kept_keys)
            for indicator in config.indicators:
                scope = kept if indicator in EQUALISED_INDICATORS else full
                for method in config.ci_methods:
                    if not route_applies(indicator, method):
                        continue
                    spec = None
                    if method == BOOTSTRAP:
                        seed = derive_stream_seed(config.seed, group, scope_label, indicator)
                        spec = bootstrap_plan(indicator, RESAMPLE_WORLD_DEFAULT,
                                              config.bootstrap_iterations, config.resample_world,
                                              seed)
                    yield PlannedRow(group, scope_label, scope, indicator, method, spec)


def build_report(corpus: Corpus, config: ReportConfig) -> IndicatorReport:
    """One row per (group, scope, indicator, method) of a corpus with cells; flags, never aborts."""
    if not corpus.cells:
        raise ValueError("corpus has no cells")
    if config.sample_size is not None:
        corpus = sample_corpus(corpus, config.sample_size, config.seed)
    plan = list(_planned_rows(corpus, config))
    results = row_results(plan, config.alpha, config.continuity, config.expansion_mode)
    rows = tuple(ReportRow(row.group, row.label, r.n, row.indicator, r.estimate, r.lower,
                           r.upper, r.method, r.defined, r.note) for row, r in zip(plan, results))
    metadata = {
        **asdict(config),
        "resample_world_defaults": RESAMPLE_WORLD_DEFAULT,
        "bootstrap_iteration_defaults": BOOTSTRAP_ITERATIONS_DEFAULT,
        "percentile_definition": "nearest-rank",
    }
    return IndicatorReport(rows=rows, metadata=metadata)


def format_field(value: float | None) -> str:
    """A float to 6 significant digits; an undefined value to an empty field."""
    return "" if value is None else f"{value:.6g}"


def csv_field(value):
    """A table cell: a bool as true/false, a float or None by ``format_field``, else as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, float):
        return format_field(value)
    return value


def write_table(path: Path | str, header: Sequence[str], records: Iterable) -> None:
    """A CSV table of dataclass records: UTF-8, LF endings, RFC-4180 quoting, parents made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([csv_field(getattr(record, f.name)) for f in fields(record)]
                         for record in records)


def write_csv(report: IndicatorReport, path: Path | str) -> None:
    """Stable-ordered CSV per the schema above; rerun gives identical bytes."""
    ordered = sorted(report.rows, key=lambda r: (r.group, r.scope, r.indicator, r.method))
    write_table(path, CSV_HEADER, ordered)


def metadata_path(csv_path: Path | str) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".meta.json")


def write_metadata(report: IndicatorReport, csv_path: Path | str, **inputs) -> Path:
    """The sidecar of ``csv_path``: the report's metadata with ``inputs`` merged over it."""
    path = metadata_path(csv_path)
    text = json.dumps({**report.metadata, **inputs}, indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path
