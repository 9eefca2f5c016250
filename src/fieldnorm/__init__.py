"""Field- and year-normalised impact indicators with confidence intervals."""

from .bootstrap import (
    BootstrapSpec,
    bootstrap_indicator,
    compare_ci,
    comparison_suite,
    percentile,
    summarize_comparisons,
)
from .corpus import (
    WORLD,
    ArticleSet,
    Corpus,
    CorpusError,
    ExclusionPolicy,
    FieldYearKey,
    SampleSpec,
    apply_exclusion,
    load_corpus,
    sample_cell,
    sample_corpus,
    write_corpus,
)
from .indicators import (
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
    IndicatorValue,
    NormalizedScores,
    ProportionSummary,
    compute_baseline,
    emnpc,
    equalised_proportion,
    indicator_estimate,
    mnlcs,
    mnpc,
    normalize_log,
    proportion_cited,
)
from .intervals import (
    IntervalEstimate,
    SampleMoments,
    fieller_ci,
    heuristic_expanded_ci,
    mnlcs_normal_ci,
    mnpc_combined_ci,
    mnpc_field_ci,
    risk_ratio_ci,
    t_critical,
    wilson_ci,
    z_critical,
)
from .report import IndicatorReport, ReportConfig, build_report, write_csv
from .synthetic import LognormalSpec, generate_cell, scenario_grid

__version__ = "0.1.0"
