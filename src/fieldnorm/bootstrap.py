"""Indicator rows with their intervals, percentile bootstrap, and comparisons.

Rows.  ``report.build_report`` (``compute``) and ``comparison_suite``
(``compare-ci``) only plan rows, and ``bootstrap_indicator`` plans one from
raw cell sets that only ``corpus.pair_cells`` checks; ``row_results`` computes
every row of all three, drawing all bootstrap rows of a run in one
``bootstrap_intervals`` call.  A planned row is one ``PlannedRow`` from plan
to CSV: its group and label, its ``Scope``, indicator and interval route,
and for a bootstrap row its ``BootstrapSpec`` of iterations, seed and
``resample_world``.  The level alpha is the run's, not a row's:
``row_results`` takes it once for every interval of the run.

Replicates resample every group cell with replacement at its original size;
when ``resample_world`` is set the world cells are resampled too.  A row
whose indicator reads no world statistic (the proportions) holds
``resample_world=False`` whatever it was planned with, so its draws, cost
and note agree.
``PlannedRow.draws`` lists the cells a row draws and what each records, once
per row, and ``index_scheme.draw`` fills them; every other cell is read as
itself.  A row that draws nothing never reaches the scheme and is its point
R times.
``indicators.indicator_estimate`` evaluates all R replicates at once;
undefined ones come back as NaN and are counted, and ``bootstrap_intervals``
takes the percentiles.  This module also holds the bootstrap defaults
(``bootstrap_plan``) and the ``compare-ci`` comparison.

Processes.  Replicate r of a row depends only on (seed, r) and the row's own
cells, so ``bootstrap_intervals`` may draw its rows in any grouping.  It has
one path.  The rows that draw go into one bin per process that ``_cpus``
allows, but never into more bins than there are such rows; each row, largest
``PlannedRow.cost`` first, goes to the least-loaded bin.  The rows that draw
nothing join the first bin.  The first bin is drawn here and each other bin
in a forked child, which sends back only its intervals, so a run of one bin
forks nothing: that is the serial run.  ``_cpus`` holds the whole rule: one
process on every system but Linux and while another Python thread runs,
otherwise one per CPU of the affinity mask.  The kernel kills a child when
the process that forked it dies, however that process ends
(``prctl(PR_SET_PDEATHSIG)``).
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import (
    WORLD, ArticleSet, Corpus, Scope, check_integers, derive_stream_seed, pair_cells,
)
from .indicators import (
    CELL_STATISTICS,
    EMNPC,
    EQ_PROP_CITED,
    LUNDBERG_Z,
    MNCS,
    MNLCS,
    MNPC,
    PROP_CITED,
    PROPORTION_INDICATORS,
    IndicatorValue,
    check_indicators,
    indicator_estimate,
    indicator_result,
)
from .index_scheme import draw
from .intervals import ALPHA_DEFAULT, BOOTSTRAP_PERCENTILE, EXPANSION_DEFAULT, IntervalEstimate
from .scopes import (
    BOOTSTRAP, CONTINUITY_DEFAULT, FORMULA, check_run, method_tag, route_applies, route_interval,
)

# The note of a row with no cell.
_EMPTY_SCOPE = "no cells retained by exclusion policy"

BOOTSTRAP_ITERATIONS_DEFAULT = {
    MNLCS: 1000, MNCS: 1000, LUNDBERG_Z: 1000,
    EMNPC: 10000, MNPC: 10000, PROP_CITED: 10000, EQ_PROP_CITED: 10000,
}
# What ``--resample-world auto`` means, per command.  ``compute`` holds the
# world fixed for MNCS (world mean treated as exact) and the group-side
# proportions; ``compare-ci`` resamples it only where the formula limits
# carry the world's variance.
RESAMPLE_WORLD_DEFAULT = {
    MNLCS: True, LUNDBERG_Z: True, EMNPC: True, MNPC: True,
    MNCS: False, PROP_CITED: False, EQ_PROP_CITED: False,
}
COMPARE_CI_RESAMPLE_WORLD_DEFAULT = {
    MNLCS: False, MNCS: False, LUNDBERG_Z: False,
    EMNPC: True, MNPC: True, PROP_CITED: False, EQ_PROP_CITED: False,
}


@dataclass(frozen=True)
class BootstrapSpec:
    iterations: int
    seed: int = 0
    resample_world: bool = True

    def __post_init__(self) -> None:
        check_integers(self, "bootstrap", "iterations", "seed")
        if self.iterations < 100:
            raise ValueError("at least 100 bootstrap iterations are required")
        if not isinstance(self.resample_world, bool):
            raise ValueError(f"resample_world must be a bool, got {self.resample_world!r}")


def bootstrap_plan(
    indicator: str, auto_rule: Mapping[str, bool], iterations: int | None,
    resample_world: bool | None, seed: int,
) -> BootstrapSpec:
    """One bootstrap row's spec from a command's flags.

    A flag left at None takes its default: ``BOOTSTRAP_ITERATIONS_DEFAULT``,
    or ``auto_rule``, the command's resample table.
    """
    if iterations is None:
        iterations = BOOTSTRAP_ITERATIONS_DEFAULT[indicator]
    if resample_world is None:
        resample_world = auto_rule[indicator]
    return BootstrapSpec(iterations, seed, resample_world)


@dataclass(frozen=True)
class CiComparison:
    """Signed per-side half-width differences, positive = formula narrower."""

    lower_pct_diff: float
    upper_pct_diff: float
    basis: float


def percentile(sorted_replicates: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: element ceil(q*N) of the ascending list."""
    n = len(sorted_replicates)
    if n == 0:
        raise ValueError("no replicates")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    rank = min(max(math.ceil(q * n) - 1, 0), n - 1)
    return sorted_replicates[rank]


@dataclass(frozen=True)
class PlannedRow:
    """One row of a run, from plan to CSV: (group, label, scope, indicator, route) and spec.

    ``label`` names the scope within the group: its ``Y<year>`` or ``ALL`` in
    ``compute``, the scenario in ``compare-ci``.  Construction refuses a
    route that does not serve the indicator (``scopes.route_applies``), a
    bootstrap row without a ``BootstrapSpec`` and any other row with one.
    A bootstrap row whose indicator reads no world statistic is stored with
    ``resample_world=False``.
    """

    group: str
    label: str
    scope: Scope
    indicator: str
    route: str
    spec: BootstrapSpec | None = None

    def __post_init__(self) -> None:
        if not route_applies(self.indicator, self.route):
            raise ValueError(f"route {self.route!r} does not serve {self.indicator}")
        if (self.spec is None) == (self.route == BOOTSTRAP):
            raise ValueError(f"a {self.route} row for {self.indicator} with spec {self.spec!r}: a"
                             " bootstrap row needs a BootstrapSpec and no other row takes one")
        if self.spec is not None and not CELL_STATISTICS[self.indicator][1]:
            object.__setattr__(self, "spec", replace(self.spec, resample_world=False))

    @cached_property
    def draws(self) -> list[tuple[int, ArticleSet, set[str]]]:
        """(slot, cell, statistics it records) of each cell a bootstrap row draws, listed once.

        Slots count the group cells, then the world cells; a one-article cell is never drawn.
        """
        group_stats, world_stats = CELL_STATISTICS[self.indicator]
        cells = [(cell, group_stats) for cell in self.scope.group]
        if self.spec.resample_world:
            cells += [(cell, world_stats) for cell in self.scope.world]
        return [(slot, cell, stats) for slot, (cell, stats) in enumerate(cells) if cell.n > 1]

    @cached_property
    def cost(self) -> int:
        """The articles a bootstrap row draws over all its replicates; 0 if it draws none."""
        return self.spec.iterations * sum(cell.n for _, cell, _ in self.draws)


def _row_values(row: PlannedRow, drawn: list) -> np.ndarray:
    """Entry r: the row on replicate r, NaN if undefined; ``drawn`` fills the slots of its draws."""
    keys, group, world = row.scope
    cells = [*group, *world]
    for (slot, _, _), replicates in zip(row.draws, drawn):
        cells[slot] = replicates
    value, _ = indicator_estimate(row.indicator, keys, cells[:len(group)], cells[len(group):])
    return np.broadcast_to(value, row.spec.iterations)


def _replicate_rows(rows: Sequence[PlannedRow]) -> Iterator[np.ndarray]:
    """``_row_values`` of each row, in order; only a row that draws a cell reaches ``draw``."""
    filled = draw((row.spec.seed, row.spec.iterations,
                   [(cell, stats) for _, cell, stats in row.draws]) for row in rows if row.draws)
    return (_row_values(row, next(filled) if row.draws else []) for row in rows)


def _intervals(rows: Sequence[PlannedRow], alpha: float) -> list[IntervalEstimate]:
    """``bootstrap_intervals`` of ``rows``, drawn in this process."""
    intervals = []
    for row, replicates in zip(rows, _replicate_rows(rows)):
        undefined_mask = np.isnan(replicates)
        undefined = int(np.count_nonzero(undefined_mask))
        note = f"resample_world={'true' if row.spec.resample_world else 'false'}"
        if undefined:
            note += f"; {undefined} undefined replicates excluded"
        if undefined > alpha / 2.0 * row.spec.iterations:
            intervals.append(IntervalEstimate.undefined(
                BOOTSTRAP_PERCENTILE, alpha, note + "; undefined replicates exceed alpha/2"
            ))
            continue
        # A stable sort, like list.sort, so that equal values keep their order.
        estimates = np.sort(replicates[~undefined_mask], kind="stable")
        intervals.append(IntervalEstimate(
            estimate=None, lower=float(percentile(estimates, alpha / 2.0)),
            upper=float(percentile(estimates, 1.0 - alpha / 2.0)), alpha=alpha,
            method=BOOTSTRAP_PERCENTILE, note=note,
        ))
    return intervals


def bootstrap_intervals(rows: Sequence[PlannedRow], alpha: float) -> list[IntervalEstimate]:
    """Each bootstrap row's percentile interval at ``alpha``, in order.

    Each scope is sorted with a world cell per key, as ``Corpus.scope`` builds
    it, and its indicator is defined; the intervals carry no estimate or ``n``.
    The rows that draw are split over up to ``_cpus()`` processes (see the
    module docstring); the intervals are the same for any split.
    """
    costs = {index: row.cost for index, row in enumerate(rows) if row.cost}
    bins = _bins(costs, max(1, min(_cpus(), len(costs))))
    bins[0] = sorted(bins[0] + [index for index, row in enumerate(rows) if not row.cost])
    drawn = _forked(len(bins), lambda b: _intervals([rows[i] for i in bins[b]], alpha))
    found = {index: interval for indices, part in zip(bins, drawn)
             for index, interval in zip(indices, part)}
    return [found[index] for index in range(len(rows))]


def _cpus() -> int:
    """The processes a bootstrap run may use: the CPUs this process may run on.

    It is 1 on every system but Linux, the one with ``prctl``, and while
    another Python thread runs, since it could hold a lock that a forked
    child needs.
    """
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _bins(costs: Mapping[int, int], count: int) -> list[list[int]]:
    """The rows of ``costs`` in ``count`` bins, each row, largest cost first, to the least-cost bin.

    Each bin lists its rows in order; equal costs go in row order.
    """
    bins, loads = [[] for _ in range(count)], [0] * count
    for index in sorted(costs, key=lambda index: -costs[index]):
        least = loads.index(min(loads))
        bins[least].append(index)
        loads[least] += costs[index]
    return [sorted(indices) for indices in bins]


# CPython 3.12+ warns at every fork of a process with more than one thread,
# and numpy's OpenBLAS pool alone is enough.  OpenBLAS quiesces its pool at
# fork, and a child calls no BLAS routine and no logging before os._exit; it
# imports only ``traceback``, when its error does not pickle, and no other
# Python thread can hold an import lock, since ``_cpus`` keeps a run with one
# in a single process.  So the warning is ignored.
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to"
                 r" deadlocks in the child")
_SIGKILL = 9  # POSIX; the signal module is not loaded


def _forked(count: int, work: Callable[[int], list]) -> list[list]:
    """[work(0), ..., work(count - 1)]: work(0) in this process, each other in a forked child.

    An exception a child raises is raised here.  Every child is reaped
    before this returns or raises; on any exception here, ``KeyboardInterrupt``
    included, the children still running are killed first.
    """
    children, parent = [], os.getpid()  # (pid, read end) of each child not yet reaped
    try:
        for index in range(1, count):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _send(write, work, index, parent)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, read))
        results = [work(0)]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read)
            if not payload:
                raise RuntimeError(f"bootstrap worker {pid} exited without a result (wait status"
                                   f" {status}, exit code {os.waitstatus_to_exitcode(status)})")
            done, result = pickle.loads(payload)
            if not done:
                raise result
            results.append(result)
        return results
    finally:
        for pid, read in children:
            os.close(read)
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, _SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already
                pass


def _send(write: int, work: Callable[[int], list], index: int, parent: int) -> None:
    """In a forked child of ``parent``: write ``work(index)``, or what it raised, to ``write``.

    The child is killed when the thread that forked it ends, so that no
    child outlives a command killed by a signal; it exits at once if
    ``parent`` died before that was set.  Never returns.
    """
    try:
        ctypes.CDLL(None).prctl(ctypes.c_int(1), ctypes.c_ulong(_SIGKILL))  # PR_SET_PDEATHSIG
        if os.getppid() != parent:
            return
        try:
            payload = pickle.dumps((True, work(index)))
        except BaseException as exc:
            payload = pickle.dumps((False, _portable(exc)))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a RuntimeError that carries its traceback text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        import traceback  # here, on the failure path, so that no run pays for the import

        text = "".join(traceback.format_exception(exc)).rstrip("\n")
        return RuntimeError(f"bootstrap worker failed:\n{text}")


def bootstrap_indicator(
    group_sets: Sequence[ArticleSet],
    world_sets: Sequence[ArticleSet],
    indicator: str,
    spec: BootstrapSpec,
    alpha: float = ALPHA_DEFAULT,
) -> IntervalEstimate:
    """Percentile bootstrap interval at level ``alpha`` for one indicator over one scope.

    The cell sets are paired by ``corpus.pair_cells`` and the row is the one
    ``row_results`` computes, notes included.  Raises ValueError, before any
    draw, when the indicator is undefined on the original data.
    Replicates where the indicator is undefined are excluded; once more
    than alpha/2 of all replicates are undefined the interval itself is
    flagged undefined.
    """
    scope = pair_cells(group_sets, world_sets, same_keys=indicator in PROPORTION_INDICATORS)
    row = PlannedRow(scope.group[0].group, "", scope, indicator, BOOTSTRAP, spec)
    (result,) = row_results([row], alpha)
    if result.estimate is None:  # an undefined point is flagged without a draw
        raise ValueError(f"{indicator} is undefined on the original data")
    return result


def row_results(
    plan: Sequence[PlannedRow], alpha: float, continuity: str = CONTINUITY_DEFAULT,
    expansion_mode: str = EXPANSION_DEFAULT,
) -> list[IntervalEstimate]:
    """The interval of each planned row, in plan order.

    Each holds the point, computed once per (Scope, indicator), the group's
    article count as ``n``, and the point's and interval's notes joined as
    ``note``.  A row whose point is undefined, or whose scope is empty, is
    flagged with the method tag it would have carried (``scopes.method_tag``).
    The run's settings are checked before any row is drawn; every formula and
    Fieller interval is ``scopes.route_interval``'s.
    """
    check_run(alpha, continuity, expansion_mode)
    points: dict[tuple[Scope, str], IndicatorValue] = {
        (scope, indicator): indicator_result(indicator, *scope) if scope.keys
        else IndicatorValue(indicator, None, False, _EMPTY_SCOPE)
        for scope, indicator in dict.fromkeys((row.scope, row.indicator) for row in plan)
    }
    boots = iter(bootstrap_intervals([row for row in plan if row.route == BOOTSTRAP
                                      and points[row.scope, row.indicator].defined], alpha))
    results = []
    for row in plan:
        point = points[row.scope, row.indicator]
        if not point.defined:
            tag = method_tag(row.indicator, row.route, row.scope.keys)
            interval = IntervalEstimate.undefined(tag, alpha, "")
        elif row.route == BOOTSTRAP:
            interval = next(boots)
        else:
            interval = route_interval(row.scope, row.indicator, row.route, alpha, continuity,
                                      expansion_mode)
        note = "; ".join(n for n in (point.note, interval.note) if n)
        n = sum(cell.n for cell in row.scope.group)
        results.append(replace(interval, estimate=point.estimate, n=n, note=note))
    return results


def compare_ci(formula: IntervalEstimate, boot: IntervalEstimate, point: float) -> CiComparison:
    """Per-side half-width differences relative to the bootstrap width.

    Each side's difference is (bootstrap half - formula half) divided by the
    full bootstrap width, reported as ``basis``, so positive values mean
    the formula is narrower on that side.
    """
    if not formula.defined or not boot.defined:
        raise ValueError("both intervals must be defined")
    if not (formula.lower <= point <= formula.upper and boot.lower <= point <= boot.upper):
        raise ValueError("point estimate must lie inside both intervals")
    width = boot.upper - boot.lower
    if width <= 0.0:
        raise ValueError("zero-width bootstrap interval")
    lower_diff = (point - boot.lower) - (point - formula.lower)
    upper_diff = (boot.upper - point) - (formula.upper - point)
    return CiComparison(
        lower_pct_diff=lower_diff / width, upper_pct_diff=upper_diff / width, basis=width
    )


@dataclass(frozen=True)
class ComparisonRow:
    scenario: str
    group: str
    indicator: str
    lower_pct_diff: float | None
    upper_pct_diff: float | None
    defined: bool
    note: str = ""


@dataclass(frozen=True)
class ComparisonSummary:
    label: str
    cells: int
    gaps: int
    lower_mean: float | None
    upper_mean: float | None
    lower_abs_mean: float | None
    upper_abs_mean: float | None
    lower_max_abs: float | None
    upper_max_abs: float | None


def corpus_label(corpus: Corpus) -> str:
    """A scenario's label (compare-ci) and directory (simulate): its sorted fields, '+'-joined."""
    return "+".join(sorted({k.field for k in corpus.keys}))


def comparison_suite(
    scenarios: Sequence[Corpus],
    indicators: Sequence[str],
    specs: BootstrapSpec | Mapping[str, BootstrapSpec],
    alpha: float = ALPHA_DEFAULT,
    continuity: str = CONTINUITY_DEFAULT,
) -> list[ComparisonRow]:
    """Formula-vs-bootstrap comparison for every scenario, group and indicator.

    ``specs`` holds each indicator's BootstrapSpec, and no other's; a lone
    spec serves every indicator.  The formula and bootstrap limits are both
    at level ``alpha``.
    Undefined intervals (either route) become gap rows rather than errors.
    Each run draws from its own seed stream derived from the scenario
    label, group and indicator, so the table is independent of run order.
    """
    check_indicators(indicators)
    if isinstance(specs, BootstrapSpec):
        specs = dict.fromkeys(indicators, specs)
    missing, extra = sorted(set(indicators) - set(specs)), sorted(set(specs) - set(indicators))
    if missing or extra:
        raise ValueError(f"specs must cover exactly the indicators run: missing {missing},"
                         f" extra {extra}")
    if not any(corpus.groups for corpus in scenarios):
        raise ValueError(f"no scenario has a group other than {WORLD}")
    formulas, boots = [], []
    for corpus in scenarios:
        label = corpus_label(corpus)
        for group in sorted(corpus.groups):
            scope = corpus.scope(group, corpus.keys_for(group))
            for indicator in indicators:
                spec = replace(specs[indicator], seed=derive_stream_seed(
                    specs[indicator].seed, label, group, indicator))
                formulas.append(PlannedRow(group, label, scope, indicator, FORMULA))
                boots.append(PlannedRow(group, label, scope, indicator, BOOTSTRAP, spec))
    # The formula rows' results, then the bootstrap rows', each in plan order.
    results = row_results(formulas + boots, alpha, continuity)
    rows = []
    for row, formula, boot in zip(formulas, results, results[len(formulas):]):
        name = (row.label, row.group, row.indicator)
        try:
            diff = compare_ci(formula, boot, formula.estimate)
            rows.append(ComparisonRow(*name, diff.lower_pct_diff, diff.upper_pct_diff, True))
        except ValueError as exc:
            # An undefined formula row says why it is undefined.
            note = str(exc) if formula.defined else formula.note
            rows.append(ComparisonRow(*name, None, None, False, note))
    return rows


def summarize_comparisons(rows: Sequence[ComparisonRow]) -> list[ComparisonSummary]:
    """Signed average, absolute average and maximum per side, per indicator."""
    by_label: dict[str, list[ComparisonRow]] = {}
    for row in rows:
        by_label.setdefault(row.indicator, []).append(row)
    summaries = []
    for label in sorted(by_label):
        group_rows = by_label[label]
        defined = [r for r in group_rows if r.defined]
        stats = [None] * 6
        if defined:
            lows = np.array([r.lower_pct_diff for r in defined])
            ups = np.array([r.upper_pct_diff for r in defined])
            stats = [float(v) for v in (lows.mean(), ups.mean(), np.abs(lows).mean(),
                                        np.abs(ups).mean(), np.abs(lows).max(), np.abs(ups).max())]
        gaps = len(group_rows) - len(defined)
        summaries.append(ComparisonSummary(label, len(group_rows), gaps, *stats))
    return summaries
