"""Indicator rows with their intervals, percentile bootstrap, and comparisons.

Rows.  ``report.build_report`` (``compute``) and ``comparison_suite``
(``compare-ci``) only plan rows, and ``bootstrap_indicator`` plans one from
raw cell sets that only ``corpus.pair_cells`` checks; ``row_results`` computes
every row of all three, drawing all bootstrap rows of a run in one
``bootstrap_intervals`` call.  A planned row is a ``Scope`` with its
indicator, interval route and spec, and from plan to draw a bootstrap row
is a ``Scope`` with its indicator and spec, a ``BootstrapSpec`` of
iterations, seed and ``resample_world``.  The level alpha is the run's, not
a row's: ``row_results`` takes it once for every interval of the run.

Replicates resample every group cell with replacement at its original size;
when ``resample_world`` is set the world cells are resampled too.  Replicate
r draws from an independent substream derived from (seed, r), so results do
not depend on execution order, and the draws index each cell's counts in
ascending order, so results do not depend on the input article order either.
This module alone knows how a replicate's words become drawn articles, and
holds the bootstrap defaults (``bootstrap_plan``).

Seeding.  Replicate r's generator is ``default_rng(SeedSequence([seed, r]))``
and draws ``integers(0, n, n)`` for each group cell in sorted key order,
then for each world cell.  ``seed_words`` computes the SeedSequence output
of many lanes at once, each with its own seed and r, on a (4, lanes) uint32
pool; ``pcg64_states`` applies PCG64's seeding step (O'Neill 2014) to every
lane in uint64 words.  ``bootstrap_intervals`` seeds consecutive rows
together, in chunks of at most ``_SEED_LANES`` lanes or of one row.

Drawing.  ``integers`` itself is never called, and neither is the
``bit_generator.state`` setter per replicate.  ``state_memory`` locates the
state and increment of the call's one ``PCG64`` through its documented
``ctypes.state_address``, finds their word order once with a probe state,
and each replicate's state is then written straight into that memory.
Replicates are drawn in blocks whose size is set by ``_BLOCK_WORDS``: for
each replicate of a block, ``random_raw`` fills one row of a ``'<u8'``
matrix with all its words at once, with spare words for rejections, and the
matrix's ``'<u4'`` view holds the 32-bit words ``next_uint32`` hands out,
low half first, one row per replicate.  A run holds one block buffer of
about ``_BLOCK_WORDS`` words at most, which every row reuses: the matrix
and the block's index and values scratch are carved out of it.  Only a
replicate wider than that gets a buffer of its own, freed with its row.
Per cell, numpy's bounded draw (Lemire 2019, *Fast random integer
generation in an interval*) is restated on the block's ``(rows, n)``
window: word u draws position ``(u * n) >> 32`` of the cell's sorted counts
and is rejected where ``(u * n) mod 2**32 < 2**32 mod n``.  A rejected word
is dropped from its row in place, so only that row's later words move up,
and a row that runs out of spare words is drawn again with more.  The
positions are the indices ``integers`` would draw, bit for bit.

Recording.  The loop that repairs a cell's window records, from the same
words, the statistics its indicator reads (``indicators.CELL_STATISTICS``)
into ``indicators.CellReplicates`` arrays, one entry per replicate: cited
counts the words that draw a cited position; the means sum the drawn sorted
counts or ln(1+c) values along each row and divide by n (bit-identical to
``ndarray.mean``); M2 sums the squared deviations from that mean.  Those
sorted arrays are built once per cell and row, and freed when it ends.  A
one-article cell draws nothing: every replicate is the cell itself.
``indicators.indicator_estimate`` then evaluates all R replicates at once;
undefined replicates come back as NaN and are counted.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import (
    WORLD, ArticleSet, Corpus, Scope, _WorkArrays, derive_stream_seed, pair_cells,
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
    CellReplicates,
    IndicatorValue,
    check_indicators,
    indicator_estimate,
    indicator_result,
)
from .intervals import ALPHA_DEFAULT, BOOTSTRAP_PERCENTILE, EXPANSION_DEFAULT, IntervalEstimate
from .scopes import (
    BOOTSTRAP, CONTINUITY_DEFAULT, FORMULA, check_run, fieller_interval, formula_interval,
    method_tag, route_applies,
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
# carry the world's variance (the proportions draw nothing from it anyway).
RESAMPLE_WORLD_DEFAULT = {
    MNLCS: True, LUNDBERG_Z: True, EMNPC: True, MNPC: True,
    MNCS: False, PROP_CITED: False, EQ_PROP_CITED: False,
}
COMPARE_CI_RESAMPLE_WORLD_DEFAULT = {
    MNLCS: False, MNCS: False, LUNDBERG_Z: False,
    EMNPC: True, MNPC: True, PROP_CITED: True, EQ_PROP_CITED: True,
}

# NumPy's SeedSequence (numpy/random/bit_generator.pyx) and the PCG64
# seeding step pcg_setseq_128_srandom_r (numpy/random/src/pcg64), restated.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HIGH, _PCG_MULT_LOW = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hash_constants(value: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values SeedSequence's hash constant takes, as a column."""
    values = []
    for _ in range(count):
        values.append(value)
        value = value * mult & _MASK32
    return np.array(values, dtype=np.uint32)[:, None]


# Hash call k XORs with constant k and multiplies by constant k + 1.  The
# pool's calls are the four entropy words, then three per source lane; the
# output's calls are the eight output words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8 + 1)
_MIX_DESTINATIONS = [[d for d in range(4) if d != src] for src in range(4)]

# A PCG64 state with four distinct 64-bit words, in the order numpy's state
# setter reads them: state high, state low, increment high, increment low.
_PROBE = (0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2301674589EFCDAB, 0x32107654BA98FEDC)

# Replicates are drawn in blocks of at most this many 32-bit words, or of one
# replicate.  The count covers the block's words and its scratch, four words
# per article of the largest cell, so it bounds the memory a block takes.
_BLOCK_WORDS = 2**18
# Spare words per replicate for rejected draws, per expected rejection plus
# one; a replicate that runs out is drawn again with more.
_SLACK = 8
# Raw words are drawn in chunks of this many 64-bit words (128 KB).
_RAW_CHUNK = 2**14
# Replicates seeded at once across rows (32 bytes of state each); a larger row is seeded alone.
_SEED_LANES = 2**10


def _hashmix(value: np.ndarray, constants: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix as hash calls ``first`` to ``first + count - 1``, one per row.

    ``value`` has ``count`` rows, or one that every call hashes.
    """
    value = value ^ constants[first:first + count]
    value *= constants[first + 1:first + count + 1]
    value ^= value >> np.uint32(16)
    return value


def seed_words(seeds: int | np.ndarray, replicates: np.ndarray) -> np.ndarray:
    """``SeedSequence([s, r]).generate_state(4, np.uint64)`` for each lane (s, r), as rows.

    ``replicates`` is a uint64 array, ``seeds`` one uint64 seed per lane or
    one seed in [0, 2**64) for all.  The entropy is then at most four 32-bit
    words, the pool size: the seed's words, low word first and the high one
    only if not 0, then r's.  The pool treats missing words as zeros, so r's
    high word can always be included, zero or not.  The pool is a (4, R)
    array, one row per word.
    """
    if isinstance(seeds, int) and not 0 <= seeds < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    seeds = np.asarray(seeds, dtype=np.uint64)
    replicates = np.asarray(replicates, dtype=np.uint64)
    low, half = np.uint64(_MASK32), np.uint64(32)
    words = np.broadcast_arrays(seeds & low, seeds >> half, replicates & low, replicates >> half)
    entropy = np.array(words, np.uint32)
    short = entropy[1] == 0
    entropy[1:3, short], entropy[3, short] = entropy[2:, short], 0

    pool = _hashmix(entropy, _HASH_A, 0, 4)
    for src, dst in enumerate(_MIX_DESTINATIONS):
        # Lane src is hashed once per destination lane, with successive
        # constants, and does not change while it is mixed into them.
        mixed = _MIX_MULT_L * pool[dst]
        mixed -= _MIX_MULT_R * _hashmix(pool[src], _HASH_A, 4 + 3 * src, 3)
        mixed ^= mixed >> np.uint32(16)
        pool[dst] = mixed

    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0, 8).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def pcg64_states(words: np.ndarray) -> np.ndarray:
    """The 128-bit state and increment of a PCG64 seeded with each row of ``words``.

    ``words`` is ``seed_words`` output: the seed's high and low 64-bit
    words, then the sequence's.  Seeding sets ``inc = 2 * seq + 1`` and
    ``state = (inc + seed) * mult + inc``, both mod 2**128, here in uint64
    lanes.  Row i of the result holds the state's high and low words, then
    the increment's, the order numpy's ``state`` setter reads them in.
    """
    s_high, s_low, i_high, i_low = np.asarray(words, dtype=np.uint64).T
    one, half = np.uint64(1), np.uint64(32)
    inc_high = i_high << one | i_low >> np.uint64(63)
    inc_low = i_low << one | one
    t_low = inc_low + s_low
    t_high = inc_high + s_high + (t_low < inc_low)
    # The high word of t_low * mult_low, from 32-bit halves.
    a0, a1 = t_low & np.uint64(_MASK32), t_low >> half
    b0, b1 = np.uint64(_PCG_MULT_LOW & _MASK32), np.uint64(_PCG_MULT_LOW >> 32)
    cross0, cross1 = a0 * b1, a1 * b0
    middle = (a0 * b0 >> half) + (cross0 & np.uint64(_MASK32)) + (cross1 & np.uint64(_MASK32))
    carry_high = a1 * b1 + (cross0 >> half) + (cross1 >> half) + (middle >> half)
    high = carry_high + t_low * np.uint64(_PCG_MULT_HIGH) + t_high * np.uint64(_PCG_MULT_LOW)
    state_low = t_low * np.uint64(_PCG_MULT_LOW) + inc_low
    state_high = high + inc_high + (state_low < inc_low)
    return np.stack([state_high, state_low, inc_high, inc_low], axis=1)


def _state_memory(bit_generator: np.random.PCG64) -> ctypes.Array:
    """The generator's 128-bit state and increment, as four uint64 words in memory order.

    ``ctypes.state_address`` points at numpy's ``pcg64_state``, whose first
    member points at the ``pcg64_random_t`` that holds the two words.  The
    array is a view of that memory and does not keep ``bit_generator`` alive.
    """
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return (ctypes.c_uint64 * 4).from_address(address)


def _set_state(bit_generator: np.random.PCG64, words: Sequence[int]) -> None:
    """Set a PCG64 through its public setter from ``pcg64_states``-ordered words."""
    s_high, s_low, i_high, i_low = words
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_high << 64 | s_low, "inc": i_high << 64 | i_low},
        "has_uint32": 0,
        "uinteger": 0,
    }


def state_memory(bit_generator: np.random.PCG64) -> tuple[ctypes.Array, list[int]]:
    """The generator's state memory, and where each ``pcg64_states`` column goes in it.

    Writing ``row[order]`` into ``memory[:]``, for a row of ``pcg64_states``,
    sets ``bit_generator`` to that state; ``has_uint32`` is left as it is,
    and ``random_raw`` never reads it.  Builds with 128-bit integers keep
    each 128-bit word as a native integer, low half first on little-endian
    hosts; builds without them keep a {high, low} struct.  The order is read
    from a probe state set through the public setter, then confirmed by
    writing its complement through ``memory`` and reading
    ``bit_generator.state`` back.  Keep ``bit_generator`` alive while
    ``memory`` is used.
    """
    memory = _state_memory(bit_generator)
    _set_state(bit_generator, _PROBE)
    landed = list(memory)
    if sorted(landed) == sorted(_PROBE):
        order = [_PROBE.index(word) for word in landed]
        complement = [word ^ (2**64 - 1) for word in _PROBE]
        memory[:] = [complement[i] for i in order]
        state = bit_generator.state["state"]
        s_high, s_low, i_high, i_low = complement
        if (state["state"], state["inc"]) == (s_high << 64 | s_low, i_high << 64 | i_low):
            return memory, order
    raise RuntimeError(
        f"cannot locate the PCG64 state in memory under numpy {np.__version__}"
    )


@dataclass(frozen=True)
class BootstrapSpec:
    iterations: int
    seed: int = 0
    resample_world: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 100:
            raise ValueError("at least 100 bootstrap iterations are required")


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


def replicate_words(
    bit_generator: np.random.PCG64,
    memory: ctypes.Array,
    states: Sequence[Sequence[int]],
    raw: np.ndarray,
) -> None:
    """Fill row i of ``raw`` with the first raw draws of a PCG64 started from ``states[i]``.

    ``memory`` is ``bit_generator``'s state memory and each row of ``states``
    is already in its order (``state_memory``).  ``raw`` is a ``'<u8'``
    matrix, so its ``'<u4'`` view holds the 32-bit words ``next_uint32``
    hands out: each raw output's low half, then its high half, on any byte
    order.  A row longer than ``_RAW_CHUNK`` is drawn in chunks of that
    many words, so it needs no row-sized temporary.
    """
    size = raw.shape[1]
    for row, state in zip(raw, states):
        memory[:] = state
        if size <= _RAW_CHUNK:
            row[:] = bit_generator.random_raw(size)
        else:
            for lo in range(0, size, _RAW_CHUNK):
                part = row[lo:lo + _RAW_CHUNK]
                part[:] = bit_generator.random_raw(part.size)


def _repair(
    row: np.ndarray, start: int, n: int, threshold: int, rejected: np.ndarray, spare: int
) -> int:
    """Drop the rejected words at positions ``rejected`` of ``row[start:start + n]``.

    Every later word of the row moves up, as ``integers`` would read it
    next, and the words that move into the window are checked in turn.
    Returns the number of words dropped; as many words at the row's end are
    now stale.  It stops once that number exceeds ``spare``, which leaves
    the row unusable.
    """
    end, valid, dropped = start + n, row.size, 0
    while rejected.size and dropped <= spare:
        bounds = rejected.tolist() + [valid]
        for i in range(len(bounds) - 1):
            row[bounds[i] - i:bounds[i + 1] - i - 1] = row[bounds[i] + 1:bounds[i + 1]]
        valid -= rejected.size
        dropped += rejected.size
        fresh = end - rejected.size
        rejected = fresh + np.flatnonzero(row[fresh:end] * np.uint32(n) < threshold)
    return dropped


def _record_block(
    drawn: Sequence[tuple], rows: np.ndarray, words: np.ndarray, index: np.ndarray,
    values: np.ndarray, spare: int,
) -> np.ndarray:
    """Record replicates ``rows`` of every drawn cell; return the rows that ran out of words.

    ``drawn`` holds (cell, CellReplicates, int64 sorted counts, float64 ln(1+c)),
    the arrays None where no statistic reads them, for each cell of more
    than one article.  Row i of ``words`` holds replicate ``rows[i]``'s
    words, one per article of every drawn cell, then ``spare`` words for
    rejected draws.  ``index`` (int64) and ``values`` (float64) are flat
    scratch arrays with room for ``len(rows)`` rows of the largest cell.  A
    row whose rejections exceed its spare words is returned, to be drawn
    again with more, which overwrites what was recorded for it.
    """
    dropped = [0] * len(rows)
    short: set[int] = set()
    start = 0
    for cell, rep, ordered, logs in drawn:
        n = cell.n
        window = words[:, start:start + n]
        # Lemire's step rejects u where (u * n) mod 2**32 < 2**32 mod n.  The
        # products go to the index scratch, unused until the means below.
        threshold = 2**32 % n
        low = index.view(np.uint32)[:window.size].reshape(window.shape)
        np.multiply(window, np.uint32(n), out=low)
        if threshold and np.minimum.reduce(low, axis=None) < threshold:
            rejected = low < threshold
            for b in np.flatnonzero(rejected.any(axis=1)).tolist():
                if b not in short:
                    row = words[b, :words.shape[1] - dropped[b]]
                    positions = start + np.flatnonzero(rejected[b])
                    dropped[b] += _repair(row, start, n, threshold, positions, spare - dropped[b])
                    if dropped[b] > spare:
                        short.add(b)
        start += n
        if rep.cited is not None:
            # (u * n) >> 32 >= n - cited  <=>  u >= ceil((n - cited) * 2**32 / n)
            bound = -(-((n - cell.cited) << 32) // n)
            rep.cited[rows] = np.add.reduce(window >= bound, axis=1) if bound < 2**32 else 0
        if rep.raw_mean is None and rep.log_mean is None:
            continue
        at = np.multiply(window, n, out=index[:window.size].reshape(window.shape), dtype=np.int64)
        at >>= 32
        scratch = values[:window.size].reshape(window.shape)
        # mode="clip" writes straight into the scratch; every position is below n.
        if rep.raw_mean is not None:
            counts = ordered.take(at, out=scratch.view(np.int64), mode="clip")
            rep.raw_mean[rows] = np.add.reduce(counts, axis=1, dtype=np.float64) / n
        if rep.log_mean is not None:
            drawn_logs = logs.take(at, out=scratch, mode="clip")
            mean = np.add.reduce(drawn_logs, axis=1) / n
            rep.log_mean[rows] = mean
            if rep.log_m2 is not None:
                drawn_logs -= mean[:, None]
                np.square(drawn_logs, out=drawn_logs)
                rep.log_m2[rows] = np.add.reduce(drawn_logs, axis=1)
    return rows[sorted(short)]


def _replicate_row(
    bit_generator: np.random.PCG64, memory: ctypes.Array, work: _WorkArrays,
    states: np.ndarray, row: tuple,
) -> np.ndarray:
    """Entry r: the (Scope, indicator, spec) row on replicate ``states[r]``, NaN if undefined.

    Blocks are drawn in ``work``'s ``"block"`` buffer, the run's.
    """
    (keys, group_cells, world_cells), indicator, spec = row
    group_stats, world_stats = CELL_STATISTICS[indicator]
    rep_group = [CellReplicates(c.n, group_stats, spec.iterations) for c in group_cells]
    rep_world = world_cells
    cells = list(zip(group_cells, rep_group))
    # World draws come after every group draw, so they are skipped, not
    # shifted, when the indicator reads nothing from the world cells.
    if spec.resample_world and world_stats:
        rep_world = [CellReplicates(c.n, world_stats, spec.iterations) for c in world_cells]
        cells += zip(world_cells, rep_world)
    # Built once per cell, so that a cell drawn as both group and world (the
    # WORLD rows) shares them, and freed when the row ends.
    sorted_counts: dict[ArticleSet, np.ndarray] = {}
    logs: dict[ArticleSet, np.ndarray] = {}
    drawn = []
    for cell, rep in cells:
        if cell.n == 1:
            # integers(0, 1, 1) draws no word: every replicate is the cell.
            for name in ("cited", "raw_mean", "log_mean", "log_m2"):
                if getattr(rep, name) is not None:
                    getattr(rep, name)[:] = getattr(cell, name)
            continue
        # int64 and float64 whatever the width of the cell's counts: the
        # draws take into int64 scratch, and log1p would pick float32 for
        # uint16 counts.
        if rep.raw_mean is not None and cell not in sorted_counts:
            sorted_counts[cell] = np.sort(cell.counts).astype(np.int64)
        if rep.log_mean is not None and cell not in logs:
            logs[cell] = np.log1p(np.sort(cell.counts), dtype=np.float64)
        drawn.append((cell, rep, sorted_counts.get(cell), logs.get(cell)))
    width = sum(cell.n for cell, *_ in drawn)
    largest = max((cell.n for cell, *_ in drawn), default=1)
    # A draw from [0, n) rejects a word with probability (2**32 mod n) / 2**32.
    expected = sum(cell.n * (2**32 % cell.n) for cell, *_ in drawn) / 2**32
    spare = math.ceil(_SLACK * (1 + expected))
    todo = np.arange(spec.iterations)
    while todo.size:
        columns = width + spare
        per_block = min(todo.size, max(1, _BLOCK_WORDS // (columns + 4 * largest)))
        # The block's raw words, then room for its largest cell in the int64
        # index scratch and in the float64 values scratch.  A replicate wider
        # than the budget gets a buffer that the run does not keep.
        stride = (columns + 1) // 2
        matrix, scratch = per_block * stride, per_block * largest
        size = matrix + 2 * scratch
        if columns + 4 * largest <= _BLOCK_WORDS:
            block = work("block", size, np.uint64)
        else:
            block = np.empty(size, np.uint64)
        raw = block[:matrix].reshape(per_block, stride)
        words = raw.view("<u4")[:, :columns]
        index = block[matrix:matrix + scratch].view(np.int64)
        values = block[matrix + scratch:].view(np.float64)
        short = []
        for i in range(0, todo.size, per_block):
            rows = todo[i:i + per_block]
            replicate_words(bit_generator, memory, states[rows].tolist(), raw[:rows.size])
            short.append(_record_block(drawn, rows, words[:rows.size], index, values, spare))
        todo = np.concatenate(short)
        spare = 2 * spare + 1
    return indicator_estimate(indicator, keys, rep_group, rep_world)[0]


def _replicate_rows(rows: Sequence[tuple]) -> Iterator[np.ndarray]:
    """``_replicate_row`` of each (Scope, indicator, spec) row, in order, one at a time.

    One ``PCG64`` draws every row.  Consecutive rows are seeded together in
    chunks of at most ``_SEED_LANES`` replicates or of one row, and only the
    current chunk's states are kept.  The rows draw their blocks in one
    ``corpus._WorkArrays``, so that a row does not fault in fresh pages.
    """
    bit_generator = np.random.PCG64(0)
    memory, order = state_memory(bit_generator)
    work = _WorkArrays()
    iterations = [spec.iterations for *_, spec in rows]
    start = 0
    while start < len(rows):
        stop = start + 1
        while stop < len(rows) and sum(iterations[start:stop + 1]) <= _SEED_LANES:
            stop += 1
        counts = iterations[start:stop]
        seeds = np.array([spec.seed & (2**64 - 1) for *_, spec in rows[start:stop]], np.uint64)
        replicates = np.concatenate([np.arange(count, dtype=np.uint64) for count in counts])
        states = pcg64_states(seed_words(np.repeat(seeds, counts), replicates))[:, order]
        for row, row_states in zip(rows[start:stop], np.split(states, np.cumsum(counts[:-1]))):
            yield _replicate_row(bit_generator, memory, work, row_states, row)
        start = stop


def bootstrap_intervals(rows: Sequence[tuple], alpha: float) -> list[IntervalEstimate]:
    """Each (Scope, indicator, BootstrapSpec) row's percentile interval at ``alpha``, in order.

    Each scope is sorted with a world cell per key, as ``Corpus.scope`` builds
    it, and its indicator is defined; the intervals carry no estimate or ``n``.
    """
    intervals = []
    for (_, indicator, spec), replicates in zip(rows, _replicate_rows(rows)):
        undefined_mask = np.isnan(replicates)
        undefined = int(np.count_nonzero(undefined_mask))
        note = f"resample_world={'true' if spec.resample_world else 'false'}"
        if undefined:
            note += f"; {undefined} undefined replicates excluded"
        if undefined > alpha / 2.0 * spec.iterations:
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
    (row,) = row_results([(scope, indicator, BOOTSTRAP, spec)], alpha)
    if row.estimate is None:  # an undefined point is flagged without a draw
        raise ValueError(f"{indicator} is undefined on the original data")
    return row


def row_results(
    plan: Sequence[tuple], alpha: float, continuity: str = CONTINUITY_DEFAULT,
    expansion_mode: str = EXPANSION_DEFAULT,
) -> list[IntervalEstimate]:
    """The interval of each planned (Scope, indicator, route, BootstrapSpec | None) row.

    Each holds the point, computed once per (Scope, indicator), the group's
    article count as ``n``, and the point's and interval's notes joined as
    ``note``.  A row whose point is undefined, or whose scope is empty, is
    flagged with the method tag it would have carried (``scopes.method_tag``).
    Raises ValueError before any row is computed when a row's route does not
    serve its indicator (``scopes.route_applies``), or when a bootstrap row
    has no spec or another row has one.
    """
    check_run(alpha, continuity, expansion_mode)
    for _, indicator, route, spec in plan:
        if not route_applies(indicator, route):
            raise ValueError(f"route {route!r} does not serve {indicator}")
        if (spec is None) == (route == BOOTSTRAP):
            raise ValueError(f"a {route} row for {indicator} with spec {spec!r}: a bootstrap"
                             " row needs a BootstrapSpec and no other row takes one")
    points: dict[tuple[Scope, str], IndicatorValue] = {}
    rows, draws = [], []
    for scope, indicator, method, spec in plan:
        if (scope, indicator) not in points:
            points[scope, indicator] = (
                indicator_result(indicator, *scope) if scope.keys
                else IndicatorValue(indicator, None, False, _EMPTY_SCOPE)
            )
        point = points[scope, indicator]
        if not point.defined:
            tag = method_tag(indicator, method, scope.keys)
            interval = IntervalEstimate.undefined(tag, alpha, "")
        elif method == BOOTSTRAP:
            draws.append((scope, indicator, spec))
            interval = None
        elif method == FORMULA:
            interval = formula_interval(scope, indicator, alpha, continuity)
        else:
            interval = fieller_interval(scope, alpha, expansion_mode)
        rows.append((scope, point, interval))
    boots = iter(bootstrap_intervals(draws, alpha))
    results = []
    for scope, point, interval in rows:
        interval = next(boots) if interval is None else interval
        note = "; ".join(n for n in (point.note, interval.note) if n)
        n = sum(cell.n for cell in scope.group)
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

    ``specs`` holds each indicator's BootstrapSpec; a lone spec serves every
    indicator.  The formula and bootstrap limits are both at level ``alpha``.
    Undefined intervals (either route) become gap rows rather than errors.
    Each run draws from its own seed stream derived from the scenario
    label, group and indicator, so the table is independent of run order.
    """
    check_indicators(indicators)
    if isinstance(specs, BootstrapSpec):
        specs = dict.fromkeys(indicators, specs)
    if not any(corpus.groups for corpus in scenarios):
        raise ValueError(f"no scenario has a group other than {WORLD}")
    labels, plan = [], []
    for corpus in scenarios:
        label = corpus_label(corpus)
        for group in sorted(corpus.groups):
            scope = corpus.scope(group, corpus.keys_for(group))
            for indicator in indicators:
                spec = specs[indicator]
                seed = derive_stream_seed(spec.seed, label, group, indicator)
                labels.append((label, group, indicator))
                plan += [(scope, indicator, FORMULA, None),
                         (scope, indicator, BOOTSTRAP, replace(spec, seed=seed))]
    results = row_results(plan, alpha, continuity)
    rows = []
    for (label, group, indicator), formula, boot in zip(labels, results[::2], results[1::2]):
        try:
            diff = compare_ci(formula, boot, formula.estimate)
            rows.append(ComparisonRow(
                label, group, indicator, diff.lower_pct_diff, diff.upper_pct_diff, True
            ))
        except ValueError as exc:
            # An undefined formula row says why it is undefined.
            note = str(exc) if formula.defined else formula.note
            rows.append(ComparisonRow(label, group, indicator, None, None, False, note))
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
