"""The index scheme: bootstrap replicates drawn as ``integers`` draws them, bit for bit.

``draw`` is the one entry point.  Replicate r draws from an independent
substream derived from (seed, r), so results do not depend on execution
order, and the draws index each cell's counts in ascending order, so results
do not depend on the input article order either.  This module alone knows
how a replicate's words become drawn articles.

Seeding.  Replicate r's generator is ``default_rng(SeedSequence([seed, r]))``
and draws ``integers(0, n, n)`` for each cell of its row, in order.  The
caller leaves out a one-article cell, for which ``integers(0, 1, 1)`` draws
no word, and a row with no other cell, so every row hands the scheme a cell.
``seed_words`` computes the SeedSequence output of many lanes at once, each
with its own seed and r, on a (4, lanes) uint32 pool; ``pcg64_states``
applies PCG64's seeding step (O'Neill 2014) to every lane in uint64 words.

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
at most ``_BLOCK_WORDS`` words, which every row reuses: the matrix and the
block's index and values scratch are carved out of it.  Only a replicate
wider than that gets a buffer of its own, freed with its row.  A block of
more than one replicate also holds at most ``_BLOCK_WORDS // 16`` words of
its largest cell, so the window that cell is recorded from stays near a
core's L2 cache in size, however many other cells the row draws.
Per cell, numpy's bounded draw (Lemire 2019, *Fast random integer
generation in an interval*) is restated on the block's ``(rows, n)``
window: word u draws position ``(u * n) >> 32`` of the cell's sorted counts
and is rejected where ``(u * n) mod 2**32 < 2**32 mod n``.  A rejected word
is dropped from its row in place, so only that row's later words move up,
and a row that runs out of spare words is drawn again with more.  The
positions are the indices ``integers`` would draw, bit for bit.

Recording.  The loop that repairs a cell's window records, from the same
words, the statistics named for the cell into its ``CellReplicates``
arrays, one entry per replicate: cited counts the words that draw a cited
position; the means sum the drawn sorted counts or ln(1+c) values along
each row and divide by n (bit-identical to ``ndarray.mean``); M2 sums the
squared deviations from that mean.  Those sorted arrays are built once per
cell and row, and freed when it ends.
"""

from __future__ import annotations

import ctypes
import math
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import ArticleSet, _WorkArrays
from .indicators import CellReplicates


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
# 1/16 of it bounds the elements of one cell's window (``_draw_row``).
_BLOCK_WORDS = 2**20
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
    order.  A row is drawn in chunks of ``_RAW_CHUNK`` words, so it needs no
    row-sized temporary.
    """
    width = raw.shape[1]
    chunks = [(lo, min(_RAW_CHUNK, width - lo)) for lo in range(0, width, _RAW_CHUNK)]
    for row, state in zip(raw, states):
        memory[:] = state
        for lo, size in chunks:
            row[lo:lo + size] = bit_generator.random_raw(size)


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


def _draw_row(
    bit_generator: np.random.PCG64, memory: ctypes.Array, work: _WorkArrays,
    states: np.ndarray, cells: Sequence[tuple],
) -> list[CellReplicates]:
    """One row's (ArticleSet, statistics) ``cells``, filled; entry r is replicate ``states[r]``.

    Blocks are drawn in ``work``'s ``"block"`` buffer, the run's.
    """
    # Built once per cell, so that a cell drawn twice in a row shares them,
    # and freed when the row ends.
    sorted_counts: dict[ArticleSet, np.ndarray] = {}
    logs: dict[ArticleSet, np.ndarray] = {}
    drawn = []
    for cell, stats in cells:
        rep = CellReplicates(cell.n, stats, len(states))
        # int64 and float64 whatever the width of the cell's counts: the
        # draws take into int64 scratch, and log1p would pick float32 for
        # uint16 counts.
        if rep.raw_mean is not None and cell not in sorted_counts:
            sorted_counts[cell] = np.sort(cell.counts).astype(np.int64)
        if rep.log_mean is not None and cell not in logs:
            logs[cell] = np.log1p(np.sort(cell.counts), dtype=np.float64)
        drawn.append((cell, rep, sorted_counts.get(cell), logs.get(cell)))
    width = sum(cell.n for cell, *_ in drawn)
    largest = max(cell.n for cell, *_ in drawn)
    # A draw from [0, n) rejects a word with probability (2**32 mod n) / 2**32.
    expected = sum(cell.n * (2**32 % cell.n) for cell, *_ in drawn) / 2**32
    spare = math.ceil(_SLACK * (1 + expected))
    todo = np.arange(len(states))
    while todo.size:
        columns = width + spare
        # A replicate takes its raw words, in whole 64-bit words, and room
        # for its largest cell in the int64 index and float64 values scratch.
        stride = (columns + 1) // 2
        per_replicate = 2 * stride + 4 * largest
        # A block fits the budget, and its largest cell's window holds at
        # most 1/16 of it.  A window element is a word, an index and a value,
        # 20 bytes, so a window's working set stays under 1.3 MB, about a
        # core's L2 cache, however wide the rest of the row is.
        per_block = min(todo.size, max(1, _BLOCK_WORDS // per_replicate),
                        max(1, _BLOCK_WORDS // 16 // largest))
        matrix, scratch = per_block * stride, per_block * largest
        size = matrix + 2 * scratch
        # A replicate wider than the budget gets a buffer the run does not keep.
        if per_replicate <= _BLOCK_WORDS:
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
    return [rep for _, rep, *_ in drawn]


def draw(rows: Iterable[tuple]) -> Iterator[list[CellReplicates]]:
    """Each (seed, iterations, cells) row's filled ``CellReplicates``, one per cell, in order.

    ``seed`` lies in [0, 2**64) (``corpus.check_seed``).
    ``cells`` lists at least one (ArticleSet, statistics) pair, each cell of
    more than one article, and holds exactly the named statistics; the
    caller reads every cell it does not hand over as itself.  One ``PCG64``
    draws every row.  Consecutive rows are seeded together in chunks of at
    most ``_SEED_LANES`` replicates or of one row, and only the current
    chunk's states are kept.  The rows draw their blocks in one
    ``corpus._WorkArrays``, so that a row does not fault in fresh pages.
    """
    bit_generator = np.random.PCG64(0)
    memory, order = state_memory(bit_generator)
    work = _WorkArrays()
    chunk: list[tuple] = []
    # A row flushes the chunk it would overfill, and None, after the last row, the rest.
    for row in chain(rows, [None]):
        if chunk and (row is None or sum(r[1] for r in chunk) + row[1] > _SEED_LANES):
            counts = [iterations for _, iterations, _ in chunk]
            seeds = np.array([seed for seed, *_ in chunk], np.uint64)
            replicates = np.concatenate([np.arange(count, dtype=np.uint64) for count in counts])
            states = pcg64_states(seed_words(np.repeat(seeds, counts), replicates))[:, order]
            for (*_, cells), row_states in zip(chunk, np.split(states, np.cumsum(counts[:-1]))):
                yield _draw_row(bit_generator, memory, work, row_states, cells)
            chunk = []
        chunk.append(row)
