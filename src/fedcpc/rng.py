"""Deterministic random-stream derivation.

Every random decision in a run is drawn from a substream derived from the
experiment seed plus a fixed domain tag, so that unrelated parts of the
pipeline never share or reorder draws. Negative sampling is additionally
keyed by utterance id: any code path that evaluates the loss on a given
utterance sees the same negatives, independent of which arm (federated,
central, reference) or worker consumed it. :func:`choice_rows` draws many
``Generator.choice`` subsets from one bulk read of the bit generator and
returns exactly the draws a loop of ``choice`` calls would, so the negatives
can be taken in bulk without changing a single one.
"""

import functools
import hashlib

import numpy as np

DEFAULT_SEED = 42

# Domain tags. Frozen; changing one changes every run keyed off it.
TAG_INIT = 1
TAG_ASSIGN = 2
TAG_SELECT = 3
TAG_SHUFFLE = 4
TAG_NEGATIVES = 5
TAG_CORPUS = 6
TAG_PROBE = 7
TAG_GRADCHECK = 8


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the substream ``(seed, *tags)``."""
    return np.random.default_rng([int(seed), *[int(t) for t in tags]])


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def utterance_rng(seed: int, utterance_id: str) -> np.random.Generator:
    """Per-utterance generator, stable across runs, arms and platforms."""
    return np.random.default_rng([int(seed), TAG_NEGATIVES, _stable_hash(utterance_id)])


_LOW32 = np.uint64(0xFFFFFFFF)


def _choice_rows(rng: np.random.Generator, pop: int, count: int,
                 rows: int) -> np.ndarray | None:
    # numpy's choice(pop, count, replace=False), for pop <= 10000, runs
    # Floyd's algorithm (count bounded draws with inclusive maxima
    # pop-count .. pop-1; a draw already chosen is replaced by that maximum)
    # and then shuffles (maxima count-1 .. 1). Each bounded draw is one
    # Lemire multiply of a 32-bit half of a PCG64 output, low half first.
    # Every row has the same maxima, so the rows are columns of one matrix.
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64 or not 1 <= count < pop <= 10000:
        return None  # pop == count would start with a draw that reads nothing
    saved = bits.state
    if saved["has_uint32"]:
        return None
    maxima = np.array([*range(pop - count, pop), *range(count - 1, 0, -1)], dtype=np.uint64)
    halves = rows * maxima.size
    raw = bits.random_raw((halves + 1) // 2)
    words = np.empty(2 * raw.size, dtype=np.uint64)
    words[0::2] = raw & _LOW32
    words[1::2] = raw >> np.uint64(32)
    scaled = words[:halves].reshape(rows, maxima.size) * (maxima + np.uint64(1))
    threshold = np.array([(0xFFFFFFFF - r) % (r + 1) for r in maxima.tolist()],
                         dtype=np.uint64)
    if ((scaled & _LOW32) < threshold).any():
        bits.state = saved  # a rejected draw would shift every later one
        return None
    drawn = (scaled >> np.uint64(32)).astype(np.int64)
    picked = np.empty((rows, count), dtype=np.int64)
    for col in range(count):
        val = drawn[:, col]
        if col:
            taken = (picked[:, :col] == val[:, None]).any(axis=1)
            val = np.where(taken, pop - count + col, val)
        picked[:, col] = val
    every = np.arange(rows)
    for col, i in enumerate(range(count - 1, 0, -1), start=count):
        j = drawn[:, col]
        swap = picked[every, j]
        picked[every, j] = picked[:, i]
        picked[:, i] = swap
    if halves:
        # the last word's high half is buffered, or was just consumed from
        # the buffer; either way numpy leaves it in uinteger
        state = bits.state
        state["has_uint32"] = halves % 2
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
        bits.state = state
    return picked


@functools.cache
def choice_rows_verified() -> bool:
    """Whether :func:`choice_rows` reproduces this numpy's ``choice``: checked
    once per process on fixed generators, draws and final state alike."""
    for seed, pop, count, rows in ((0, 92, 7, 362), (1, 19, 3, 31), (2, 8, 1, 5)):
        bulk, loop = substream(seed, TAG_NEGATIVES), substream(seed, TAG_NEGATIVES)
        got = _choice_rows(bulk, pop, count, rows)
        want = [loop.choice(pop, size=count, replace=False) for _ in range(rows)]
        if (got is None or not np.array_equal(got, want)
                or bulk.bit_generator.state != loop.bit_generator.state):
            return False
    return True


def choice_rows(rng: np.random.Generator, pop: int, count: int,
                rows: int) -> np.ndarray | None:
    """``rows`` successive ``rng.choice(pop, size=count, replace=False)``
    draws as one (rows, count) array, leaving ``rng`` where that loop would.

    Returns None, with ``rng`` untouched, where the bulk form cannot promise
    the loop's draws: a generator other than PCG64 or holding a buffered
    32-bit half, ``pop <= count`` or ``pop > 10000``, a Lemire rejection
    among the draws, or a numpy whose ``choice`` fails the self-check.
    """
    if not choice_rows_verified():
        return None
    return _choice_rows(rng, pop, count, rows)
