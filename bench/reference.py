"""A fixed reference computation that tracks the host's current speed.

The benchmark's host is shared: the same code and inputs run up to 1.7x
slower for tens of seconds to minutes at a time, and a run usually sits in
one such state, so plain wall times of runs minutes apart spread wider than
any useful bound.  The benchmark therefore runs this fixed computation in
blocks between the timed passes and set-up probes of a run and scales each
timed value by ``NOMINAL_CHUNK_S / (mean chunk time around it)``: the value
the timing would have had on a host where one chunk takes
``NOMINAL_CHUNK_S``.  The raw timings are kept next to the scaled ones.

The chunk does what gpmult's hot paths do, in pure Python: letters as named
tuples, free reduction on a stack, dictionary memos keyed by tuples, sorting,
and a few small complex numpy arrays.  It does not import gpmult, so no change
to the package changes it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import NamedTuple

import numpy as np

# A fixed chunk time inside the range seen on the reference machine (run
# means of 11 to 20 ms).  Only that it never changes matters: it sets the
# host speed that scaled times refer to.
NOMINAL_CHUNK_S = 0.0165
WORDS_PER_CHUNK = 1500
LETTERS_PER_WORD = 8


class _Letter(NamedTuple):
    vertex: int
    elem: int


_EDGES = frozenset({(0, 1), (1, 0), (2, 3), (3, 2)})
_DECAY = np.array([0.5, 0.25], dtype=np.complex128)


def _reduce(word: list) -> tuple:
    out: list = []
    for letter in word:
        if out and out[-1].vertex == letter.vertex:
            elem = (out.pop().elem + letter.elem) % 3
            if elem:
                out.append(_Letter(letter.vertex, elem))
        else:
            out.append(letter)
    return tuple(out)


def chunk() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    memo: dict = {}
    acc = np.ones(2, dtype=np.complex128)
    total = 0
    x = 12345
    for _ in range(WORDS_PER_CHUNK):
        word = []
        for _ in range(LETTERS_PER_WORD):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            word.append(_Letter(x % 4, 1 + (x >> 8) % 2))
        reduced = _reduce(word)
        key = tuple(sorted(reduced))
        if key in memo:
            total += memo[key]
        else:
            memo[key] = len(reduced)
        if reduced and (reduced[0].vertex, reduced[-1].vertex) in _EDGES:
            acc = acc * _DECAY
            acc = acc / np.max(np.abs(acc))
    return total


CHUNK_CHECKSUM = chunk()


class HostSpeed:
    """Blocks of reference chunks taken between the timed parts of a run."""

    def __init__(self) -> None:
        self.blocks: list = []  # chunk times of each block, in seconds

    def block(self, seconds: float, min_chunks: int) -> float:
        """Run chunks for at least ``seconds`` and ``min_chunks`` chunks, with
        a full collection first and the collector off, so that garbage left
        by the work timed before does not land on the chunks.  Returns the
        block's mean chunk time."""
        gc.collect()
        times = []
        spent = 0.0
        gc.disable()
        try:
            while len(times) < min_chunks or spent < seconds:
                t0 = time.perf_counter()
                got = chunk()
                dt = time.perf_counter() - t0
                if got != CHUNK_CHECKSUM:
                    raise RuntimeError("reference chunk gave a different checksum")
                times.append(dt)
                spent += dt
        finally:
            gc.enable()
        self.blocks.append(times)
        return statistics.fmean(times)

    def means(self) -> list:
        return [statistics.fmean(b) for b in self.blocks]


def scaled(values: list, block_means: list) -> list:
    """Scale value k by the mean of the blocks just before and after it
    (blocks k and k + 1) to the nominal chunk time."""
    if len(block_means) != len(values) + 1:
        raise ValueError("need one reference block before and after each value")
    return [
        v * NOMINAL_CHUNK_S / ((block_means[k] + block_means[k + 1]) / 2)
        for k, v in enumerate(values)
    ]
