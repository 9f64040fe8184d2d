"""numpy's streams, replayed: the one module that imports numpy.

A seed fans out into four numpy streams (`seed_streams`). The start
states (`initial_states`) and exploration draws (`Exploration`) are decoded
from them, and the moving stats (`mean_std`) summed, in plain Python into
exactly the values numpy would return, so the training loop makes no numpy
call per step or per episode. numpy is imported inside functions only, so
importing the package does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import TYPE_CHECKING

from .cartpole import RESET_SPREAD

if TYPE_CHECKING:
    from collections.abc import Iterator

    from numpy.random import BitGenerator, Generator

# raw words fetched from the exploration stream at a time
BLOCK = 1024


def seed_streams(seed: int) -> tuple[Generator, Generator, Generator, Generator]:
    """The seed's four streams: training's episode seeder, the agent's rows,
    exploration, and evaluation's episode seeder, which no training episode
    draws from. The first three equal `SeedSequence(seed).spawn(3)`'s."""
    from numpy.random import SeedSequence, default_rng

    return tuple(default_rng(child) for child in SeedSequence(seed).spawn(4))


def episode_starts(seeder: Generator, count: int,
                   block: int = 256) -> Iterator[tuple[float, float, float, float]]:
    """Start states drawn `block` at a time as the run reaches them; numpy's
    64-bit bounded draw keeps no buffer, so the seeds equal one call's."""
    while count > 0:
        size = min(block, count)
        yield from initial_states(seeder.integers(0, 2 ** 63, size=size).tolist())
        count -= size


# numpy's SeedSequence (O'Neill's seed_seq mixing into a 4-word pool) and
# PCG64's seeding, as `initial_states` replays them
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The n + 1 hash constants a SeedSequence stage steps through; the k-th
    hash xors constant k and multiplies by constant k + 1. Python ints, so
    that no numpy scalar overflows."""
    constants = [init]
    for _ in range(n):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# mix_entropy's 16 hashes: one per pool word, then each word into the other three
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# generate_state's 8 hashes, cycling over the pool twice
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


@functools.cache
def _tables():
    """The replay's uint32 hash columns and numpy scalars, built at the first
    draw, so that importing this module does not import numpy."""
    import numpy as np

    def column(values: list[int]):
        return np.array(values, dtype=np.uint32).reshape(-1, 1)

    enter = (column(_HASH_A[0:4]), column(_HASH_A[1:5]))
    cross = [(src, [dst for dst in range(4) if dst != src],
              column(_HASH_A[k:k + 3]), column(_HASH_A[k + 1:k + 4]))
             for src, k in zip(range(4), range(4, 16, 3))]
    out = (column(_HASH_B[0:8]), column(_HASH_B[1:9]))
    return (enter, cross, out, np.uint32(0xCA01F9DD), np.uint32(0x4973F715),
            np.uint32(16), np.uint64(_MASK32), np.uint64(32))


def _seed_words(seeds: list[int]) -> list[list[int]]:
    """SeedSequence(seed).generate_state(8, uint32) for every seed at once,
    one list per word. A seed below 2**32 has one entropy word, and
    zero-padding it to two gives the same pool."""
    import numpy as np

    enter, cross, out, mix_l, mix_r, xshift, low32, high32 = _tables()
    words = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = (words & low32).astype(np.uint32)
    pool[1] = (words >> high32).astype(np.uint32)
    xor, mul = enter
    pool = (pool ^ xor) * mul
    pool ^= pool >> xshift
    for src, dsts, xor, mul in cross:
        hashed = (pool[src] ^ xor) * mul
        hashed ^= hashed >> xshift
        mixed = mix_l * pool[dsts] - mix_r * hashed
        pool[dsts] = mixed ^ (mixed >> xshift)
    xor, mul = out
    state = (np.concatenate((pool, pool)) ^ xor) * mul
    state ^= state >> xshift
    return state.tolist()


def initial_states(seeds) -> list[tuple[float, float, float, float]]:
    """Each seed's start state, all components uniform in [-0.05, 0.05].

    For a seed in [0, 2**64) this is exactly
    `np.random.default_rng(seed).uniform(-RESET_SPREAD, RESET_SPREAD, size=4)`,
    without a Generator per seed. The SeedSequence mixing runs for all seeds
    at once in uint32 arrays; PCG64's seeding and its four XSL-RR outputs run
    in 128-bit Python ints, and each output is decoded as numpy's
    `next_double`, the top 53 bits of the word.
    """
    seeds = list(seeds)
    for seed in seeds:
        if not (isinstance(seed, numbers.Integral) and 0 <= seed <= _MASK64):
            raise ValueError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
    low = -RESET_SPREAD
    span = RESET_SPREAD - low
    states = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*_seed_words(seeds)):
        # generate_state(4, uint64) pairs the words little-endian; PCG64
        # takes words 0-1 as its 128-bit seed and 2-3 as its stream, sets
        # its state to the odd increment, adds the seed and steps once
        initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2
        inc = ((w5 << 97) | (w4 << 65) | (w7 << 33) | (w6 << 1) | 1) & _MASK128
        pcg = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        draws = []
        for _ in range(4):
            pcg = (pcg * _PCG_MULT + inc) & _MASK128
            folded = ((pcg >> 64) ^ pcg) & _MASK64
            rot = pcg >> 122
            word = ((folded >> rot) | (folded << (64 - rot))) & _MASK64
            draws.append(low + span * ((word >> 11) * (1.0 / 9007199254740992.0)))
        states.append(tuple(draws))
    return states


class Exploration:
    """numpy's `Generator.random()` and `Generator.integers(2)` over one
    PCG64 stream, decoded from raw 64-bit words fetched `BLOCK` at a time.

    The coin is numpy's `next_double`, the top 53 bits of a word. The
    forced action is numpy's bounded draw, Lemire's multiply-and-reject over
    `next_uint32`, which hands out the low half of a fresh word and keeps the
    high half for the next 32-bit draw. For two values the draw is the top
    bit of that 32-bit value, and the rejection threshold (2**32 - 2) % 2 is
    0, so nothing is ever rejected. One instance serves a whole run, so the
    word buffer and the kept half carry across episodes as the generator's
    own state would; nothing is fetched before the first draw. The bit
    generator must not be drawn from directly afterwards.
    """

    def __init__(self, bit_generator: BitGenerator):
        from numpy.random import PCG64

        if not isinstance(bit_generator, PCG64):
            raise TypeError(f"exploration needs a PCG64 bit generator, "
                            f"got {type(bit_generator).__name__}")
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        random_raw = bit_generator.random_raw
        self._words = itertools.chain.from_iterable(
            iter(lambda: random_raw(BLOCK).tolist(), None))

    def random(self) -> float:
        return (next(self._words) >> 11) * (1.0 / 9007199254740992.0)

    def action(self) -> int:
        """A uniform action, 0 or 1."""
        half = self._half
        if half is not None:
            self._half = None
            return half >> 31
        word = next(self._words)
        self._half = word >> 32
        return (word >> 31) & 1


def loaded_rng(init: str) -> Generator | None:
    """The stream a loaded agent draws new rows from: seed 0 under uniform
    init, and none under the modes that draw nothing."""
    if init != "uniform":
        return None
    from numpy.random import default_rng

    return default_rng(0)


def _pairwise_sum(values) -> float:
    """numpy's float64 `add.reduce` kernel: sequential below 8 items, eight
    strided accumulators up to 128, halves (the first a multiple of 8)
    above that."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        whole = n - n % 8
        for i in range(8, whole, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(whole, n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def mean_std(window) -> tuple[float, float]:
    """`float(np.mean(window))` and `float(np.std(window))`, bit for bit,
    without numpy's per-call cost. numpy's reduction starts from the
    identity 0.0, hence the leading `0.0 +`."""
    n = len(window)
    mean = (0.0 + _pairwise_sum(window)) / n
    squares = [(v - mean) * (v - mean) for v in window]
    return mean, math.sqrt((0.0 + _pairwise_sum(squares)) / n)
