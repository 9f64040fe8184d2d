"""numpy's streams, replayed: the one module that imports numpy.

A seed fans out into four streams (`seed_stream`), each numpy's
`default_rng` over one `SeedSequence(seed).spawn(4)` child, replayed in
Python ints as a `Stream`. The start states (`initial_states`) and
exploration draws (`Exploration`) are decoded from them, and the moving
stats (`mean_std`) summed, in plain Python into exactly the values numpy
would return, so the training loop makes no numpy call per step or per
episode.

numpy is imported inside functions only, and only where a run explores:
`Exploration` sets numpy's PCG64 to the exploration stream's state and
decodes its `random_raw` blocks. Importing the package, a run that does
not explore, evaluation and loading an agent never load numpy.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import struct
from typing import TYPE_CHECKING

from .cartpole import RESET_SPREAD

if TYPE_CHECKING:
    from collections.abc import Iterator

# raw words fetched from the exploration stream at a time
BLOCK = 1024
# start states drawn at a time, as a run reaches them
START_BLOCK = 256

# the SeedSequence(seed).spawn(4) child each of a seed's streams replays; the
# first three equal spawn(3)'s, and no training episode draws from the fourth
TRAIN_SEEDER, AGENT_ROWS, EXPLORATION, EVAL_SEEDER = range(4)

# numpy's SeedSequence (O'Neill's seed_seq mixing into a 4-word pool) and
# PCG64's seeding and XSL-RR output, in Python ints
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
# mix_entropy's mix is L * dst - R * hash; -R is kept modulo 2**32
_MIX_L, _MIX_NEG_R = 0xCA01F9DD, -0x4973F715 & _MASK32
_POOL = 4


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The n + 1 hash constants a SeedSequence stage steps through; the k-th
    hash xors constant k and multiplies by constant k + 1."""
    constants = [init]
    for _ in range(n):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# mix_entropy's hashes: one per pool word, then each word into the other
# three, then 4 per entropy word beyond the pool; 20 cover a seed below
# 2**128 with a one-word spawn key
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 20)
# generate_state's 8 hashes, cycling over the pool twice
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# mix_entropy's (source, destination) pool words, in its order
_CROSS = [(src, dst) for src in range(_POOL) for dst in range(_POOL) if dst != src]


def _words32(value: int) -> list[int]:
    """An entropy int as numpy's little-endian uint32 words; 0 is one word.
    Like SeedSequence, it takes any non-negative integer, numpy's included,
    and nothing else."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _generate_state(entropy: list[int], ones: int = 1) -> list[int]:
    """`generate_state(8, uint32)` of a SeedSequence whose assembled entropy
    is `entropy`: the words mixed into the pool, zero-padded, and then each
    word beyond it into every pool word.

    Many sequences with as many entropy words are mixed at once in 64-bit
    lanes: `ones` has a 1 at the bottom of every lane, each entropy word
    holds one word of every sequence, a lane each, and so does each state
    word returned. Every step stays in its lane: a word is below 2**32 and
    its product with a constant below 2**64, each result is masked back to
    32 bits, and the mix adds -R modulo 2**32 where numpy subtracts R, so
    no lane carries or borrows into the next. One sequence is one lane.
    """
    mask = _MASK32 * ones
    extra = len(entropy) - _POOL
    hashes = _HASH_A if extra <= 1 else _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra)
    if extra < 0:
        entropy = entropy + [0] * -extra

    def hashed(word: int, constants: list[int], k: int) -> int:
        v = (word ^ constants[k] * ones) * constants[k + 1] & mask
        return (v ^ v >> 16) & mask

    def mixed(dst: int, h: int) -> int:
        m = ((_MIX_L * dst & mask) + (_MIX_NEG_R * h & mask)) & mask
        return (m ^ m >> 16) & mask

    pool = [hashed(entropy[k], hashes, k) for k in range(_POOL)]
    k = _POOL
    for src, dst in _CROSS:
        pool[dst] = mixed(pool[dst], hashed(pool[src], hashes, k))
        k += 1
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mixed(pool[dst], hashed(word, hashes, k))
            k += 1
    return [hashed(pool[k & 3], _HASH_B, k) for k in range(8)]


class Stream:
    """numpy's `default_rng` over a SeedSequence with state words `words`
    (its `generate_state(8, uint32)`), replayed in Python ints: the PCG64
    words and the draws this package makes from them.

    generate_state(4, uint64) pairs the words little-endian; PCG64 takes
    words 0-1 as its 128-bit seed and 2-3 as its stream, sets its state to
    the odd increment, adds the seed and steps once. A draw steps the state
    and outputs its XSL-RR word. The stream keeps no 32-bit half, as none
    of its draws takes one.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, words: list[int]):
        w0, w1, w2, w3, w4, w5, w6, w7 = words
        seed = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2
        inc = ((w5 << 97) | (w4 << 65) | (w7 << 33) | (w6 << 1) | 1) & _MASK128
        self._state = ((inc + seed) * _PCG_MULT + inc) & _MASK128
        self._inc = inc

    def random_raw(self) -> int:
        """The next 64-bit word, as `bit_generator.random_raw()`."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        folded = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((folded >> rot) | (folded << (64 - rot))) & _MASK64

    def uniform(self, low: float, high: float) -> float:
        """`Generator.uniform(low, high)`: low + (high - low) * next_double."""
        return low + (high - low) * ((self.random_raw() >> 11) * (1.0 / 9007199254740992.0))

    def episode_seeds(self, size: int) -> list[int]:
        """`Generator.integers(0, 2**63, size=size)`. Lemire's rejection
        threshold is 0 for this range and 64-bit draws keep no buffer, so
        each seed is the top 63 bits of the next word."""
        return [self.random_raw() >> 1 for _ in range(size)]

    @property
    def state(self) -> dict:
        """The state in `PCG64.state`'s form."""
        return {"bit_generator": "PCG64", "state": {"state": self._state, "inc": self._inc},
                "has_uint32": 0, "uinteger": 0}


def seed_stream(seed: int, child: int | None = None) -> Stream:
    """`default_rng(SeedSequence(seed))` or, given a child index,
    `default_rng(SeedSequence(seed).spawn(4)[child])`, whose spawn key
    follows the seed's words padded to the 4-word pool."""
    entropy = _words32(seed)
    if child is not None:
        entropy += [0] * (_POOL - len(entropy)) + _words32(child)
    return Stream(_generate_state(entropy))


def episode_starts(seeder: Stream, count: int) -> Iterator[tuple[float, float, float, float]]:
    """Start states drawn `START_BLOCK` at a time as the run reaches them;
    numpy's 64-bit bounded draw keeps no buffer, so the seeds equal one call's."""
    while count > 0:
        size = min(START_BLOCK, count)
        yield from initial_states(seeder.episode_seeds(size))
        count -= size


def initial_states(seeds) -> list[tuple[float, float, float, float]]:
    """Each seed's start state, all components uniform in [-0.05, 0.05].

    For a seed in [0, 2**64) this is exactly
    `np.random.default_rng(seed).uniform(-RESET_SPREAD, RESET_SPREAD, size=4)`,
    without a Generator per seed: the seeds' SeedSequences are mixed
    together, a lane each, and each seed's `Stream` makes four draws. A seed
    below 2**32 has one entropy word, and zero-padding it to two gives the
    same pool.
    """
    checked = []
    for seed in seeds:
        if not (isinstance(seed, numbers.Integral) and 0 <= int(seed) <= _MASK64):
            raise ValueError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
        checked.append(int(seed))
    if not checked:
        return []
    layout = f"<{len(checked)}Q"
    ones = int.from_bytes(struct.pack(layout, *[1] * len(checked)), "little")
    packed = int.from_bytes(struct.pack(layout, *checked), "little")
    low32 = _MASK32 * ones
    lanes = _generate_state([packed & low32, packed >> 32 & low32], ones)
    words = zip(*(struct.unpack(layout, lane.to_bytes(8 * len(checked), "little"))
                  for lane in lanes))
    low, high = -RESET_SPREAD, RESET_SPREAD
    states = []
    for state_words in words:
        draw = Stream(state_words).uniform
        states.append((draw(low, high), draw(low, high), draw(low, high), draw(low, high)))
    return states


class Exploration:
    """numpy's `Generator.random()` and `Generator.integers(2)` over the
    stream `stream`, decoded from raw 64-bit words that numpy's PCG64, set
    to the stream's state, fetches `BLOCK` at a time.

    The coin is numpy's `next_double`, the top 53 bits of a word. The
    forced action is numpy's bounded draw, Lemire's multiply-and-reject over
    `next_uint32`, which hands out the low half of a fresh word and keeps the
    high half for the next 32-bit draw. For two values the draw is the top
    bit of that 32-bit value, and the rejection threshold (2**32 - 2) % 2 is
    0, so nothing is ever rejected. One instance serves a whole run, so the
    word buffer and the kept half carry across episodes as the generator's
    own state would; nothing is fetched before the first draw.
    """

    def __init__(self, stream: Stream):
        from numpy.random import PCG64

        bit_generator = PCG64(0)
        bit_generator.state = stream.state
        self._half = None
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


def loaded_rng(init: str) -> Stream | None:
    """The stream a loaded agent draws new rows from: `default_rng(0)`'s
    under uniform init, and none under the modes that draw nothing."""
    return seed_stream(0) if init == "uniform" else None


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
