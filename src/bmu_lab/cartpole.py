"""Self-contained cartpole dynamics with shaped rewards.

A rigid pole pivots on a cart driven left or right by a fixed-magnitude
force. The physics constants and the explicit Euler integration scheme
match the classic CartPole-v1 control benchmark so that trained policies
are comparable with published results. An episode fails (terminates) when
the pole angle or the cart position leaves its limit; it succeeds
(truncates) after ``MAX_STEPS`` survived steps. Every surviving step earns
``STEP_REWARD``; the failing step earns ``FAIL_REWARD`` instead.

Episodes start from `initial_states`, which draws a batch of start states
at once, bit for bit the states a fresh numpy Generator per episode seed
would draw.
"""

from __future__ import annotations

import functools
import numbers
from math import cos, sin

RESET_SPREAD = 0.05

# CartPole-v1's physics
GRAVITY = 9.8
MASS_CART = 1.0
MASS_POLE = 0.1
POLE_HALF_LENGTH = 0.5
FORCE_MAG = 10.0
DT = 0.02
TOTAL_MASS = MASS_CART + MASS_POLE
POLEMASS_LENGTH = MASS_POLE * POLE_HALF_LENGTH
# unpacked into locals by `integrate`, which runs on every step
_PHYSICS = (GRAVITY, MASS_POLE, POLE_HALF_LENGTH, DT, TOTAL_MASS, POLEMASS_LENGTH)

# the task: CartPole-v1's failure limits (the pole fails at 0.2095 rad even
# though its observation range extends to 0.418), a 250-step cap and the
# shaped rewards
THETA_LIMIT = 0.2095
X_LIMIT = 2.4
MAX_STEPS = 250
STEP_REWARD = 1.0
FAIL_REWARD = -10.0

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


class CartPoleEnv:
    """The cartpole, stepped on plain floats; one instance per worker.

    The state is a tuple (x, x_dot, theta, theta_dot) plus the step counter
    `t`. ``reset(start)`` begins an episode from `start`, one of the states
    `initial_states` draws; the env holds no random stream of its own.
    """

    def __init__(self):
        self.state: tuple[float, float, float, float] | None = None
        self.t = 0
        self.terminated = False

    def place(self, state: tuple[float, float, float, float], t: int) -> None:
        """Put the cart in `state` at step `t`."""
        self.state = state
        self.t = t
        x, _, theta, _ = state
        self.terminated = abs(theta) > THETA_LIMIT or abs(x) > X_LIMIT

    def reset(self, start: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
        """Begin an episode from `start` at step 0."""
        self.place(start, 0)
        return start

    def integrate(self, state: tuple[float, float, float, float],
                  force: float) -> tuple[float, float, float, float]:
        """The equations of motion under a signed force, one Euler step."""
        x, x_dot, theta, theta_dot = state
        gravity, mass_pole, half_length, dt, total_mass, polemass_length = _PHYSICS
        cos_t = cos(theta)
        sin_t = sin(theta)
        temp = (force + polemass_length * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (gravity * sin_t - cos_t * temp) / (
            half_length * (4.0 / 3.0 - mass_pole * cos_t ** 2 / total_mass)
        )
        x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
        return (x + dt * x_dot, x_dot + dt * x_acc,
                theta + dt * theta_dot, theta_dot + dt * theta_acc)

    def step(self, action: int) -> tuple[tuple[float, float, float, float], float, bool, bool]:
        """Advance one step; action 1 pushes right (+F), action 0 pushes left (-F).

        Returns (next state, reward, terminated, truncated).
        """
        if self.state is None:
            raise ValueError("reset the environment before stepping")
        if action == 1:
            force = FORCE_MAG
        elif action == 0:
            force = -FORCE_MAG
        else:
            raise ValueError(f"action must be 0 or 1, got {action!r}")
        if self.terminated:
            raise ValueError("cannot step a terminal state")
        self.state = nxt = self.integrate(self.state, force)
        self.t += 1
        x, _, theta, _ = nxt
        self.terminated = terminated = abs(theta) > THETA_LIMIT or abs(x) > X_LIMIT
        if terminated:
            return nxt, FAIL_REWARD, True, False
        return nxt, STEP_REWARD, False, self.t >= MAX_STEPS

