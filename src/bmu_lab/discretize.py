"""Uniform binning of continuous cartpole states into packed integer cells.

Each of the four state components is clamped to its interval and mapped to
one of ``n_bins`` half-open bins, so with symmetric bounds the zero state
lands in the middle bin (bin 5 of 10). The four bin indices are packed
``SHIFT`` bits apart into one integer, the cell id, which is the state
identity of every agent. Files name a cell by its canonical key such as
``"3_4_6_5_"``; `key_of` and `cell_of` convert between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isfinite

# bits per bin index in a cell id; fixed, so files can be read back without
# knowing n_bins
SHIFT = 16
MASK = (1 << SHIFT) - 1

# the bins' bounds for position and the two velocities, deliberately wider
# than the failure limits so that the live cells are coarse enough for the
# greedy learner to settle; the angle's bound is the failure limit itself
X_BIN_BOUND = 6.0
X_DOT_BOUND = 11.0
THETA_DOT_BOUND = 7.0


@dataclass(frozen=True)
class BinSpec:
    lower: tuple[float, float, float, float]
    upper: tuple[float, float, float, float]
    n_bins: int

    def __post_init__(self) -> None:
        if not 2 <= self.n_bins <= MASK + 1:
            raise ValueError(f"n_bins must be in [2, {MASK + 1}], got {self.n_bins}")
        if len(self.lower) != 4 or len(self.upper) != 4:
            raise ValueError("bounds must cover exactly 4 state components")
        for lo, hi in zip(self.lower, self.upper):
            if not (isfinite(lo) and isfinite(hi)):
                raise ValueError(f"bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"lower bound {lo} must be below upper bound {hi}")

    @classmethod
    def symmetric(cls, x_bound: float, x_dot_bound: float, theta_bound: float,
                  theta_dot_bound: float, n_bins: int) -> "BinSpec":
        bounds = (x_bound, x_dot_bound, theta_bound, theta_dot_bound)
        return cls(lower=tuple(-b for b in bounds), upper=bounds, n_bins=n_bins)


def discretize(state, spec: BinSpec) -> int:
    """Cell id of a (x, x_dot, theta, theta_dot) state.

    Each component falls into one of n half-open uniform bins of its
    clamped value, written out inline since this runs on every step: below
    the interval is bin 0, at or above it the last bin, and inside it
    `floor(n * (v - lo) / (hi - lo))`, capped at the last bin, so a NaN
    still raises.
    """
    x, x_dot, theta, theta_dot = state
    lo0, lo1, lo2, lo3 = spec.lower
    hi0, hi1, hi2, hi3 = spec.upper
    n = spec.n_bins
    last = n - 1
    if x <= lo0:
        b0 = 0
    elif x >= hi0:
        b0 = last
    else:
        b0 = floor(n * (x - lo0) / (hi0 - lo0))
        if b0 > last:
            b0 = last
    if x_dot <= lo1:
        b1 = 0
    elif x_dot >= hi1:
        b1 = last
    else:
        b1 = floor(n * (x_dot - lo1) / (hi1 - lo1))
        if b1 > last:
            b1 = last
    if theta <= lo2:
        b2 = 0
    elif theta >= hi2:
        b2 = last
    else:
        b2 = floor(n * (theta - lo2) / (hi2 - lo2))
        if b2 > last:
            b2 = last
    if theta_dot <= lo3:
        b3 = 0
    elif theta_dot >= hi3:
        b3 = last
    else:
        b3 = floor(n * (theta_dot - lo3) / (hi3 - lo3))
        if b3 > last:
            b3 = last
    return ((b0 << SHIFT | b1) << SHIFT | b2) << SHIFT | b3


def pack(bins) -> int:
    """Cell id of four bin indices."""
    parts = tuple(bins)
    if len(parts) != 4 or not all(isinstance(b, int) and 0 <= b <= MASK for b in parts):
        raise ValueError(f"expected 4 bin indices in [0, {MASK}], got {parts!r}")
    b0, b1, b2, b3 = parts
    return ((b0 << SHIFT | b1) << SHIFT | b2) << SHIFT | b3


def unpack(cell: int) -> tuple[int, int, int, int]:
    """The four bin indices of a cell id."""
    return (cell >> 3 * SHIFT, cell >> 2 * SHIFT & MASK, cell >> SHIFT & MASK, cell & MASK)


def key_of(bins) -> str:
    """Underscore-joined bin indices with a trailing underscore."""
    parts = list(bins)
    if len(parts) != 4:
        raise ValueError(f"expected 4 bin indices, got {len(parts)}")
    for b in parts:
        if not isinstance(b, int) or b < 0:
            raise ValueError(f"bin indices must be non-negative integers, got {b!r}")
    return "".join(f"{b}_" for b in parts)


def parse_key(key: str) -> tuple[int, int, int, int]:
    """Inverse of key_of; malformed keys raise naming the bad token."""
    if not key.endswith("_"):
        raise ValueError(f"malformed state key {key!r}: missing trailing underscore")
    tokens = key[:-1].split("_")
    if len(tokens) != 4:
        raise ValueError(f"malformed state key {key!r}: expected 4 tokens, got {len(tokens)}")
    bins = []
    for tok in tokens:
        if not tok.isdigit():
            raise ValueError(f"malformed state key {key!r}: invalid token {tok!r}")
        bins.append(int(tok))
    return tuple(bins)


def cell_of(key: str) -> int:
    """Cell id of a state key read from a file.

    Only the canonical key of a cell is accepted, so two different keys in
    a file can never name the same cell.
    """
    bins = parse_key(key)
    if key_of(bins) != key:
        raise ValueError(f"malformed state key {key!r}: not canonical, expected {key_of(bins)!r}")
    return pack(bins)
