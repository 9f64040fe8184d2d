"""Uniform binning of continuous cartpole states into packed integer cells.

Each of the four state components is clamped to its interval and mapped to
one of ``n_bins`` half-open bins. The intervals are the task's and
symmetric, ``[-bound, bound]`` for the module's bounds and the cartpole's
angle limit, so the zero state lands in the middle bin (bin 5 of 10) and
``n_bins`` is the only bin setting. The four bin indices are packed
``SHIFT`` bits apart into one integer, the cell id, which is the state
identity of every agent. Files name a cell by its canonical key such as
``"3_4_6_5_"``; `key_of` and `cell_of` convert between the two.
"""

from __future__ import annotations

from math import floor

from .cartpole import THETA_LIMIT

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
# each component's interval [-bound, bound]
UPPER = (X_BIN_BOUND, X_DOT_BOUND, THETA_LIMIT, THETA_DOT_BOUND)
LOWER = tuple(-bound for bound in UPPER)


def discretize(state, n_bins: int) -> int:
    """Cell id of a (x, x_dot, theta, theta_dot) state.

    Each component falls into one of n half-open uniform bins of its
    clamped value, written out inline since this runs on every step: below
    the interval is bin 0, at or above it the last bin, and inside it
    `floor(n * (v - lo) / (hi - lo))`, capped at the last bin, so a NaN
    still raises. `n / (hi - lo)` is not precomputed: its rounding would
    move a value on a bin edge into the bin below.
    """
    x, x_dot, theta, theta_dot = state
    lo0, lo1, lo2, lo3 = LOWER
    hi0, hi1, hi2, hi3 = UPPER
    n = n_bins
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


def key_of(cell: int) -> str:
    """The canonical key of a cell id: its four bin indices, each followed
    by an underscore."""
    return (f"{cell >> 3 * SHIFT}_{cell >> 2 * SHIFT & MASK}_"
            f"{cell >> SHIFT & MASK}_{cell & MASK}_")


def cell_of(key: str) -> int:
    """Cell id of a state key read from a file; the inverse of `key_of`.

    Only the canonical key of a cell is accepted: four bin indices in
    [0, MASK], in ASCII digits without leading zeros, each followed by an
    underscore. So two different keys in a file never name the same cell.
    """
    tokens = key.split("_") if isinstance(key, str) else ()
    if (len(tokens) == 5 and tokens[4] == ""
            and all(0 < len(t) <= 5 and t.isascii() and t.isdigit() for t in tokens[:4])):
        b0, b1, b2, b3 = map(int, tokens[:4])
        cell = ((b0 << SHIFT | b1) << SHIFT | b2) << SHIFT | b3
        if max(b0, b1, b2, b3) <= MASK and key_of(cell) == key:
            return cell
    raise ValueError(f"malformed state key {key!r}: expected 4 bin indices in [0, {MASK}], "
                     f"each in plain decimal and followed by '_', such as '3_4_6_5_'")
