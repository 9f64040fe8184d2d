"""Binning tests: the canonical examples, order/symmetry properties, the
packed cell id against the per-component reference `bin_index`, and the
key codec `key_of`/`cell_of`."""

import math
import re

import pytest
from hypothesis import assume, example, given, strategies as st

from bmu_lab.cartpole import THETA_LIMIT
from bmu_lab.discretize import (
    LOWER,
    MASK,
    SHIFT,
    THETA_DOT_BOUND,
    UPPER,
    X_BIN_BOUND,
    X_DOT_BOUND,
    cell_of,
    discretize,
    key_of,
)


def bin_index(value: float, lower: float, upper: float, n_bins: int) -> int:
    """The reference bin of one component: half-open uniform bins of the
    clamped value; the exact upper bound falls into the last bin rather
    than an out-of-range one."""
    v = min(max(value, lower), upper)
    idx = int(math.floor(n_bins * (v - lower) / (upper - lower)))
    return min(idx, n_bins - 1)


def pack(bins) -> int:
    """The reference cell id of four bin indices."""
    b0, b1, b2, b3 = bins
    return b0 << 3 * SHIFT | b1 << 2 * SHIFT | b2 << SHIFT | b3


def bins_of(cell: int) -> tuple[int, int, int, int]:
    return (cell >> 3 * SHIFT, cell >> 2 * SHIFT & MASK, cell >> SHIFT & MASK, cell & MASK)


class TestDiscretize:
    def test_bounds_are_the_task_constants(self):
        assert UPPER == (X_BIN_BOUND, X_DOT_BOUND, THETA_LIMIT, THETA_DOT_BOUND)
        assert LOWER == tuple(-b for b in UPPER)

    def test_zero_state_center_bins(self):
        cell = discretize((0.0, 0.0, 0.0, 0.0), 10)
        assert bins_of(cell) == (5, 5, 5, 5)
        assert key_of(cell) == "5_5_5_5_"

    def test_lower_bounds_map_to_zero(self):
        assert bins_of(discretize(LOWER, 10)) == (0, 0, 0, 0)

    def test_upper_bound_stays_in_last_bin(self):
        assert bin_index(UPPER[0], LOWER[0], UPPER[0], 10) == 9
        assert bins_of(discretize(UPPER, 10)) == (9, 9, 9, 9)

    def test_out_of_range_clamped(self):
        cell = discretize((1e9, -1e9, math.pi, -100.0), 10)
        assert bins_of(cell) == (9, 0, 9, 0)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            discretize((0.0, 0.0, math.nan, 0.0), 10)

    def test_cell_is_bins_packed_sixteen_bits_apart(self):
        assert discretize((0.0, 0.0, 0.0, 0.0), 10) == 5 << 48 | 5 << 32 | 5 << 16 | 5


def rejected_by_name(key):
    return pytest.raises(ValueError, match=re.escape(f"malformed state key {key!r}"))


class TestKeys:
    def test_key_of_example(self):
        assert key_of(pack((3, 4, 6, 5))) == "3_4_6_5_"

    def test_round_trip(self):
        assert key_of(cell_of("5_5_5_5_")) == "5_5_5_5_"
        assert cell_of(key_of(pack((3, 4, 6, 5)))) == pack((3, 4, 6, 5))

    def test_invalid_token_named(self):
        with rejected_by_name("5_5_x_5_"):
            cell_of("5_5_x_5_")

    def test_missing_trailing_underscore(self):
        with rejected_by_name("5_5_5_5"):
            cell_of("5_5_5_5")

    def test_wrong_arity(self):
        for key in ("1_2_3_", "1_2_3_4_5_", "1_2_3_4__"):
            with rejected_by_name(key):
                cell_of(key)

    def test_cell_of_key(self):
        assert cell_of("1_2_3_4_") == pack((1, 2, 3, 4))
        assert cell_of(f"{MASK}_0_0_{MASK}_") == pack((MASK, 0, 0, MASK))

    def test_cell_of_rejects_non_canonical_keys(self):
        for key in (
            "05_1_1_1_",     # a leading zero
            "+5_1_1_1_",     # a sign
            " 5_1_1_1_",     # a space
            "_1_2_3_",       # an empty token
            "²_0_0_0_",      # a digit that is not ASCII
            "٣_0_0_0_",      # an Arabic-Indic digit
            "",
            5,
            None,
        ):
            with rejected_by_name(key):
                cell_of(key)

    def test_cell_of_rejects_bins_that_do_not_fit(self):
        # above MASK in the last slot, where it would overlap, and in the
        # first, where it would not; and too long for int() to parse at all
        for key in (f"0_0_0_{MASK + 1}_", f"{MASK + 1}_0_0_0_", "0_0_0_" + "9" * 5000 + "_"):
            with rejected_by_name(key):
                cell_of(key)


@given(
    v1=st.floats(-10, 10, allow_nan=False),
    v2=st.floats(-10, 10, allow_nan=False),
)
def test_monotone_per_dimension(v1, v2):
    lo, hi = -2.4, 2.4
    if v1 > v2:
        v1, v2 = v2, v1
    assert bin_index(v1, lo, hi, 10) <= bin_index(v2, lo, hi, 10)


@given(v=st.floats(-0.41, 0.41, allow_nan=False))
def test_symmetry_off_bin_edges(v):
    lo, hi, n = -0.418, 0.418, 10
    position = n * (v - lo) / (hi - lo)
    assume(abs(position - round(position)) > 1e-6)
    assert bin_index(-v, lo, hi, n) == (n - 1) - bin_index(v, lo, hi, n)


@given(values=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4))
def test_every_finite_state_maps_to_valid_bins(values):
    cell = discretize(values, 10)
    assert all(0 <= b <= 9 for b in bins_of(cell))
    assert cell_of(key_of(cell)) == cell


@given(bins=st.tuples(*[st.integers(0, MASK)] * 4))
def test_parse_key_inverts_key_of(bins):
    # the key written by hand from the bins, so the parser is checked
    # against the format itself and not only against key_of
    key = "".join(f"{b}_" for b in bins)
    assert bins_of(cell_of(key)) == bins
    assert key_of(cell_of(key)) == key


@given(bins=st.tuples(*[st.integers(0, MASK)] * 4))
def test_key_and_cell_round_trip(bins):
    cell = pack(bins)
    assert cell_of(key_of(cell)) == cell
    assert key_of(cell) == "".join(f"{b}_" for b in bins)


@st.composite
def bins_and_state(draw):
    """2-65536 bins and a state whose components are arbitrary floats,
    infinities, the exact bounds, or values at and beside bin edges."""
    n = draw(st.integers(2, MASK + 1))
    state = []
    for lo, hi in zip(LOWER, UPPER):
        edge = lo + (hi - lo) * draw(st.integers(0, n)) / n
        state.append(draw(st.one_of(
            st.floats(allow_nan=False),
            st.floats(lo, hi),
            st.sampled_from([lo, hi, -math.inf, math.inf]),
            st.sampled_from([math.nextafter(edge, -math.inf), edge,
                             math.nextafter(edge, math.inf)]),
        )))
    return n, tuple(state)


# x_dot = -4.4 sits on a bin edge of the package bounds, where precomputing
# n / (hi - lo) would round it into the bin below
@example(case=(10, (0.0, -4.4, 0.0, 0.0)))
@given(case=bins_and_state())
def test_cell_is_packed_reference_bins(case):
    n_bins, state = case
    reference = [bin_index(v, lo, hi, n_bins) for v, lo, hi in zip(state, LOWER, UPPER)]
    assert discretize(state, n_bins) == pack(reference)
