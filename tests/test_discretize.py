"""Binning tests: the canonical examples, order/symmetry properties, and the
packed cell id against the per-component reference `bin_index`."""

import math

import pytest
from hypothesis import assume, example, given, strategies as st

from bmu_lab.discretize import (
    MASK,
    BinSpec,
    cell_of,
    discretize,
    key_of,
    pack,
    parse_key,
    unpack,
)

DEFAULT = BinSpec.symmetric(2.4, 3.0, 0.418, 3.5, n_bins=10)
# the trainer's bounds at package defaults
TRAINER = BinSpec.symmetric(6.0, 11.0, 0.2095, 7.0, n_bins=10)


def bin_index(value: float, lower: float, upper: float, n_bins: int) -> int:
    """The reference bin of one component: half-open uniform bins of the
    clamped value; the exact upper bound falls into the last bin rather
    than an out-of-range one."""
    v = min(max(value, lower), upper)
    idx = int(math.floor(n_bins * (v - lower) / (upper - lower)))
    return min(idx, n_bins - 1)


class TestDiscretize:
    def test_zero_state_center_bins(self):
        cell = discretize((0.0, 0.0, 0.0, 0.0), DEFAULT)
        assert unpack(cell) == (5, 5, 5, 5)
        assert key_of(unpack(cell)) == "5_5_5_5_"

    def test_lower_bounds_map_to_zero(self):
        assert unpack(discretize(DEFAULT.lower, DEFAULT)) == (0, 0, 0, 0)

    def test_upper_bound_stays_in_last_bin(self):
        assert bin_index(DEFAULT.upper[0], DEFAULT.lower[0], DEFAULT.upper[0], 10) == 9
        assert unpack(discretize(DEFAULT.upper, DEFAULT)) == (9, 9, 9, 9)

    def test_out_of_range_clamped(self):
        cell = discretize((1e9, -1e9, math.pi, -math.pi), DEFAULT)
        assert unpack(cell) == (9, 0, 9, 0)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            discretize((0.0, 0.0, math.nan, 0.0), DEFAULT)

    def test_cell_is_bins_packed_sixteen_bits_apart(self):
        assert discretize((0.0, 0.0, 0.0, 0.0), DEFAULT) == 5 << 48 | 5 << 32 | 5 << 16 | 5


class TestKeys:
    def test_key_of_example(self):
        assert key_of([3, 4, 6, 5]) == "3_4_6_5_"

    def test_round_trip(self):
        assert parse_key("5_5_5_5_") == (5, 5, 5, 5)
        assert parse_key(key_of([3, 4, 6, 5])) == (3, 4, 6, 5)

    def test_invalid_token_named(self):
        with pytest.raises(ValueError, match="'x'"):
            parse_key("5_5_x_5_")

    def test_missing_trailing_underscore(self):
        with pytest.raises(ValueError, match="underscore"):
            parse_key("5_5_5_5")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="4"):
            parse_key("1_2_3_")

    def test_key_of_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            key_of([1, 2, 3])
        with pytest.raises(ValueError):
            key_of([1, 2, 3, -1])

    def test_cell_of_key(self):
        assert cell_of("1_2_3_4_") == pack((1, 2, 3, 4))
        assert key_of(unpack(cell_of("1_2_3_4_"))) == "1_2_3_4_"

    def test_cell_of_rejects_non_canonical_keys(self):
        with pytest.raises(ValueError, match="canonical"):
            cell_of("05_1_1_1_")

    def test_pack_rejects_bins_that_do_not_fit(self):
        with pytest.raises(ValueError):
            pack((1, 2, 3))
        with pytest.raises(ValueError):
            pack((1, 2, 3, MASK + 1))
        with pytest.raises(ValueError):
            cell_of(f"0_0_0_{MASK + 1}_")


class TestBinSpec:
    def test_symmetric_bounds(self):
        assert DEFAULT.lower == tuple(-u for u in DEFAULT.upper)
        assert DEFAULT.upper == (2.4, 3.0, 0.418, 3.5)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(lower=(1, -1, -1, -1), upper=(0.5, 1, 1, 1), n_bins=10)
        with pytest.raises(ValueError):
            BinSpec(lower=(-1,) * 4, upper=(1,) * 4, n_bins=1)
        with pytest.raises(ValueError):
            BinSpec(lower=(-1,) * 4, upper=(1,) * 4, n_bins=MASK + 2)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            BinSpec(lower=(-1.0,) * 4, upper=(1.0, 1.0, bound, 1.0), n_bins=10)
        with pytest.raises(ValueError, match="finite"):
            BinSpec(lower=(bound, -1.0, -1.0, -1.0), upper=(1.0,) * 4, n_bins=10)


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
    bins = unpack(discretize(values, DEFAULT))
    assert all(0 <= b <= 9 for b in bins)
    assert parse_key(key_of(bins)) == bins


bin_indices = st.tuples(*[st.integers(0, MASK)] * 4)


@given(bins=st.tuples(*[st.integers(0, 10 ** 6)] * 4))
def test_parse_key_inverts_key_of(bins):
    assert parse_key(key_of(bins)) == bins


@given(bins=bin_indices)
def test_key_and_cell_round_trip(bins):
    cell = pack(bins)
    assert unpack(cell) == bins
    assert cell_of(key_of(bins)) == cell
    assert key_of(unpack(cell_of(key_of(bins)))) == key_of(bins)


@st.composite
def spec_and_state(draw):
    """A bin spec with 2-64 bins and a state whose components are arbitrary
    floats, infinities, the exact bounds, or values at and beside bin edges."""
    n = draw(st.integers(2, 64))
    bounds = st.floats(-1e6, 1e6, allow_nan=False)
    lower, upper = [], []
    for _ in range(4):
        lo, hi = sorted((draw(bounds), draw(bounds)))
        assume(lo < hi)
        lower.append(lo)
        upper.append(hi)
    state = []
    for lo, hi in zip(lower, upper):
        edge = lo + (hi - lo) * draw(st.integers(0, n)) / n
        state.append(draw(st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from([lo, hi, -math.inf, math.inf]),
            st.sampled_from([math.nextafter(edge, -math.inf), edge,
                             math.nextafter(edge, math.inf)]),
        )))
    return BinSpec(lower=tuple(lower), upper=tuple(upper), n_bins=n), tuple(state)


# x_dot = -4.4 sits on a bin edge of the trainer's bounds, where precomputing
# n / (hi - lo) would round it into the bin below
@example(case=(TRAINER, (0.0, -4.4, 0.0, 0.0)))
@given(case=spec_and_state())
def test_cell_is_packed_reference_bins(case):
    spec, state = case
    reference = [bin_index(v, lo, hi, spec.n_bins)
                 for v, lo, hi in zip(state, spec.lower, spec.upper)]
    assert discretize(state, spec) == pack(reference)
