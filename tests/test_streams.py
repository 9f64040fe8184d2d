"""The package's numpy boundary: the Python streams and the multi-seed
bands against numpy's own draws and reduction, bit for bit, and numpy
imported by `streams` alone."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bmu_lab.streams import BLOCK, Exploration, seed_stream
from bmu_lab.trainer import aggregate_curves

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bmu_lab"
TYPE_CHECKING = ("TYPE_CHECKING", "typing.TYPE_CHECKING")

# episode returns and their moving averages: whole rewards, a window's
# means, signed zeros and the odd extreme
VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 250.0, -10.0, 1e150, -5e-324]),
    st.integers(-10, 250).map(float),
    st.integers(-200, 5000).map(lambda k: k / 20),
    st.floats(-10.0, 250.0),
    st.floats(-1e150, 1e150),
)


@st.composite
def curve_sets(draw):
    """1-400 curves of 1-60 episodes, of unequal lengths, over a few values."""
    values = draw(st.lists(VALUES, min_size=1, max_size=12))
    longest = draw(st.integers(1, 60))
    rnd = draw(st.randoms(use_true_random=False))
    return [[rnd.choice(values) for _ in range(rnd.randint(1, longest))]
            for _ in range(draw(st.integers(1, 400)))]


def numpy_aggregate(curves):
    length = max(len(curve) for curve in curves)
    padded = np.array([curve + [curve[-1]] * (length - len(curve)) for curve in curves])
    mean, sd = padded.mean(axis=0), padded.std(axis=0)
    return mean.tolist(), (mean - 2.0 * sd).tolist(), (mean + 2.0 * sd).tolist()


@settings(max_examples=150, deadline=None)
@given(curve_sets())
@example([[-0.0, -0.0, -0.0], [-0.0], [-0.0, -0.0]])
@example([[-0.0]] * 9)
def test_aggregate_curves_equal_numpy(curves):
    def hexes(series):
        return [[v.hex() for v in values] for values in series]

    assert hexes(aggregate_curves(curves)) == hexes(numpy_aggregate(curves))


# a seed is one SeedSequence entropy word below 2**32 and two below 2**64; a
# config seed has no upper bound, and from 2**128 its words spill past the pool
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 32 - 8, 2 ** 32 + 8),
                  st.integers(2 ** 64, 2 ** 300))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, child=st.sampled_from([None, 0, 1, 2, 3]), n=st.integers(0, 40))
@example(seed=0, child=0, n=3)
@example(seed=2 ** 32 - 1, child=1, n=3)
@example(seed=2 ** 32, child=2, n=3)
@example(seed=2 ** 64 - 1, child=3, n=3)
@example(seed=0, child=None, n=3)
def test_stream_equals_generator(seed, child, n):
    """A Python stream draws what numpy's Generator over the same
    SeedSequence child draws: scalar uniforms, 63-bit seeds and raw words."""
    stream = seed_stream(seed, child)
    sequence = (np.random.SeedSequence(seed) if child is None
                else np.random.SeedSequence(seed).spawn(4)[child])
    oracle = np.random.default_rng(sequence)
    assert stream.state == oracle.bit_generator.state
    for low, high in ((0.0, 1e-3), (-1.0, 1.0)):
        assert [stream.uniform(low, high) for _ in range(3)] == [
            oracle.uniform(low, high) for _ in range(3)]
    assert stream.episode_seeds(n) == oracle.integers(0, 2 ** 63, size=n).tolist()
    assert [stream.random_raw() for _ in range(n)] == [
        int(oracle.bit_generator.random_raw()) for _ in range(n)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), child=st.integers(0, 3),
       epsilon=st.floats(0.0, 1.0))
def test_exploration_from_a_handed_off_stream(seed, child, epsilon):
    """Exploration over a fresh Python stream draws what `default_rng(child)`
    draws, across a block boundary."""
    explore = Exploration(seed_stream(seed, child))
    oracle = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[child])
    expected, drawn = [], []
    for _ in range(BLOCK + 10):
        coin = oracle.random()
        expected.append(coin)
        drawn.append(explore.random())
        if coin < epsilon:
            expected.append(int(oracle.integers(2)))
            drawn.append(explore.action())
    assert drawn == expected


def test_seed_checked_as_numpy_checks_it():
    """A seed is any non-negative integer, numpy's included, as for SeedSequence."""
    assert seed_stream(np.uint64(2 ** 64 - 1), 1).state == seed_stream(2 ** 64 - 1, 1).state
    for bad, error in ((-1, ValueError), (-2 ** 70, ValueError), (np.int64(-1), ValueError),
                       (1.0, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            np.random.SeedSequence(bad)
        with pytest.raises(error):
            seed_stream(bad)


def numpy_import_lines(tree: ast.Module) -> list[int]:
    """Lines that import numpy, but for those under `if TYPE_CHECKING:`."""
    annotations_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in TYPE_CHECKING:
            annotations_only.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if id(node) not in annotations_only and any(
                m == "numpy" or m.startswith("numpy.") for m in modules):
            lines.append(node.lineno)
    return lines


def test_numpy_imported_by_streams_alone():
    found = {path.name: numpy_import_lines(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items()
            if lines and name != "streams.py"} == {}
    # the walk does see the imports it is there to find
    assert found["streams.py"]
