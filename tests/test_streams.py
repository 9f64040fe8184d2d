"""The package's numpy boundary: the multi-seed bands against numpy's own
reduction, bit for bit, and numpy imported by `streams` alone."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

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
