"""Byte expectations for the DOT writer, round-trip tests for GEXF, and a
byte oracle for the GEXF writer."""

import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmu_lab.config import TrainConfig
from bmu_lab.graphio import (
    _GEXF_NS,
    Attrs,
    GraphSnapshot,
    _collect_attr_schema,
    read_gexf,
    to_dot,
    to_gexf,
)
from bmu_lab.trainer import train


def sample_snapshot():
    snap = GraphSnapshot(name="sample")
    snap.nodes.append(("3_4_6_5_", {"value": 1.25, "fan_in": 3}))
    snap.nodes.append(("3_3_6_5_", {"value": -0.5, "fan_in": 1}))
    snap.nodes.append(("lonely", {}))
    snap.edges.append(("3_4_6_5_", "3_3_6_5_", {"action": 0, "q": 0.75, "gate": "closed"}))
    snap.edges.append(("3_3_6_5_", "3_4_6_5_", {"action": 1, "q": -2.0, "gate": "open"}))
    snap.edges.append(("3_4_6_5_", "3_4_6_5_", {"action": 1, "q": 0.0, "gate": "closed"}))
    return snap


def test_dot_bytes():
    assert to_dot(sample_snapshot()) == (
        'digraph "sample" {\n'
        '  "3_4_6_5_" [value=1.25, fan_in=3];\n'
        '  "3_3_6_5_" [value=-0.5, fan_in=1];\n'
        '  "lonely";\n'
        '  "3_4_6_5_" -> "3_3_6_5_" [action=0, q=0.75, gate="closed"];\n'
        '  "3_3_6_5_" -> "3_4_6_5_" [action=1, q=-2.0, gate="open"];\n'
        '  "3_4_6_5_" -> "3_4_6_5_" [action=1, q=0.0, gate="closed"];\n'
        '}\n'
    )


def test_gexf_round_trip():
    snap = sample_snapshot()
    back = read_gexf(to_gexf(snap))
    assert back.nodes == snap.nodes
    assert back.edges == snap.edges


def test_dot_escapes_quotes_in_identifiers():
    # backslashes are doubled first, then each quote gets one backslash
    snap = GraphSnapshot(name='say "q"')
    snap.nodes.append(('odd"name', {"label": 'say "hi"'}))
    snap.nodes.append(("back\\slash", {"path": 'C:\\x\\"y"'}))
    snap.edges.append(('odd"name', "back\\slash", {}))
    assert to_dot(snap) == (
        r'digraph "say \"q\"" {' "\n"
        r'  "odd\"name" [label="say \"hi\""];' "\n"
        r'  "back\\slash" [path="C:\\x\\\"y\""];' "\n"
        r'  "odd\"name" -> "back\\slash";' "\n"
        "}\n"
    )


def test_gexf_declares_directed_edges():
    text = to_gexf(sample_snapshot())
    assert 'defaultedgetype="directed"' in text
    assert text.startswith('<?xml version="1.0"')


def test_bool_attributes_survive_gexf():
    snap = GraphSnapshot()
    snap.nodes.append(("n", {"active": True, "count": 2}))
    snap.nodes.append(("m", {"active": False}))
    assert read_gexf(to_gexf(snap)).nodes == snap.nodes
    # DOT has no attribute types; booleans are written as quoted words
    assert to_dot(snap) == ('digraph "bmu_lab" {\n'
                            '  "n" [active="true", count=2];\n'
                            '  "m" [active="false"];\n'
                            '}\n')


def test_empty_snapshot():
    snap = GraphSnapshot(name="empty")
    assert to_dot(snap) == 'digraph "empty" {\n}\n'
    assert read_gexf(to_gexf(snap)).edges == []


# -- byte oracle: the ElementTree writer that to_gexf replaced, unchanged ----

def reference_to_gexf(snapshot: GraphSnapshot) -> str:
    ET.register_namespace("", _GEXF_NS)
    root = ET.Element(f"{{{_GEXF_NS}}}gexf", version="1.2")
    graph = ET.SubElement(root, f"{{{_GEXF_NS}}}graph",
                          defaultedgetype="directed", mode="static")

    node_schema = _collect_attr_schema(snapshot.nodes)
    edge_schema = _collect_attr_schema(snapshot.edges)
    for cls, schema in (("node", node_schema), ("edge", edge_schema)):
        if not schema:
            continue
        attributes = ET.SubElement(graph, f"{{{_GEXF_NS}}}attributes")
        attributes.set("class", cls)
        for attr_id, (key, gexf_type) in enumerate(schema.items()):
            ET.SubElement(attributes, f"{{{_GEXF_NS}}}attribute",
                          id=str(attr_id), title=key, type=gexf_type)

    def fill_attvalues(parent, attrs: Attrs, schema: dict[str, str]) -> None:
        if not attrs:
            return
        attvalues = ET.SubElement(parent, f"{{{_GEXF_NS}}}attvalues")
        keys = list(schema.keys())
        for key, value in attrs.items():
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            else:
                rendered = repr(value) if isinstance(value, float) else str(value)
            ET.SubElement(attvalues, f"{{{_GEXF_NS}}}attvalue",
                          **{"for": str(keys.index(key)), "value": rendered})

    nodes_el = ET.SubElement(graph, f"{{{_GEXF_NS}}}nodes")
    for node_id, attrs in snapshot.nodes:
        node_el = ET.SubElement(nodes_el, f"{{{_GEXF_NS}}}node", id=node_id, label=node_id)
        fill_attvalues(node_el, attrs, node_schema)

    edges_el = ET.SubElement(graph, f"{{{_GEXF_NS}}}edges")
    for edge_id, (source, target, attrs) in enumerate(snapshot.edges):
        edge_el = ET.SubElement(edges_el, f"{{{_GEXF_NS}}}edge",
                                id=str(edge_id), source=source, target=target)
        fill_attvalues(edge_el, attrs, edge_schema)

    ET.indent(root)
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


# every character the serialiser escapes, plus apostrophes and non-ASCII text
_MARKUP = st.text(st.sampled_from([*"&<>\"'\r\n\t", "a", "_", "3", " ", "é", "漢", "😀"]),
                  max_size=8)
_TEXT = _MARKUP | st.text(max_size=8)
_KEYS = st.sampled_from(["value", "fan_in", "q", "action", "gate"]) | _TEXT
_VALUES = (
    st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300])
    | _TEXT
)
_ATTRS = st.dictionaries(_KEYS, _VALUES, max_size=4)
_IDS = st.sampled_from(["3_4_6_5_", "3_3_6_5_", "lonely"]) | _TEXT
_SNAPSHOTS = st.builds(
    GraphSnapshot,
    name=_TEXT,
    nodes=st.lists(st.tuples(_IDS, _ATTRS), max_size=6),
    edges=st.lists(st.tuples(_IDS, _IDS, _ATTRS), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(_SNAPSHOTS)
def test_gexf_bytes_match_elementtree(snapshot):
    assert to_gexf(snapshot) == reference_to_gexf(snapshot)


def test_gexf_bytes_of_hand_built_snapshots():
    empty_edges = GraphSnapshot(nodes=[("a", {}), ("b", {"x": 1})])
    empty_nodes = GraphSnapshot(edges=[("a", "b", {})])
    partial = GraphSnapshot(nodes=[("a", {"x": 1}), ("b", {"y": "s", "x": 2.5}),
                                   ("c", {"x": "t"})])
    for snapshot in (sample_snapshot(), GraphSnapshot(), empty_edges, empty_nodes, partial):
        assert to_gexf(snapshot) == reference_to_gexf(snapshot)
    assert "    <nodes />\n    <edges />\n" in to_gexf(GraphSnapshot())


def trained_snapshots():
    snapshots = {}
    for kind in ("synaptic", "bmu", "bmu-pool", "qtable"):
        agent = train(TrainConfig(agent=kind, max_episodes=8, epsilon=0.2), seed=5).agent
        snapshots[kind] = agent.snapshot()
    return snapshots


def test_gexf_bytes_of_agent_snapshots():
    snapshots = trained_snapshots()
    for kind, snapshot in snapshots.items():
        assert snapshot.nodes and (snapshot.edges or kind == "qtable"), kind
        text = to_gexf(snapshot)
        assert text == reference_to_gexf(snapshot), kind
        back = read_gexf(text)
        assert back.nodes == snapshot.nodes, kind
        assert back.edges == snapshot.edges, kind


# one Python type per key, so each value reads back as it was written
_TYPED_ATTRS = st.fixed_dictionaries({}, optional={
    "flag": st.booleans(), "count": st.integers(),
    "q": st.floats(allow_nan=False), "tag": _MARKUP,
})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_MARKUP, _TYPED_ATTRS), max_size=5),
       st.lists(st.tuples(_MARKUP, _MARKUP, _TYPED_ATTRS), max_size=5))
def test_gexf_read_back_over_typed_snapshots(nodes, edges):
    snapshot = GraphSnapshot(nodes=nodes, edges=edges)
    back = read_gexf(to_gexf(snapshot))
    assert back.nodes == snapshot.nodes
    assert back.edges == snapshot.edges


@pytest.mark.parametrize("snapshot", [
    GraphSnapshot(nodes=[(7, {})]),
    GraphSnapshot(nodes=[(None, {"x": 1})]),
    GraphSnapshot(nodes=[("a", {})], edges=[("a", 3, {})]),
    GraphSnapshot(nodes=[("a", {5: "key"})]),
])
def test_gexf_non_str_identifier_is_a_type_error(snapshot):
    with pytest.raises(TypeError):
        reference_to_gexf(snapshot)
    with pytest.raises(TypeError):
        to_gexf(snapshot)
