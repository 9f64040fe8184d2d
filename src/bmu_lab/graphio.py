"""Directed-graph snapshots of agent topology: DOT and GEXF export, GEXF
parsing.

Snapshots are plain node/edge lists with typed attributes (str, int, float
or bool). The writers emit a small, predictable dialect that FORMATS.md
spells out byte for byte. Only GEXF is read back (by `bmu-lab stats`);
the DOT files are for Graphviz, and Gephi reads the GEXF files directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

Attrs = dict[str, object]


@dataclass
class GraphSnapshot:
    name: str = "bmu_lab"
    nodes: list[tuple[str, Attrs]] = field(default_factory=list)
    edges: list[tuple[str, str, Attrs]] = field(default_factory=list)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_value(value) -> str:
    if isinstance(value, bool):
        return '"true"' if value else '"false"'
    if isinstance(value, (int, float)):
        return repr(value)
    return f'"{_dot_escape(str(value))}"'


def to_dot(snapshot: GraphSnapshot) -> str:
    lines = [f'digraph "{_dot_escape(snapshot.name)}" {{']
    for node_id, attrs in snapshot.nodes:
        attr_text = ", ".join(f"{k}={_dot_value(v)}" for k, v in attrs.items())
        suffix = f" [{attr_text}]" if attr_text else ""
        lines.append(f'  "{_dot_escape(node_id)}"{suffix};')
    for source, target, attrs in snapshot.edges:
        attr_text = ", ".join(f"{k}={_dot_value(v)}" for k, v in attrs.items())
        suffix = f" [{attr_text}]" if attr_text else ""
        lines.append(f'  "{_dot_escape(source)}" -> "{_dot_escape(target)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


_GEXF_NS = "http://www.gexf.net/1.2draft"

_GEXF_TYPES = {bool: "boolean", int: "integer", float: "double", str: "string"}


def _attr_type(value) -> str:
    for py_type, gexf_type in _GEXF_TYPES.items():
        if type(value) is py_type:
            return gexf_type
    return "string"


def _collect_attr_schema(items: list[tuple]) -> dict[str, str]:
    schema: dict[str, str] = {}
    for item in items:
        for key, value in item[-1].items():
            schema.setdefault(key, _attr_type(value))
    return schema


_XML_SPECIAL = re.compile('[&<>"\r\n\t]')
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                              "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def _xml_attr(text: str) -> str:
    """Escape an attribute value exactly as ElementTree's serialiser does.

    One translate equals its chain of replaces, as no entity holds a later
    special character; a non-str fails the search with TypeError, as there.
    """
    return text.translate(_XML_ESCAPES) if _XML_SPECIAL.search(text) else text


def _gexf_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _xml_attr(repr(value) if isinstance(value, float) else str(value))


def _gexf_element(lines: list[str], tag: str, head: str, attrs: Attrs,
                  attr_ids: dict[str, int]) -> None:
    if not attrs:
        lines.append(f"      <{tag} {head} />")
        return
    lines += [f"      <{tag} {head}>", "        <attvalues>"]
    lines += [f'          <attvalue for="{attr_ids[key]}" value="{_gexf_value(value)}" />'
              for key, value in attrs.items()]
    lines += ["        </attvalues>", f"      </{tag}>"]


def to_gexf(snapshot: GraphSnapshot) -> str:
    """GEXF 1.2 text in the dialect FORMATS.md spells out byte for byte."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<gexf xmlns="{_GEXF_NS}" version="1.2">',
             '  <graph defaultedgetype="directed" mode="static">']
    attr_ids = {}
    for cls, items in (("node", snapshot.nodes), ("edge", snapshot.edges)):
        schema = _collect_attr_schema(items)
        attr_ids[cls] = {key: attr_id for attr_id, key in enumerate(schema)}
        if schema:
            lines.append(f'    <attributes class="{cls}">')
            lines += [f'      <attribute id="{attr_id}" title="{_xml_attr(key)}" '
                      f'type="{gexf_type}" />'
                      for attr_id, (key, gexf_type) in enumerate(schema.items())]
            lines.append("    </attributes>")

    lines.append("    <nodes>" if snapshot.nodes else "    <nodes />")
    for node_id, attrs in snapshot.nodes:
        node_id = _xml_attr(node_id)
        _gexf_element(lines, "node", f'id="{node_id}" label="{node_id}"', attrs, attr_ids["node"])
    if snapshot.nodes:
        lines.append("    </nodes>")
    lines.append("    <edges>" if snapshot.edges else "    <edges />")
    for edge_id, (source, target, attrs) in enumerate(snapshot.edges):
        head = f'id="{edge_id}" source="{_xml_attr(source)}" target="{_xml_attr(target)}"'
        _gexf_element(lines, "edge", head, attrs, attr_ids["edge"])
    if snapshot.edges:
        lines.append("    </edges>")
    lines += ["  </graph>", "</gexf>", ""]
    return "\n".join(lines)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _typed(value: str, gexf_type: str):
    if gexf_type == "integer":
        return int(value)
    if gexf_type == "double":
        return float(value)
    if gexf_type == "boolean":
        return value == "true"
    return value


def read_gexf(text: str) -> GraphSnapshot:
    import xml.etree.ElementTree as ET  # only `stats` reads a graph back

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ValueError(f"malformed GEXF: {exc}") from None
    snapshot = GraphSnapshot(name="graph")

    schemas: dict[str, dict[str, tuple[str, str]]] = {"node": {}, "edge": {}}
    for attributes in root.iter():
        if _local(attributes.tag) != "attributes":
            continue
        cls = attributes.get("class", "node")
        for attribute in attributes:
            schemas[cls][attribute.get("id")] = (
                attribute.get("title"),
                attribute.get("type", "string"),
            )

    def read_attrs(element, cls: str) -> Attrs:
        attrs: Attrs = {}
        for child in element.iter():
            if _local(child.tag) != "attvalue":
                continue
            declared = schemas[cls].get(child.get("for"))
            if declared is None:
                raise ValueError(f"malformed GEXF: no {cls} attribute {child.get('for')!r}")
            title, gexf_type = declared
            value = child.get("value")
            try:
                attrs[title] = _typed(value, gexf_type)
            except (TypeError, ValueError):
                raise ValueError(f"malformed GEXF: {cls} attribute {title!r} is declared "
                                 f"{gexf_type}, got value {value!r}") from None
        return attrs

    for element in root.iter():
        tag = _local(element.tag)
        if tag == "node":
            snapshot.nodes.append((element.get("id"), read_attrs(element, "node")))
        elif tag == "edge":
            snapshot.edges.append(
                (element.get("source"), element.get("target"), read_attrs(element, "edge"))
            )
    return snapshot
