"""Topology analytics: degree distributions and cross-agent summary tables."""

from __future__ import annotations

from dataclasses import dataclass

from .graphio import GraphSnapshot


@dataclass(frozen=True)
class NetworkStats:
    """Size metrics of an agent network; None marks a non-applicable field."""

    neurons: int
    edges: int | None
    avg_fan_in: float | None
    parameter_count: int


@dataclass(frozen=True)
class DegreeHistogram:
    counts: dict[int, int]
    average: float
    max_degree: int
    nodes: int
    edges: int


def degree_distribution(snapshot: GraphSnapshot) -> DegreeHistogram:
    """Total (in + out) degree histogram; a self-loop adds 2 to its node."""
    degrees = {node_id: 0 for node_id, _ in snapshot.nodes}
    for source, target, _ in snapshot.edges:
        degrees[source] = degrees.get(source, 0) + 1
        degrees[target] = degrees.get(target, 0) + 1
    counts: dict[int, int] = {}
    for degree in degrees.values():
        counts[degree] = counts.get(degree, 0) + 1
    n_nodes = len(degrees)
    total = sum(degrees.values())
    return DegreeHistogram(
        counts=dict(sorted(counts.items())),
        average=total / n_nodes if n_nodes else 0.0,
        max_degree=max(degrees.values(), default=0),
        nodes=n_nodes,
        edges=len(snapshot.edges),
    )


def degree_hist_csv(hist: DegreeHistogram) -> str:
    lines = ["degree,count"]
    lines.extend(f"{degree},{count}" for degree, count in hist.counts.items())
    return "\n".join(lines) + "\n"


SUMMARY_COLUMNS = ("agent", "init", "episodes_to_convergence", "neurons", "avg_fan_in",
                   "parameters", "failed")


def _cell(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def summary_table(rows: list[dict]) -> tuple[str, str]:
    """Comparison table over completed runs, as (csv_text, aligned_text).

    Each row is a dict with the SUMMARY_COLUMNS keys; missing or None
    entries render as "n/a" rather than zero.
    """
    if not rows:
        raise ValueError("summary_table needs at least one completed run")
    cells = [[_cell(row.get(col)) for col in SUMMARY_COLUMNS] for row in rows]

    csv_lines = [",".join(SUMMARY_COLUMNS)]
    csv_lines.extend(",".join(row) for row in cells)
    csv_text = "\n".join(csv_lines) + "\n"

    widths = [len(col) for col in SUMMARY_COLUMNS]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(SUMMARY_COLUMNS))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in cells
    ]
    aligned_text = "\n".join([header, rule, *body]) + "\n"
    return csv_text, aligned_text
