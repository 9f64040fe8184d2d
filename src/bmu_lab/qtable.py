"""Conventional tabular Q-learning over the same state discretization.

Serves two purposes: the comparison row in the summary table, and the
reference semantics for the graph agents (all of them must produce the
same Q values on the same transition stream). Rows are stored on demand:
as for every agent, a state is read and updated only after `ensure` has
added its row. The table learns through the shared update and records no
edge: its `point` counts a visit of the source state instead, so `visits`
counts the updates with each state as source. Visit counts and the row
order of `qtable.csv` and `agent.json` follow the string keys, so the files
sort as keys, not as cell ids.
"""

from __future__ import annotations

from .core import BellmanCore, parameter_count
from .discretize import cell_of
from .graphio import GraphSnapshot
from .metrics import NetworkStats
from .streams import loaded_rng


class QTableAgent(BellmanCore):
    kind = "qtable"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.visits: dict[str, int] = {}

    def point(self, source: int, action: int, target: int) -> None:
        # a table records no edge, only that the source was updated once more
        key = self.keys[source]
        self.visits[key] = self.visits.get(key, 0) + 1

    def stats(self) -> NetworkStats:
        # fan-in has no natural meaning for a lookup table; reported as n/a
        n = len(self.keys)
        return NetworkStats(neurons=n, edges=None, avg_fan_in=None,
                            parameter_count=parameter_count(n))

    def sorted_rows(self) -> list[tuple[str, list[float]]]:
        return sorted(zip(self.keys, self.rows))

    def snapshot(self) -> GraphSnapshot:
        # a table has rows, not topology: nodes only, no edges
        snapshot = GraphSnapshot(name=self.kind)
        for key, row in self.sorted_rows():
            snapshot.nodes.append((key, {"value": max(row), "fan_in": 0}))
        return snapshot

    def value_table(self) -> tuple[str, str]:
        return "qtable.csv", self.rows_csv("state_key,action,q", self.sorted_rows())

    def payload(self) -> dict:
        return {
            "q_init": self.init,
            "rows": dict(self.sorted_rows()),
            "visits": dict(sorted(self.visits.items())),
        }

    @classmethod
    def deserialize(cls, payload: dict) -> "QTableAgent":
        # a loaded table that adds rows draws uniform ones from seed 0; an
        # older file's retired table mode and bin count change no row
        init = payload.get("q_init", "zeros")
        agent = cls(alpha=payload["alpha"], gamma=payload["gamma"], init=init,
                    rng=loaded_rng(init))
        for key, row in payload["rows"].items():
            agent.load_row(key, row)
        for key, count in payload["visits"].items():
            cell_of(key)  # raises on a key that is not canonical
            if type(count) is not int or count < 0:
                raise ValueError(f"visits of state {key} must be a non-negative integer, "
                                 f"got {count!r}")
        agent.visits = dict(payload["visits"])
        return agent
