"""Conventional tabular Q-learning over the same state discretization.

Serves two purposes: the comparison row in the summary table, and the
reference semantics for the graph agents (all of them must produce the
same Q values on the same transition stream). Rows are stored on demand:
as for every agent, a state is read and updated only after `ensure` has
added its row. The table learns through the shared update, which records
its edges as for every kind, but no file of a table shows them: its
`agent.json` writes the visits, the updates with each state as source.
Visit counts and the row order of `qtable.csv` and `agent.json` follow the
string keys, so the files sort as keys, not as cell ids.
"""

from __future__ import annotations

from .core import BellmanCore, parameter_count
from .graphio import GraphSnapshot
from .metrics import NetworkStats
from .streams import loaded_rng


class QTableAgent(BellmanCore):
    kind = "qtable"

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
            # a state never updated has no entry
            "visits": {key: count for key, count in sorted(zip(self.keys, self.visits))
                       if count},
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
            source = agent.id_of(key)
            if type(count) is not int or count < 1:
                raise ValueError(f"visits of state {key} must be a positive integer, "
                                 f"got {count!r}")
            agent.visits[source] = count
        return agent
