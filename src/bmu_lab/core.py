"""The one Q store every agent keeps its learning in.

The synaptic graph, the BMU ensembles, the neuron pool and the Q-table all
run the same Bellman iteration over the same data: one row of kappa action
values per discretized state, and, for the graph agents, which state each
(state, action) transition last led to. `BellmanCore` holds exactly that,
under row ids given out in first-seen order, and the four agent classes are
thin adapters over it that differ only in how they initialise rows and how
they render their state to files.

Agents are driven with the packed cell ids of `discretize`. The string key
of a cell is rendered once, when its row is added, and is what the files
show; loading a file parses the keys back into cell ids.
"""

from __future__ import annotations

import math

from .discretize import cell_of, key_of, unpack
from .graphio import GraphSnapshot
from .metrics import NetworkStats, parameter_count


def argmax(row) -> int:
    """Index of the largest value; ties go to the lowest index."""
    return row.index(max(row))


class BellmanCore:
    """State rows, their Bellman update and the transition edges between them.

    `ids` maps a cell id to its row id i, `keys[i]` is the cell's state key
    and `rows[i]` its action values. `targets` maps (source id, action) to
    the target id of the latest transition, in first-pointed order, and
    `fan_in[i]` counts the edges pointing at id i. Every edge adds exactly
    one unit of fan-in, so the fan-in total always equals the edge count.
    """

    def __init__(self, kappa: int, alpha: float, gamma: float):
        if kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {kappa}")
        self.kappa = kappa
        self.alpha = alpha
        self.gamma = gamma
        self.keys: list[str] = []
        self.ids: dict[int, int] = {}
        self.rows: list[list[float]] = []
        self.fan_in: list[int] = []
        self.targets: dict[tuple[int, int], int] = {}

    # -- storage -------------------------------------------------------

    def new_row(self) -> list[float]:
        """Initial action values of a newly seen state."""
        return [0.0] * self.kappa

    def add(self, cell: int, row: list[float]) -> None:
        self.ids[cell] = len(self.keys)
        self.keys.append(key_of(unpack(cell)))
        self.rows.append(row)
        self.fan_in.append(0)

    def row(self, cell: int) -> list[float]:
        return self.rows[self.ids[cell]]

    def learn(self, source: int, action: int, reward: float,
              target: int | None, terminal: bool) -> None:
        """Q += alpha * (-Q + r + gamma * V') on one action of `source`.

        V' is 0 on terminal transitions and otherwise the max of the target
        row, read before the write (so a self-loop sees its old value). A
        `target` of None is a state without a row, which reads as zeros.
        """
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        row = self.rows[source]
        v_next = 0.0 if terminal or target is None else max(self.rows[target])
        row[action] += self.alpha * (-row[action] + reward + self.gamma * v_next)

    def point(self, source: int, action: int, target: int) -> None:
        """Record the transition edge, keeping fan-in exact.

        Re-pointing an edge moves one unit of fan-in from the old target to
        the new one; repeating the same edge changes nothing.
        """
        slot = (source, action)
        old = self.targets.get(slot)
        if old != target:
            if old is not None:
                self.fan_in[old] -= 1
            self.targets[slot] = target
            self.fan_in[target] += 1

    def edge_list(self) -> list[tuple[int, int, int]]:
        """(source id, action, target id) in first-pointed order."""
        return [(source, action, target) for (source, action), target in self.targets.items()]

    # -- the agent interface the trainer drives --------------------------

    def ensure(self, cell: int) -> bool:
        """Add a row for an unseen state; True when one was added."""
        if cell in self.ids:
            return False
        self.add(cell, self.new_row())
        return True

    def select(self, cell: int, forced: int | None = None) -> int:
        if forced is not None:
            return forced
        return argmax(self.row(cell))

    def update(self, cell: int, action: int, reward: float,
               next_cell: int, terminal: bool) -> None:
        source = self.ids[cell]
        target = self.ids[next_cell]
        self.learn(source, action, reward, target, terminal)
        self.point(source, action, target)

    def q_values(self, cell: int) -> list[float]:
        return list(self.row(cell))

    def stats(self) -> NetworkStats:
        n = len(self.keys)
        edges = len(self.targets)
        return NetworkStats(
            neurons=n,
            edges=edges,
            avg_fan_in=edges / n if n else 0.0,
            parameter_count=parameter_count(n, self.kappa),
        )

    # -- renderings ------------------------------------------------------

    def edge_attrs(self, source: int, action: int) -> dict:
        return {"action": action, "q": self.rows[source][action]}

    def snapshot(self) -> GraphSnapshot:
        keys = self.keys
        snapshot = GraphSnapshot(name=self.kind)
        for key, row, fan_in in zip(keys, self.rows, self.fan_in):
            snapshot.nodes.append((key, {"value": max(row), "fan_in": fan_in}))
        for source, action, target in self.edge_list():
            snapshot.edges.append((keys[source], keys[target], self.edge_attrs(source, action)))
        return snapshot

    def value_table(self) -> tuple[str, str] | None:
        """(file name, CSV text) of the agent's value dump, if it has one."""
        return None

    @staticmethod
    def rows_csv(header: str, keyed_rows, prefix: str = "") -> str:
        """One `key,action,<prefix>q` line per stored action value."""
        lines = [header]
        for key, row in keyed_rows:
            for action, q in enumerate(row):
                lines.append(f"{key},{action},{prefix}{q!r}")
        return "\n".join(lines) + "\n"

    def edge_payload(self) -> list[dict]:
        keys = self.keys
        return [{"source": keys[source], "action": action, "target": keys[target]}
                for source, action, target in self.edge_list()]

    def restore_edges(self, edges) -> None:
        ids = self.ids
        for edge in edges:
            self.point(ids[cell_of(edge["source"])], edge["action"],
                       ids[cell_of(edge["target"])])
