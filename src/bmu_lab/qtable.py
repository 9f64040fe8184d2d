"""Conventional tabular Q-learning over the same state discretization.

Serves two purposes: the comparison row in the summary table, and the
reference semantics for the graph agents (all of them must produce the
same Q values on the same transition stream). Sparse-on-demand storage is
the default; dense mode preallocates every n_bins^4 state row to reproduce
the full-table parameter bookkeeping. Unseen states read as a zero row
without being inserted, and the table records no transition edges.
"""

from __future__ import annotations

from itertools import product

from .core import BellmanCore
from .discretize import key_of
from .graphio import GraphSnapshot
from .metrics import NetworkStats, parameter_count
from .synaptic import optimistic_q


class QTableAgent(BellmanCore):
    kind = "qtable"

    def __init__(self, kappa: int = 2, alpha: float = 0.9, gamma: float = 0.99,
                 dense: bool = False, n_bins: int = 10, q_init: str = "zeros",
                 step_reward: float = 1.0):
        if q_init not in ("zeros", "optimistic"):
            raise ValueError(f"q_init must be 'zeros' or 'optimistic', got {q_init!r}")
        super().__init__(kappa, alpha, gamma)
        self.dense = dense
        self.n_bins = n_bins
        self.q_init = q_init
        self.init_value = optimistic_q(step_reward, gamma) if q_init == "optimistic" else 0.0
        self.visits: dict[str, int] = {}
        if dense:
            for bins in product(range(n_bins), repeat=4):
                self.add(key_of(bins), self.new_row())

    def new_row(self) -> list[float]:
        return [self.init_value] * self.kappa

    def row(self, state_key: str) -> list[float]:
        """Stored row, or a zero view for unseen states (no insertion)."""
        index = self.ids.get(state_key)
        return [0.0] * self.kappa if index is None else self.rows[index]

    def update(self, state_key: str, action: int, reward: float,
               next_key: str, terminal: bool) -> None:
        # a row inserted by an update is not an agent-level ensure (no spawn)
        BellmanCore.ensure(self, state_key)
        self.learn(self.ids[state_key], action, reward, self.ids.get(next_key), terminal)
        self.visits[state_key] = self.visits.get(state_key, 0) + 1

    def stats(self) -> NetworkStats:
        # fan-in has no natural meaning for a lookup table; reported as n/a
        n = len(self.keys)
        return NetworkStats(neurons=n, edges=None, avg_fan_in=None,
                            parameter_count=parameter_count(n, self.kappa))

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

    def serialize(self) -> dict:
        return {
            "kind": self.kind,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "dense": self.dense,
            "n_bins": self.n_bins,
            "q_init": self.q_init,
            "rows": dict(self.sorted_rows()),
            "visits": dict(sorted(self.visits.items())),
        }

    @classmethod
    def deserialize(cls, payload: dict) -> "QTableAgent":
        agent = cls(kappa=payload["kappa"], alpha=payload["alpha"],
                    gamma=payload["gamma"], dense=payload["dense"],
                    n_bins=payload["n_bins"], q_init=payload.get("q_init", "zeros"))
        for key, row in payload["rows"].items():
            row = [float(v) for v in row]
            if key in agent.ids:
                agent.rows[agent.ids[key]] = row
            else:
                agent.add(key, row)
        agent.visits = {key: int(n) for key, n in payload["visits"].items()}
        return agent
