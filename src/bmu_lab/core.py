"""The one Q store every agent keeps its learning in.

The synaptic graph, the BMU ensembles, the neuron pool and the Q-table all
run the same Bellman iteration over the same data: one row of `KAPPA`
action values per discretized state, which state each (state, action)
transition last led to, and how often each state was updated. `BellmanCore`
holds exactly that, under row ids given out in first-seen order. It is the
one learner and selector: every kind runs its one `update`, which records
each edge and visit, and its greedy `select`; the trainer draws the
exploring actions.
The four agent classes differ only in how they render their state to
files, the range of their uniform row init and the pool's capacity.

Agents are driven with the packed cell ids of `discretize`. The string key
of a cell is rendered once, when its row is added, and is what the files
show; loading a file parses the keys back into cell ids.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .cartpole import STEP_REWARD
from .discretize import cell_of, key_of
from .graphio import GraphSnapshot
from .metrics import NetworkStats

if TYPE_CHECKING:
    from .streams import Stream

INIT_MODES = ("optimistic", "zeros", "uniform")

# actions per state: the cartpole's two pushes, left and right
KAPPA = 2


def parameter_count(units: int) -> int:
    """The parameter column's convention: each state cell carries its KAPPA
    action values, one stored value function and one gate/selector word."""
    return units * (KAPPA + 2)


def optimistic_q(gamma: float) -> float:
    """Fixed point of an endless step-reward stream, r/(1 - gamma).

    Rows spawned at exactly this value keep unexplored corridors
    self-consistently optimistic (a transition into a fresh state maps the
    value onto itself), so greedy selection systematically tries untested
    actions until their real values emerge. Any other starting value decays
    toward this one and injects ordering noise between untried actions.
    """
    return STEP_REWARD / (1.0 - gamma)


def is_number(value) -> bool:
    """A finite JSON number that a float holds: no bool, string, NaN or
    infinity, and no int too large to convert."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def argmax(row) -> int:
    """Index of the largest value; ties go to the lowest index."""
    return row.index(max(row))


class BellmanCore:
    """State rows, their Bellman update and the transition edges between them.

    `ids` maps a cell id to its row id i, `keys[i]` is the cell's state key
    and `rows[i]` its action values. `targets` maps (source id, action) to
    the target id of the latest transition, in first-pointed order, and
    `visits[i]` counts the updates with id i as source; every kind records
    both, and its files show what they need.

    A new row starts at `init`: the optimistic fixed point, zeros, or KAPPA
    draws from `rng` uniform over the class's `uniform_range`. `rng` is a
    `streams.Stream` or anything else with numpy's scalar `uniform(low,
    high)`, such as a numpy Generator.
    """

    uniform_range = (0.0, 1e-3)
    # agent.json's shape fields and the one value each can take; a file with
    # any other value is rejected on load
    fixed_fields = {"kappa": KAPPA}

    def __init__(self, alpha: float = 0.9, gamma: float = 0.99, *, init: str,
                 rng: Stream | None = None):
        if init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {init!r}")
        if init == "uniform" and rng is None:
            raise ValueError("uniform init needs an rng")
        self.alpha = alpha
        self.gamma = gamma
        self.init = init
        self.rng = rng
        self.keys: list[str] = []
        self.ids: dict[int, int] = {}
        self.rows: list[list[float]] = []
        self.visits: list[int] = []
        self.targets: dict[tuple[int, int], int] = {}

    # -- storage -------------------------------------------------------

    def new_row(self) -> list[float]:
        """Initial action values of a newly seen state."""
        if self.init == "uniform":
            # KAPPA scalar draws equal one sized draw, value for value
            return [self.rng.uniform(*self.uniform_range) for _ in range(KAPPA)]
        q = optimistic_q(self.gamma) if self.init == "optimistic" else 0.0
        return [q] * KAPPA

    def add(self, cell: int, row: list[float]) -> None:
        self.ids[cell] = len(self.keys)
        self.keys.append(key_of(cell))
        self.rows.append(row)
        self.visits.append(0)

    def edge_list(self) -> list[tuple[int, int, int]]:
        """(source id, action, target id) in first-pointed order."""
        return [(source, action, target) for (source, action), target in self.targets.items()]

    def fan_in(self) -> list[int]:
        """Per row id, the number of edges pointing at it, counted when a
        file needs it."""
        counts = [0] * len(self.keys)
        for target in self.targets.values():
            counts[target] += 1
        return counts

    # -- the agent interface the trainer drives --------------------------

    def ensure(self, cell: int) -> bool:
        """Add a row for an unseen state; True when one was added."""
        if cell in self.ids:
            return False
        self.add(cell, self.new_row())
        return True

    def select(self, cell: int) -> int:
        """The greedy action of a seen state; exploring is the trainer's."""
        return argmax(self.rows[self.ids[cell]])

    def update(self, cell: int, action: int, reward: float,
               next_cell: int, terminal: bool) -> None:
        """Q += alpha * (-Q + r + gamma * V') on one action of `cell`, then
        record the transition's edge and the source's visit.

        V' is 0 on terminal transitions and otherwise the max of the target
        row, read before the write (so a self-loop sees its old value).
        """
        source = self.ids[cell]
        target = self.ids[next_cell]
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        row = self.rows[source]
        v_next = 0.0 if terminal else max(self.rows[target])
        row[action] += self.alpha * (-row[action] + reward + self.gamma * v_next)
        self.targets[source, action] = target
        self.visits[source] += 1

    def q_values(self, cell: int) -> list[float]:
        return list(self.rows[self.ids[cell]])

    def stats(self) -> NetworkStats:
        n = len(self.keys)
        edges = len(self.targets)
        return NetworkStats(
            neurons=n,
            edges=edges,
            avg_fan_in=edges / n if n else 0.0,
            parameter_count=parameter_count(n),
        )

    # -- renderings ------------------------------------------------------

    def edge_attrs(self, source: int, action: int) -> dict:
        return {"action": action, "q": self.rows[source][action]}

    def snapshot(self) -> GraphSnapshot:
        keys = self.keys
        snapshot = GraphSnapshot(name=self.kind)
        for key, row, fan_in in zip(keys, self.rows, self.fan_in()):
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

    def serialize(self) -> dict:
        """agent.json: the head every kind shares, then the kind's `payload()`."""
        return {"kind": self.kind, **self.fixed_fields, "alpha": self.alpha,
                "gamma": self.gamma, **self.payload()}

    def edge_payload(self) -> list[dict]:
        keys = self.keys
        return [{"source": keys[source], "action": action, "target": keys[target]}
                for source, action, target in self.edge_list()]

    def load_row(self, key, values) -> None:
        """Add the row of a state read back from an agent file: a state the
        file has not named before, holding exactly KAPPA finite numbers."""
        cell = cell_of(key)
        if cell in self.ids:
            raise ValueError(f"state {key} is listed twice in the {self.kind} agent file")
        if len(values) != KAPPA or not all(is_number(q) for q in values):
            raise ValueError(f"state {key} must hold {KAPPA} finite numbers in the "
                             f"{self.kind} agent file, got {values!r}")
        self.add(cell, [float(q) for q in values])

    def id_of(self, key: str) -> int:
        """The row id of a state key read back from a file."""
        try:
            return self.ids[cell_of(key)]
        except KeyError:
            raise ValueError(f"state {key} has no row in the {self.kind} agent file") from None

    def restore_edges(self, edges) -> None:
        for edge in edges:
            action = edge["action"]
            if type(action) is not int or not 0 <= action < KAPPA:
                raise ValueError(f"edge action must be 0 to {KAPPA - 1} in the {self.kind} "
                                 f"agent file, got {action!r} from state {edge['source']}")
            self.targets[self.id_of(edge["source"]), action] = self.id_of(edge["target"])
