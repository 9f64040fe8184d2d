"""Synaptic Q-learning on an evolving neuron/synapse/gate graph.

One neuron per discretized state holds the value function; each of its
KAPPA synapses holds the Q value of one action plus an exponential-kernel
time constant tau that encodes the discount factor (gamma = e^(-1/tau)).
A normally-closed gate sits on every synapse output: action selection
opens exactly one gate, the step outcome drives the Bellman update through
that open gate, and the gate closes again. New neurons are spawned the
first time a discretized state is seen, so the network topology grows with
the explored region of state space and saturates as the policy converges.

Selection fires the synapse with the highest spike frequency c * Q_j,
which for any gain c > 0 is the synapse with the highest Q. So the gain is
no setting; agent.json records it as a fixed `"c": 1.0`. The neurons and
synapses are rows of the shared `BellmanCore`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BellmanCore, argmax
from .discretize import cell_of


def gamma_to_tau(gamma: float) -> float:
    """Synaptic time constant equivalent to a discount factor: -1/ln(gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return -1.0 / math.log(gamma)


def synaptic_filter(spike_train, tau: float, t: int) -> float:
    """Post-synaptic current at step t: causal exponential convolution
    sum_{x<=t} I_in(x) * e^(-(t-x)/tau)."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0 <= t < len(spike_train):
        raise ValueError(f"step {t} outside the spike train of length {len(spike_train)}")
    return sum(spike_train[x] * math.exp(-(t - x) / tau) for x in range(t + 1))


class SynapticAgent(BellmanCore):
    """One neuron per state; its KAPPA synapses carry the Q values.

    Selection opens the gate of one synapse and the update goes through
    that open gate, which then closes. Between steps every gate is closed,
    so the open gate is one (state id, action) slot per agent.
    """

    kind = "synaptic"

    def __init__(self, alpha: float = 0.9, gamma: float = 0.99, *, init: str,
                 rng: np.random.Generator | None = None, step_reward: float = 1.0):
        super().__init__(alpha, gamma, init=init, rng=rng, step_reward=step_reward)
        self.open_gate: tuple[int, int] | None = None

    def select(self, cell: int, forced: int | None = None) -> int:
        source = self.ids[cell]
        if self.open_gate is not None:
            raise ValueError(f"neuron {self.keys[self.open_gate[0]]} already has an open gate")
        action = argmax(self.rows[source]) if forced is None else forced
        self.open_gate = (source, action)
        return action

    def update(self, cell: int, action: int, reward: float,
               next_cell: int, terminal: bool) -> None:
        source = self.ids[cell]
        if self.open_gate != (source, action):
            raise ValueError(
                f"gate {action} of neuron {self.keys[source]} is closed; select before updating"
            )
        super().update(cell, action, reward, next_cell, terminal)
        self.open_gate = None

    def gate(self, source: int, action: int) -> str:
        return "open" if self.open_gate == (source, action) else "closed"

    def edge_list(self) -> list[tuple[int, int, int]]:
        # a neuron lists its synapses in action order, neurons in spawn order
        return sorted(super().edge_list())

    def edge_attrs(self, source: int, action: int) -> dict:
        return {**super().edge_attrs(source, action), "gate": self.gate(source, action)}

    def serialize(self) -> dict:
        keys = self.keys
        return {
            "kind": self.kind,
            **self.fixed_fields,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "c": 1.0,
            "neurons": [
                {
                    "key": key,
                    "value": max(row),
                    "fan_in": self.fan_in[i],
                    "synapses": [
                        {"q": q,
                         "target": keys[self.targets[i, j]] if (i, j) in self.targets else None,
                         "gate": self.gate(i, j)}
                        for j, q in enumerate(row)
                    ],
                }
                for i, (key, row) in enumerate(zip(keys, self.rows))
            ],
        }

    @classmethod
    def deserialize(cls, payload: dict) -> "SynapticAgent":
        # stored values overwrite the init, so any deterministic mode works
        agent = cls(alpha=payload["alpha"], gamma=payload["gamma"], init="zeros")
        for entry in payload["neurons"]:
            agent.add(cell_of(entry["key"]), [float(syn["q"]) for syn in entry["synapses"]])
        for i, entry in enumerate(payload["neurons"]):
            for j, syn in enumerate(entry["synapses"]):
                if syn["target"] is not None:
                    agent.point(i, j, agent.ids[cell_of(syn["target"])])
                if syn["gate"] == "open":
                    agent.open_gate = (i, j)
        return agent
