"""Synaptic Q-learning on an evolving neuron/synapse/gate graph.

One neuron per discretized state holds the value function; each of its
KAPPA synapses holds the Q value of one action plus an exponential-kernel
time constant tau that encodes the discount factor (gamma = e^(-1/tau)).
In the paper a normally-closed gate sits on every synapse output: action
selection opens one gate, the Bellman update goes through it, and it
closes again. Here that open gate is the `action` that `update` receives,
and nothing is written between selection and update, so every file shows
every gate closed. New neurons are spawned the first time a discretized
state is seen, so the network topology grows with the explored region of
state space and saturates as the policy converges.

Selection fires the synapse with the highest spike frequency c * Q_j,
which for any gain c > 0 is the synapse with the highest Q. So the gain is
no setting; agent.json records it as a fixed `"c": 1.0`. The neurons and
synapses are rows of the shared `BellmanCore`, which selects and updates
as it does for every kind.
"""

from __future__ import annotations

from .core import BellmanCore


class SynapticAgent(BellmanCore):
    """One neuron per state; its KAPPA synapses carry the Q values.

    The gate the paper opens for the selected synapse is the action the
    update receives; between steps every gate is closed, so files always
    write `"gate": "closed"` and a file with any other gate is rejected.
    """

    kind = "synaptic"

    def edge_list(self) -> list[tuple[int, int, int]]:
        # a neuron lists its synapses in action order, neurons in spawn order
        return sorted(super().edge_list())

    def edge_attrs(self, source: int, action: int) -> dict:
        return {**super().edge_attrs(source, action), "gate": "closed"}

    def payload(self) -> dict:
        keys, fan_in = self.keys, self.fan_in()
        return {
            "c": 1.0,
            "neurons": [
                {
                    "key": key,
                    "value": max(row),
                    "fan_in": fan_in[i],
                    "synapses": [
                        {"q": q,
                         "target": keys[self.targets[i, j]] if (i, j) in self.targets else None,
                         "gate": "closed"}
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
            agent.load_row(entry["key"], [syn["q"] for syn in entry["synapses"]])
        for i, entry in enumerate(payload["neurons"]):
            for j, syn in enumerate(entry["synapses"]):
                if syn["gate"] != "closed":
                    raise ValueError(f"gate must be closed in a synaptic agent file, "
                                     f"got {syn['gate']!r} on neuron {entry['key']}")
                if syn["target"] is not None:
                    agent.targets[i, j] = agent.id_of(syn["target"])
        return agent
