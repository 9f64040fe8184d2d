"""The shared Bellman core: one argmax, one update, and the four agents
as interchangeable adapters over it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmu_lab.bmu import BmuAgent, PoolAgent
from bmu_lab.core import argmax
from bmu_lab.qtable import QTableAgent
from bmu_lab.runio import load_agent, save_agent
from bmu_lab.synaptic import SynapticAgent
from bmu_lab.trainer import AGENT_KINDS, TrainConfig, make_agent

KEYS = [f"{i}_{i}_{i}_{i}_" for i in range(6)]


def zero_agents(kappa):
    """The four agents at matched zero init; the pool has no init knob."""
    return [
        SynapticAgent(kappa=kappa, q_init="zeros"),
        BmuAgent(b=kappa, rng=np.random.default_rng(0), encoder_init="zeros"),
        PoolAgent(capacity=len(KEYS), n_actions=kappa),
        QTableAgent(kappa=kappa),
    ]


class TestArgmax:
    def test_largest_value_wins(self):
        assert argmax([0.1, -2.0, 3.5, 0.0]) == 2

    def test_ties_go_to_the_lowest_index(self):
        assert argmax([1.0, 4.0, 4.0, 4.0]) == 1
        assert argmax([0.0, 0.0]) == 0

    def test_negative_values(self):
        assert argmax([-10.0, -8.9]) == 1


# (state, forced action or None for greedy, reward, next state, terminal);
# a forced action is taken modulo kappa
transitions = st.tuples(
    st.sampled_from(KEYS),
    st.one_of(st.none(), st.integers(0, 3)),
    st.sampled_from([1.0, -10.0, 0.5, -1.0, 2.0]),
    st.sampled_from(KEYS),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(kappa=st.sampled_from([2, 3, 4]), stream=st.lists(transitions, min_size=1, max_size=80))
def test_matched_zero_agents_agree_on_rows_and_choices(kappa, stream):
    agents = zero_agents(kappa)
    for s, forced, reward, s2, terminal in stream:
        action = None if forced is None else forced % kappa
        for agent in agents:
            agent.ensure(s)
            agent.ensure(s2)
        choices = [agent.select(s, action) for agent in agents]
        assert choices == [choices[0]] * len(agents)
        for agent in agents:
            agent.update(s, choices[0], reward, s2, terminal)
        rows = [agent.q_values(s) for agent in agents]
        assert rows == [rows[0]] * len(agents)
    # the three graph agents also agree on topology
    graphs = agents[:3]
    stats = [agent.stats() for agent in graphs]
    assert stats == [stats[0]] * len(graphs)
    edges = [sorted((s, t, a["action"]) for s, t, a in agent.snapshot().edges)
             for agent in graphs]
    assert edges == [edges[0]] * len(graphs)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_serialize_round_trip(kind):
    config = TrainConfig(agent=kind, q_init="uniform" if kind == "synaptic" else "optimistic")
    agent = make_agent(config, np.random.default_rng(5))
    rng = np.random.default_rng(13)
    for _ in range(300):
        s, s2 = KEYS[rng.integers(len(KEYS))], KEYS[rng.integers(len(KEYS))]
        agent.ensure(s)
        agent.ensure(s2)
        forced = int(rng.integers(2)) if rng.uniform() < 0.5 else None
        action = agent.select(s, forced)
        reward = float(rng.choice([1.0, -10.0]))
        agent.update(s, action, reward, s2, reward < 0)
    agent.select(KEYS[0])  # a synaptic gate left open is part of the state
    text = save_agent(agent)
    assert save_agent(load_agent(text)) == text
