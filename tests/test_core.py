"""The shared Bellman core: one argmax, one update, and the four agents
as interchangeable adapters over it."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmu_lab.bmu import BmuAgent, PoolAgent
from bmu_lab.config import AGENT_KINDS, TrainConfig
from bmu_lab.core import INIT_MODES, KAPPA, argmax, is_number, optimistic_q
from bmu_lab.discretize import cell_of, key_of
from bmu_lab.qtable import QTableAgent
from bmu_lab.runio import load_agent, save_agent
from bmu_lab.synaptic import SynapticAgent
from bmu_lab.trainer import make_agent

CELLS = [cell_of(f"{i}_{i}_{i}_{i}_") for i in range(6)]


def zero_agents():
    """The four agents at matched zero init."""
    return [
        SynapticAgent(init="zeros"),
        BmuAgent(init="zeros"),
        PoolAgent(capacity=len(CELLS), init="zeros"),
        QTableAgent(init="zeros"),
    ]


class TestArgmax:
    def test_largest_value_wins(self):
        assert argmax([0.1, -2.0, 3.5, 0.0]) == 2

    def test_ties_go_to_the_lowest_index(self):
        assert argmax([1.0, 4.0, 4.0, 4.0]) == 1
        assert argmax([0.0, 0.0]) == 0

    def test_negative_values(self):
        assert argmax([-10.0, -8.9]) == 1


# (state, forced action or None for greedy, reward, next state, terminal)
transitions = st.tuples(
    st.sampled_from(CELLS),
    st.one_of(st.none(), st.integers(0, KAPPA - 1)),
    st.sampled_from([1.0, -10.0, 0.5, -1.0, 2.0]),
    st.sampled_from(CELLS),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(stream=st.lists(transitions, min_size=1, max_size=80))
def test_matched_zero_agents_agree_on_rows_and_choices(stream):
    """Driven as the trainer drives them, where a forced action bypasses
    `select`, the four kinds agree on every greedy choice and on all they
    store: row ids, keys, rows, edges and visits."""
    agents = zero_agents()
    table = agents[3]
    updates = Counter()
    for s, forced, reward, s2, terminal in stream:
        for agent in agents:
            agent.ensure(s)
            agent.ensure(s2)
        action = forced
        if forced is None:
            choices = [agent.select(s) for agent in agents]
            assert choices == [choices[0]] * len(agents)
            action = choices[0]
        for agent in agents:
            agent.update(s, action, reward, s2, terminal)
        updates[key_of(s)] += 1
        rows = [agent.q_values(s) for agent in agents]
        assert rows == [rows[0]] * len(agents)
    for name in ("ids", "keys", "rows", "visits"):
        stored = [getattr(agent, name) for agent in agents]
        assert stored == [stored[0]] * len(agents), name
    # edges in the same first-pointed order
    targets = [list(agent.targets.items()) for agent in agents]
    assert targets == [targets[0]] * len(agents)
    # the table's file counts every update of a source
    assert table.serialize()["visits"] == dict(sorted(updates.items()))
    # the three graph agents also render the same topology
    graphs = agents[:3]
    stats = [agent.stats() for agent in graphs]
    assert stats == [stats[0]] * len(graphs)
    edges = [sorted((s, t, a["action"]) for s, t, a in agent.snapshot().edges)
             for agent in graphs]
    assert edges == [edges[0]] * len(graphs)
    fan_in = [sorted((key, a["fan_in"]) for key, a in agent.snapshot().nodes) for agent in graphs]
    assert fan_in == [fan_in[0]] * len(graphs)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_serialize_round_trip(kind):
    for init in INIT_MODES:
        agent = make_agent(TrainConfig(agent=kind, init=init), np.random.default_rng(5))
        rng = np.random.default_rng(13)
        for _ in range(300):
            s, s2 = CELLS[rng.integers(len(CELLS))], CELLS[rng.integers(len(CELLS))]
            agent.ensure(s)
            agent.ensure(s2)
            action = int(rng.integers(2)) if rng.uniform() < 0.5 else agent.select(s)
            reward = float(rng.choice([1.0, -10.0]))
            agent.update(s, action, reward, s2, reward < 0)
        text = save_agent(agent)
        assert save_agent(load_agent(text)) == text


@pytest.mark.parametrize("kind", ["bmu", "qtable"])
@pytest.mark.parametrize("init", INIT_MODES)
def test_loaded_agent_adds_rows_as_a_fresh_one_from_seed_0(kind, init):
    """A loaded agent keeps its init and draws the rows it adds from seed 0;
    only uniform init holds a stream."""
    agent = make_agent(TrainConfig(agent=kind, init=init), np.random.default_rng(5))
    agent.ensure(CELLS[0])
    loaded = load_agent(save_agent(agent))
    assert (loaded.rng is None) == (init != "uniform")
    fresh = make_agent(TrainConfig(agent=kind, init=init), np.random.default_rng(0))
    for cell in CELLS[1:]:
        loaded.ensure(cell)
        fresh.ensure(cell)
        assert loaded.q_values(cell) == fresh.q_values(cell)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_select_leaves_the_files_unchanged(kind):
    """Selection only reads: no kind keeps state between select and update,
    so agent.json and the snapshot read the same after it."""
    agent = make_agent(TrainConfig(agent=kind), np.random.default_rng(0))
    for s, s2 in zip(CELLS, CELLS[1:]):
        agent.ensure(s)
        agent.ensure(s2)
        agent.update(s, agent.select(s), 1.0, s2, False)
    text, snapshot = save_agent(agent), agent.snapshot()
    for cell in CELLS:
        agent.select(cell)
        assert save_agent(agent) == text
        assert agent.snapshot() == snapshot


@pytest.mark.parametrize("kind, key, value", [
    ("synaptic", "kappa", 2), ("bmu", "b", 2), ("bmu", "d", 1),
    ("bmu-pool", "n_actions", 2), ("qtable", "kappa", 2),
])
def test_agent_file_shape_fixed_and_checked_on_load(kind, key, value):
    """agent.json spells the fixed action count (and bmu's one action
    dimension); a file with any other value is rejected by key on load."""
    agent = make_agent(TrainConfig(agent=kind), np.random.default_rng(0))
    agent.ensure(CELLS[0])
    payload = json.loads(save_agent(agent))
    assert payload[key] == value
    for bad in (value + 1, None):
        with pytest.raises(ValueError, match=f"{key} must be {value}"):
            load_agent(json.dumps({**payload, key: bad}))


@pytest.mark.parametrize("value, number", [
    (0, True), (-1.5, True), (1e308, True), (10 ** 300, True),
    (True, False), ("1.0", False), ("nan", False), (None, False), ([1.0], False),
    (math.nan, False), (math.inf, False), (-math.inf, False), (10 ** 400, False),
])
def test_an_agent_file_value_is_a_finite_number(value, number):
    """What a row of agent.json may hold: a JSON number a float holds."""
    assert is_number(value) is number


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_one_init_for_every_kind(kind):
    """Every kind spawns rows by the core's one init: the optimistic fixed
    point, zeros, or a sized draw over the class's uniform range."""
    config = TrainConfig(agent=kind, gamma=0.9)
    expected = {"optimistic": [optimistic_q(0.9)] * 2, "zeros": [0.0, 0.0]}
    for init in INIT_MODES:
        agent = make_agent(replace(config, init=init), np.random.default_rng(8))
        agent.ensure(CELLS[0])
        row = agent.q_values(CELLS[0])
        if init == "uniform":
            low, high = agent.uniform_range
            assert row == np.random.default_rng(8).uniform(low, high, size=2).tolist()
            assert all(low <= q < high for q in row)
        else:
            assert row == expected[init]
    assert SynapticAgent.uniform_range == QTableAgent.uniform_range == (0.0, 1e-3)
    assert BmuAgent.uniform_range == PoolAgent.uniform_range == (-1.0, 1.0)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_init_validated_by_the_core(kind):
    build = {"synaptic": SynapticAgent, "bmu": BmuAgent, "qtable": QTableAgent,
             "bmu-pool": lambda **kw: PoolAgent(capacity=4, **kw)}[kind]
    with pytest.raises(ValueError, match="init must be one of"):
        build(init="gaussian")
    with pytest.raises(ValueError, match="uniform init needs an rng"):
        build(init="uniform")
    with pytest.raises(TypeError, match="init"):
        build()


def test_sized_uniform_draw_equals_scalar_draws():
    """Synaptic rows drawn in one sized call keep the values of KAPPA
    scalar draws, so runs recorded with per-value draws replay."""
    for seed in range(50):
        agent = SynapticAgent(init="uniform", rng=np.random.default_rng(seed))
        scalar = np.random.default_rng(seed)
        for cell in CELLS:
            agent.ensure(cell)
            assert agent.q_values(cell) == [float(scalar.uniform(0.0, 1e-3))
                                             for _ in range(KAPPA)]
