"""Tabular baseline tests and its role as reference for the graph agent."""

import numpy as np
import pytest

from bmu_lab.config import AGENT_KINDS, TrainConfig
from bmu_lab.discretize import cell_of
from bmu_lab.qtable import QTableAgent
from bmu_lab.synaptic import SynapticAgent
from bmu_lab.trainer import greedy_action, make_agent

# agents take cell ids; agent.json names the same states by key
S_KEY, T_KEY = "1_1_1_1_", "2_2_2_2_"
S, T = cell_of(S_KEY), cell_of(T_KEY)


def ensured(agent, *cells):
    """The agent with a row for each cell, as the trainer ensures before updating."""
    for cell in cells:
        agent.ensure(cell)
    return agent


def table_with_rows(rows, alpha=0.9, gamma=0.99):
    """A Q-table holding the given rows, loaded through an agent.json of the
    older shape, which still names the retired table mode and its bins."""
    return QTableAgent.deserialize({
        "kind": "qtable", "kappa": 2, "alpha": alpha, "gamma": gamma,
        "dense": False, "n_bins": 10, "q_init": "zeros",
        "rows": rows, "visits": {},
    })


class TestSelect:
    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_unseen_state_reads_zero_and_ties_low(self, kind):
        # the greedy readout takes an unseen state as the all-zero tie
        agent = make_agent(TrainConfig(agent=kind, init="zeros"), None)
        assert greedy_action(agent, cell_of("9_9_9_9_")) == 0
        with pytest.raises(KeyError):
            agent.select(cell_of("9_9_9_9_"))
        with pytest.raises(KeyError):
            agent.q_values(cell_of("9_9_9_9_"))
        with pytest.raises(KeyError):
            agent.update(S, 0, 1.0, T, False)  # the trainer ensures both cells first
        assert agent.stats().neurons == 0  # reading never inserts

    def test_argmax(self):
        assert table_with_rows({S_KEY: [-1.0, 2.0]}).select(S) == 1

    def test_matches_graph_agent_on_identical_q(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            qs = [float(q) for q in rng.normal(0, 3, size=2)]
            graph = SynapticAgent.deserialize({
                "kind": "synaptic", "kappa": 2, "alpha": 0.9, "gamma": 0.99, "c": 1.0,
                "neurons": [{"key": S_KEY, "value": max(qs), "fan_in": 0,
                             "synapses": [{"q": q, "target": None, "gate": "closed"}
                                          for q in qs]}],
            })
            assert table_with_rows({S_KEY: qs}).select(S) == graph.select(S)


class TestUpdate:
    def test_hand_value(self):
        agent = ensured(QTableAgent(init="zeros"), S, T)
        agent.update(S, 0, 1.0, T, False)
        assert agent.q_values(S)[0] == pytest.approx(0.9, abs=1e-15)

    def test_terminal_penalty(self):
        agent = ensured(table_with_rows({T_KEY: [5.0, 5.0]}), S)  # T ignored when terminal
        agent.update(S, 0, -10.0, T, True)
        assert agent.q_values(S)[0] == pytest.approx(-9.0, abs=1e-15)

    def test_alpha_one_reaches_fixed_point_in_one_step(self):
        agent = ensured(table_with_rows({T_KEY: [2.0, 7.0]}, alpha=1.0, gamma=0.5), S)
        agent.update(S, 1, 1.0, T, False)
        assert agent.q_values(S)[1] == pytest.approx(1.0 + 0.5 * 7.0)
        agent.update(S, 1, 1.0, T, False)
        assert agent.q_values(S)[1] == pytest.approx(4.5)

    def test_visit_counts(self):
        agent = ensured(QTableAgent(init="zeros"), S, T)
        for _ in range(3):
            agent.update(S, 0, 1.0, T, False)
        assert agent.serialize()["visits"] == {S_KEY: 3}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ensured(QTableAgent(init="zeros"), S, T).update(S, 0, float("-inf"), T, False)


class TestModes:
    def test_sparse_default_counts_visited(self):
        agent = QTableAgent(init="zeros")
        agent.ensure(cell_of("1_1_1_1_"))
        agent.ensure(cell_of("2_2_2_2_"))
        assert agent.stats().neurons == 2
        assert agent.stats().parameter_count == 8

    def test_optimistic_init_applies_to_new_rows(self):
        agent = QTableAgent(init="optimistic", gamma=0.99)
        agent.ensure(S)
        assert agent.q_values(S) == pytest.approx([100.0, 100.0])


def test_qtable_csv_layout():
    agent = QTableAgent(init="zeros")
    agent.ensure(cell_of("1_1_1_1_"))
    name, text = agent.value_table()
    lines = text.strip().split("\n")
    assert name == "qtable.csv"
    assert lines[0] == "state_key,action,q"
    assert lines[1] == "1_1_1_1_,0,0.0"


def test_stats_of_empty_table():
    stats = QTableAgent(init="zeros").stats()
    assert stats.neurons == 0
    assert stats.parameter_count == 0


def test_files_sort_rows_by_key_not_by_cell():
    """Cell 9_0_0_0_ packs below 10_0_0_0_, but its key sorts after it."""
    agent = QTableAgent(init="zeros")
    for key in ("9_0_0_0_", "10_0_0_0_"):
        agent.ensure(cell_of(key))
        agent.update(cell_of(key), 0, 1.0, cell_of(key), False)
    _, text = agent.value_table()
    assert [line.split(",")[0] for line in text.strip().split("\n")[1::2]] \
        == ["10_0_0_0_", "9_0_0_0_"]
    payload = agent.serialize()
    assert list(payload["rows"]) == list(payload["visits"]) == ["10_0_0_0_", "9_0_0_0_"]
    assert [node for node, _ in agent.snapshot().nodes] == ["10_0_0_0_", "9_0_0_0_"]


def test_dense_agent_file_loads_its_rows():
    """An agent.json of the retired dense mode, which held a row for every
    cell, loads as plain rows with the same values, visits and file order."""
    rows = {key: [float(i), -float(i)] for i, key in enumerate(["0_0_0_0_", "0_0_0_1_",
                                                                "1_1_1_1_", "2_2_2_2_"])}
    dense = QTableAgent.deserialize({
        "kind": "qtable", "kappa": 2, "alpha": 0.9, "gamma": 0.99,
        "dense": True, "n_bins": 10, "q_init": "zeros",
        "rows": rows, "visits": {S_KEY: 3},
    })
    sparse = table_with_rows(rows)
    for key, row in rows.items():
        assert dense.q_values(cell_of(key)) == sparse.q_values(cell_of(key)) == row
    assert dense.stats().neurons == 4
    assert dense.serialize()["visits"] == {S_KEY: 3}
    assert dense.value_table() == sparse.value_table()
    assert "dense" not in dense.serialize() and "n_bins" not in dense.serialize()
