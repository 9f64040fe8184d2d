"""Tabular baseline tests and its role as reference for the graph agent."""

import numpy as np
import pytest

from bmu_lab.qtable import QTableAgent
from bmu_lab.synaptic import SynapticAgent


def table_with_rows(rows, alpha=0.9, gamma=0.99):
    """A Q-table holding the given rows, loaded through agent.json."""
    return QTableAgent.deserialize({
        "kind": "qtable", "kappa": 2, "alpha": alpha, "gamma": gamma,
        "dense": False, "n_bins": 10, "q_init": "zeros",
        "rows": rows, "visits": {},
    })


class TestSelect:
    def test_unseen_state_reads_zero_and_ties_low(self):
        agent = QTableAgent()
        assert agent.select("9_9_9_9_") == 0
        assert agent.q_values("9_9_9_9_") == [0.0, 0.0]
        assert agent.stats().neurons == 0  # reading never inserts

    def test_argmax(self):
        assert table_with_rows({"s_": [-1.0, 2.0]}).select("s_") == 1

    def test_matches_graph_agent_on_identical_q(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            qs = [float(q) for q in rng.normal(0, 3, size=2)]
            graph = SynapticAgent.deserialize({
                "kind": "synaptic", "kappa": 2, "alpha": 0.9, "gamma": 0.99, "c": 1.0,
                "neurons": [{"key": "s_", "value": max(qs), "fan_in": 0,
                             "synapses": [{"q": q, "target": None, "gate": "closed"}
                                          for q in qs]}],
            })
            assert table_with_rows({"s_": qs}).select("s_") == graph.select("s_")


class TestUpdate:
    def test_hand_value(self):
        agent = QTableAgent()
        agent.update("s_", 0, 1.0, "t_", False)
        assert agent.q_values("s_")[0] == pytest.approx(0.9, abs=1e-15)

    def test_terminal_penalty(self):
        agent = table_with_rows({"t_": [5.0, 5.0]})  # must be ignored when terminal
        agent.update("s_", 0, -10.0, "t_", True)
        assert agent.q_values("s_")[0] == pytest.approx(-9.0, abs=1e-15)

    def test_alpha_one_reaches_fixed_point_in_one_step(self):
        agent = table_with_rows({"t_": [2.0, 7.0]}, alpha=1.0, gamma=0.5)
        agent.update("s_", 1, 1.0, "t_", False)
        assert agent.q_values("s_")[1] == pytest.approx(1.0 + 0.5 * 7.0)
        agent.update("s_", 1, 1.0, "t_", False)
        assert agent.q_values("s_")[1] == pytest.approx(4.5)

    def test_visit_counts(self):
        agent = QTableAgent()
        for _ in range(3):
            agent.update("s_", 0, 1.0, "t_", False)
        assert agent.serialize()["visits"] == {"s_": 3}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            QTableAgent().update("s_", 0, float("-inf"), "t_", False)


class TestModes:
    def test_dense_mode_full_grid(self):
        agent = QTableAgent(dense=True, n_bins=10)
        stats = agent.stats()
        assert stats.neurons == 10_000
        assert stats.parameter_count == 40_000
        assert stats.avg_fan_in is None
        assert stats.edges is None

    def test_sparse_default_counts_visited(self):
        agent = QTableAgent()
        agent.ensure("1_1_1_1_")
        agent.ensure("2_2_2_2_")
        assert agent.stats().neurons == 2
        assert agent.stats().parameter_count == 8

    def test_dense_ensure_never_spawns(self):
        agent = QTableAgent(dense=True)
        assert agent.ensure("5_5_5_5_") is False

    def test_optimistic_init_applies_to_new_rows(self):
        agent = QTableAgent(q_init="optimistic", gamma=0.99)
        agent.ensure("s_")
        assert agent.q_values("s_") == pytest.approx([100.0, 100.0])


def test_qtable_csv_layout():
    agent = QTableAgent()
    agent.ensure("1_1_1_1_")
    name, text = agent.value_table()
    lines = text.strip().split("\n")
    assert name == "qtable.csv"
    assert lines[0] == "state_key,action,q"
    assert lines[1] == "1_1_1_1_,0,0.0"


def test_stats_of_empty_table():
    stats = QTableAgent().stats()
    assert stats.neurons == 0
    assert stats.parameter_count == 0
