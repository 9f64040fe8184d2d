"""Degree distribution and summary table tests."""

import numpy as np
import pytest

from bmu_lab.core import parameter_count
from bmu_lab.graphio import GraphSnapshot
from bmu_lab.metrics import degree_distribution, degree_hist_csv, summary_table


def snap_from(nodes, edges):
    snap = GraphSnapshot()
    snap.nodes = [(n, {}) for n in nodes]
    snap.edges = [(s, t, {}) for s, t in edges]
    return snap


class TestDegreeDistribution:
    def test_single_edge_pair(self):
        hist = degree_distribution(snap_from(["a", "b"], [("a", "b")]))
        assert hist.counts == {1: 2}
        assert hist.average == 1.0
        assert hist.max_degree == 1

    def test_self_loop_counts_twice(self):
        hist = degree_distribution(snap_from(["a"], [("a", "a")]))
        assert hist.counts == {2: 1}
        assert hist.max_degree == 2

    def test_handshake_identity_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            nodes = [f"n{i}" for i in range(n)]
            edges = [
                (nodes[rng.integers(n)], nodes[rng.integers(n)])
                for _ in range(int(rng.integers(0, 60)))
            ]
            hist = degree_distribution(snap_from(nodes, edges))
            assert sum(d * c for d, c in hist.counts.items()) == 2 * hist.edges
            assert sum(hist.counts.values()) == hist.nodes

    def test_permutation_invariance(self):
        nodes = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "d")]
        base = degree_distribution(snap_from(nodes, edges))
        rng = np.random.default_rng(5)
        for _ in range(10):
            perm = {n: f"x{i}" for i, n in enumerate(rng.permutation(nodes))}
            renamed = degree_distribution(
                snap_from([perm[n] for n in nodes],
                          [(perm[s], perm[t]) for s, t in edges])
            )
            assert renamed.counts == base.counts

    def test_empty_graph(self):
        hist = degree_distribution(snap_from([], []))
        assert hist.average == 0.0
        assert hist.max_degree == 0

    def test_csv_layout(self):
        hist = degree_distribution(snap_from(["a", "b"], [("a", "b")]))
        assert degree_hist_csv(hist) == "degree,count\n1,2\n"


class TestSummaryTable:
    def test_rows_and_na_cells(self):
        rows = [
            {"agent": "synaptic", "init": "optimistic", "episodes_to_convergence": 250,
             "neurons": 250, "avg_fan_in": 1.6, "parameters": 1000, "failed": 0},
            {"agent": "qtable", "init": "zeros", "episodes_to_convergence": None,
             "neurons": 10000, "avg_fan_in": None, "parameters": 40000, "failed": 1},
        ]
        csv_text, aligned = summary_table(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == ("agent,init,episodes_to_convergence,neurons,avg_fan_in,"
                            "parameters,failed")
        assert lines[1] == "synaptic,optimistic,250,250,1.6,1000,0"
        assert lines[2] == "qtable,zeros,n/a,10000,n/a,40000,1"
        assert "n/a" in aligned

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_table([])


def test_parameter_convention():
    assert parameter_count(250) == 1000
    assert parameter_count(10_000) == 40_000
