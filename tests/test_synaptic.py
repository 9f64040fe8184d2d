"""Graph agent tests: spawn/select/connect/update semantics, gate rules,
the discount kernel, and equivalence with a plain tabular learner."""

import math

import numpy as np
import pytest

from bmu_lab.discretize import cell_of, pack
from bmu_lab.synaptic import (
    SynapticAgent,
    gamma_to_tau,
    optimistic_q,
    synaptic_filter,
    tau_to_gamma,
)


# agents take cell ids; agent.json and snapshots name the same states by key
A_KEY, B_KEY, C_KEY, Z_KEY = "1_0_0_0_", "2_0_0_0_", "3_0_0_0_", "0_0_0_9_"
A, B, C, Z = (cell_of(key) for key in (A_KEY, B_KEY, C_KEY, Z_KEY))


def zero_agent(kappa=2, gamma=0.99, alpha=0.9):
    return SynapticAgent(kappa=kappa, alpha=alpha, gamma=gamma, q_init="zeros")


def agent_with_q(rows, alpha=0.9):
    """An agent whose neurons hold the given Q rows, loaded through agent.json."""
    return SynapticAgent.deserialize({
        "kind": "synaptic", "kappa": len(next(iter(rows.values()))),
        "alpha": alpha, "gamma": 0.99, "c": 1.0,
        "neurons": [
            {"key": key, "value": max(qs), "fan_in": 0,
             "synapses": [{"q": q, "target": None, "gate": "closed"} for q in qs]}
            for key, qs in rows.items()
        ],
    })


def gates(agent, key):
    neuron = next(n for n in agent.serialize()["neurons"] if n["key"] == key)
    return [syn["gate"] for syn in neuron["synapses"]]


def node_attrs(agent, key):
    return dict(agent.snapshot().nodes)[key]


class TestSpawn:
    def test_fresh_neuron_zero_init(self):
        agent = zero_agent()
        assert agent.ensure(cell_of("5_5_5_5_")) is True
        assert agent.q_values(cell_of("5_5_5_5_")) == [0.0, 0.0]
        assert node_attrs(agent, "5_5_5_5_") == {"value": 0.0, "fan_in": 0}
        assert gates(agent, "5_5_5_5_") == ["closed", "closed"]

    def test_duplicate_key_rejected(self):
        agent = zero_agent()
        agent.ensure(cell_of("5_5_5_5_"))
        assert agent.ensure(cell_of("5_5_5_5_")) is False
        assert agent.stats().neurons == 1

    def test_three_spawns_no_edges(self):
        agent = zero_agent()
        for key in ("1_1_1_1_", "2_2_2_2_", "3_3_3_3_"):
            agent.ensure(cell_of(key))
        stats = agent.stats()
        assert stats.neurons == 3
        assert stats.edges == 0

    def test_optimistic_init_is_reward_fixed_point(self):
        agent = SynapticAgent(gamma=0.99, q_init="optimistic")
        agent.ensure(cell_of("5_5_5_5_"))
        agent.ensure(cell_of("6_6_6_6_"))
        assert node_attrs(agent, "5_5_5_5_")["value"] == optimistic_q(1.0, 0.99) \
            == pytest.approx(100.0)
        # one step into a fresh state keeps the optimistic value in place
        agent.select(cell_of("5_5_5_5_"), forced=0)
        agent.update(cell_of("5_5_5_5_"), 0, 1.0, cell_of("6_6_6_6_"), False)
        assert agent.q_values(cell_of("5_5_5_5_"))[0] == pytest.approx(100.0)

    def test_tau_attached_to_synapses(self):
        assert zero_agent(gamma=0.9).tau == pytest.approx(gamma_to_tau(0.9))


class TestForwardSelect:
    def test_direct_argmax(self):
        agent = agent_with_q({A_KEY: [0.9, 0.3]})
        assert agent.select(A) == 0
        assert gates(agent, A_KEY) == ["open", "closed"]

    def test_tie_breaks_to_lowest_index(self):
        agent = zero_agent()
        agent.ensure(A)
        assert agent.select(A) == 0

    def test_negative_q_selection_unaffected_by_clamp(self):
        # selection sees the raw Q values, negative ones included
        agent = agent_with_q({A_KEY: [-10.0, -8.9]})
        assert agent.select(A) == 1

    def test_gate_opens_exactly_one(self):
        agent = zero_agent(kappa=3)
        agent.ensure(A)
        agent.select(A)
        assert gates(agent, A_KEY) == ["open", "closed", "closed"]

    def test_select_with_open_gate_rejected(self):
        agent = zero_agent()
        agent.ensure(A)
        agent.select(A)
        with pytest.raises(ValueError, match="open"):
            agent.select(A)

    def test_argmax_fidelity_over_random_vectors(self):
        """The selected synapse is always the first one with the highest Q."""
        rng = np.random.default_rng(42)
        for trial in range(2000):
            qs = rng.normal(0, 5, size=4)
            if trial % 5 == 0:
                qs = np.round(qs)  # force ties regularly
            agent = agent_with_q({A_KEY: [float(q) for q in qs]})
            assert agent.select(A) == int(np.argmax(qs))


class TestConnect:
    def _pair(self):
        agent = zero_agent()
        agent.ensure(A)
        agent.ensure(B)
        return agent

    def _step(self, agent, source, action, target):
        agent.select(source, forced=action)
        agent.update(source, action, 1.0, target, False)

    def test_first_edge(self):
        agent = self._pair()
        self._step(agent, A, 0, B)
        assert node_attrs(agent, B_KEY)["fan_in"] == 1
        assert agent.stats().edges == 1

    def test_duplicate_edge_idempotent(self):
        agent = self._pair()
        self._step(agent, A, 0, B)
        self._step(agent, A, 0, B)
        assert node_attrs(agent, B_KEY)["fan_in"] == 1
        assert agent.stats().edges == 1

    def test_repoint_moves_fan_in(self):
        agent = self._pair()
        agent.ensure(C)
        self._step(agent, A, 0, B)
        self._step(agent, A, 0, C)
        assert node_attrs(agent, B_KEY)["fan_in"] == 0
        assert node_attrs(agent, C_KEY)["fan_in"] == 1
        assert agent.stats().edges == 1

    def test_closed_gate_rejected(self):
        agent = self._pair()
        with pytest.raises(ValueError, match="closed"):
            agent.update(A, 0, 1.0, B, False)
        assert agent.stats().edges == 0


class TestBellmanUpdate:
    def _update(self, agent, action, reward, terminal=False):
        agent.ensure(A)
        agent.ensure(Z)  # a fresh zero-valued successor
        agent.select(A, forced=action)
        agent.update(A, action, reward, Z, terminal)
        return agent.q_values(A)[action], node_attrs(agent, A_KEY)["value"]

    def test_hand_value_positive_reward(self):
        q, v = self._update(zero_agent(), 0, 1.0)
        assert q == pytest.approx(0.9, abs=1e-15)
        assert v == pytest.approx(0.9, abs=1e-15)

    def test_hand_value_failure_penalty(self):
        q, v = self._update(zero_agent(), 0, -10.0, terminal=True)
        assert q == pytest.approx(-9.0, abs=1e-15)
        assert v == 0.0  # the untouched action shields the value function

    def test_zero_alpha_is_identity(self):
        agent = agent_with_q({A_KEY: [0.37, 0.0], Z_KEY: [-5.0, -5.0]}, alpha=0.0)
        q, _ = self._update(agent, 0, 123.0)
        assert q == 0.37

    def test_gate_closes_after_update(self):
        agent = zero_agent()
        self._update(agent, 1, 1.0)
        assert gates(agent, A_KEY) == ["closed", "closed"]

    def test_closed_gate_rejected(self):
        agent = zero_agent()
        agent.ensure(A)
        agent.select(A, forced=1)
        with pytest.raises(ValueError, match="closed"):
            agent.update(A, 0, 1.0, A, False)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            self._update(zero_agent(), 0, float("nan"))

    def test_value_is_max_over_synapses(self):
        rng = np.random.default_rng(3)
        agent = zero_agent(kappa=3)
        keys = [A, B]
        for key in keys:
            agent.ensure(key)
        for _ in range(200):
            j = int(rng.integers(3))
            agent.select(A, forced=j)
            agent.update(A, j, float(rng.normal()), keys[rng.integers(2)],
                         bool(rng.uniform() < 0.2))
            assert node_attrs(agent, A_KEY)["value"] == max(agent.q_values(A))


class TestDiscountKernel:
    def test_tau_of_099(self):
        assert gamma_to_tau(0.99) == pytest.approx(99.49916247342207, rel=1e-12)

    def test_exact_inverse_point(self):
        assert gamma_to_tau(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for gamma in rng.uniform(1e-6, 1 - 1e-6, size=200):
            assert tau_to_gamma(gamma_to_tau(gamma)) == pytest.approx(gamma, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                gamma_to_tau(bad)
        with pytest.raises(ValueError):
            tau_to_gamma(0.0)

    def test_unit_impulse_lag_one_equals_gamma(self):
        tau = gamma_to_tau(0.99)
        assert synaptic_filter([1.0, 0.0], tau, 1) == pytest.approx(0.99, abs=1e-12)

    def test_zero_lag_kernel_value(self):
        assert synaptic_filter([1.0], 5.0, 0) == 1.0

    def test_two_impulses_match_direct_sum(self):
        tau = gamma_to_tau(0.99)
        got = synaptic_filter([1.0, 1.0, 0.0], tau, 2)
        assert got == pytest.approx(math.exp(-2 / tau) + math.exp(-1 / tau), abs=1e-15)

    def test_random_trains_match_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            train = list(rng.uniform(-1, 2, size=rng.integers(1, 30)))
            tau = float(rng.uniform(0.2, 50))
            t = int(rng.integers(0, len(train)))
            brute = sum(train[x] * math.exp(-(t - x) / tau) for x in range(t + 1))
            assert synaptic_filter(train, tau, t) == pytest.approx(brute, rel=1e-12)

    def test_filter_argument_validation(self):
        with pytest.raises(ValueError):
            synaptic_filter([1.0], -1.0, 0)
        with pytest.raises(ValueError):
            synaptic_filter([1.0], 1.0, 3)


class TestNetworkStats:
    def test_parameter_convention_matches_table(self):
        agent = zero_agent()
        for i in range(250):
            agent.ensure(pack((i, 0, 0, 0)))
        assert agent.stats().parameter_count == 1000

    def test_dense_table_scale_consistency(self):
        # the same convention over the full 10^4-state grid
        assert 10_000 * (2 + 2) == 40_000

    def test_single_neuron_zero_fan_in(self):
        agent = zero_agent()
        agent.ensure(A)
        stats = agent.stats()
        assert stats.avg_fan_in == 0.0
        assert stats.neurons == 1

    def test_empty_graph_zeros(self):
        stats = zero_agent().stats()
        assert (stats.neurons, stats.edges, stats.avg_fan_in, stats.parameter_count) \
            == (0, 0, 0.0, 0)


class PlainTabular:
    """Independent reference learner used as the oracle."""

    def __init__(self, kappa, alpha, gamma):
        self.q = {}
        self.kappa, self.alpha, self.gamma = kappa, alpha, gamma

    def row(self, key):
        return self.q.setdefault(key, [0.0] * self.kappa)

    def update(self, key, action, reward, next_key, terminal):
        row = self.row(key)
        v_next = 0.0 if terminal else max(self.row(next_key))
        row[action] += self.alpha * (-row[action] + reward + self.gamma * v_next)


def random_stream(n, n_keys=40, seed=0):
    rng = np.random.default_rng(seed)
    keys = [pack((i, i, i, i)) for i in range(n_keys)]
    stream = []
    for _ in range(n):
        s = keys[rng.integers(n_keys)]
        s2 = keys[rng.integers(n_keys)]
        action = int(rng.integers(2))
        terminal = bool(rng.uniform() < 0.05)
        reward = -10.0 if terminal else 1.0
        stream.append((s, action, reward, s2, terminal))
    return stream


def test_trajectory_oracle_equivalence():
    """The graph machinery is semantically a plain tabular learner."""
    agent = SynapticAgent(kappa=2, alpha=0.9, gamma=0.99, q_init="zeros")
    oracle = PlainTabular(2, 0.9, 0.99)
    for s, action, reward, s2, terminal in random_stream(3000, seed=5):
        agent.ensure(s)
        agent.ensure(s2)
        agent.select(s, forced=action)
        agent.update(s, action, reward, s2, terminal)
        oracle.update(s, action, reward, s2, terminal)
        assert abs(agent.q_values(s)[action] - oracle.row(s)[action]) <= 1e-12


def test_topology_counts_non_decreasing():
    agent = SynapticAgent(q_init="zeros")
    last_neurons = last_edges = 0
    for s, action, reward, s2, terminal in random_stream(1500, seed=9):
        agent.ensure(s)
        agent.ensure(s2)
        agent.select(s, forced=action)
        agent.update(s, action, reward, s2, terminal)
        stats = agent.stats()
        assert stats.neurons >= last_neurons
        assert stats.edges >= last_edges
        last_neurons, last_edges = stats.neurons, stats.edges


def test_fan_in_matches_edge_list_recount():
    """Incremental fan-in bookkeeping agrees with a from-scratch recount."""
    agent = SynapticAgent(q_init="zeros")
    for s, action, reward, s2, terminal in random_stream(1200, seed=21):
        agent.ensure(s)
        agent.ensure(s2)
        agent.select(s, forced=action)
        agent.update(s, action, reward, s2, terminal)
    snapshot = agent.snapshot()
    recount = {key: 0 for key in snapshot.node_ids()}
    for _, target, _ in snapshot.edges:
        recount[target] += 1
    assert {key: attrs["fan_in"] for key, attrs in snapshot.nodes} == recount
    assert agent.stats().avg_fan_in == sum(recount.values()) / len(recount)


def test_snapshot_carries_node_and_edge_attributes():
    agent = SynapticAgent(q_init="zeros")
    agent.ensure(cell_of("1_1_1_1_"))
    agent.ensure(cell_of("2_2_2_2_"))
    agent.select(cell_of("1_1_1_1_"), forced=1)
    agent.update(cell_of("1_1_1_1_"), 1, 1.0, cell_of("2_2_2_2_"), False)
    snap = agent.snapshot()
    assert [n for n, _ in snap.nodes] == ["1_1_1_1_", "2_2_2_2_"]
    (source, target, attrs), = snap.edges
    assert (source, target) == ("1_1_1_1_", "2_2_2_2_")
    assert attrs["action"] == 1
    assert attrs["gate"] == "closed"
    assert attrs["q"] == pytest.approx(0.9)

