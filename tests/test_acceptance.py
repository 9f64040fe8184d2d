"""Acceptance suite: every promised behavior at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one printed
PASS line per criterion; a failed assertion marks the criterion FAIL.
"""

import time

import numpy as np
import pytest

from bmu_lab.bmu import BmuAgent, PoolAgent
from bmu_lab.discretize import cell_of, pack
from bmu_lab.metrics import degree_distribution
from bmu_lab.qtable import QTableAgent
from bmu_lab.runio import execute_train_run
from bmu_lab.synaptic import SynapticAgent, gamma_to_tau, synaptic_filter
from bmu_lab.trainer import TrainConfig, train

SEEDS = tuple(range(10))


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="session")
def default_runs():
    """Ten seeded synaptic training runs with package defaults."""
    config = TrainConfig(agent="synaptic", max_episodes=600)
    started = time.perf_counter()
    results = [train(config, seed) for seed in SEEDS]
    elapsed = time.perf_counter() - started
    return results, elapsed


@pytest.fixture(scope="session")
def converged_bmu_run():
    """An ensemble-per-state run trained to convergence."""
    config = TrainConfig(agent="bmu", encoder_init="optimistic", max_episodes=600)
    result = train(config, 0)
    assert result.metrics.converged
    return result


def matched_zero_agents():
    return [
        SynapticAgent(kappa=2, alpha=0.9, gamma=0.99, q_init="zeros"),
        BmuAgent(b=2, d=1, alpha=0.9, gamma=0.99,
                 rng=np.random.default_rng(0), encoder_init="zeros"),
        PoolAgent(capacity=128, n_actions=2, alpha=0.9, gamma=0.99),
        QTableAgent(kappa=2, alpha=0.9, gamma=0.99),
    ]


def drive(agent, s, action, reward, s2, terminal):
    agent.ensure(s)
    agent.ensure(s2)
    agent.select(s, forced=action)
    agent.update(s, action, reward, s2, terminal)
    return agent.q_values(s)[action]


def test_oracle_equivalence_across_agents():
    """All four containers run the same fixed-point iteration: one shared
    transition stream yields identical Q sequences to 1e-12."""
    rng = np.random.default_rng(2024)
    keys = [cell_of(f"{i % 10}_{(i // 10) % 10}_{i % 7}_{i % 5}_") for i in range(60)]
    agents = matched_zero_agents()
    worst = 0.0
    for _ in range(10_000):
        s = keys[rng.integers(len(keys))]
        s2 = keys[rng.integers(len(keys))]
        action = int(rng.integers(2))
        terminal = bool(rng.uniform() < 0.04)
        reward = -10.0 if terminal else 1.0
        values = [drive(agent, s, action, reward, s2, terminal) for agent in agents]
        spread = max(values) - min(values)
        worst = max(worst, spread)
        assert spread <= 1e-12
    assert worst <= 1e-12
    report(f"oracle equivalence over 10000 transitions (max spread {worst:.2e})")


MDP_NEXT = {"A": ["B", "C"],
            "B": ["A", "C"],
            "C": ["C", "A"]}
MDP_REWARD = {"A": [1.0, 0.0],
              "B": [-1.0, 2.0],
              "C": [0.5, -0.5]}
# the agents' cell id of each MDP state
MDP_CELL = {state: pack((i, 0, 0, 0)) for i, state in enumerate(MDP_NEXT)}


def solve_q_star(gamma, tol=1e-13):
    """Independent value-iteration oracle for the frozen 3-state MDP."""
    q = {s: [0.0, 0.0] for s in MDP_NEXT}
    for _ in range(100_000):
        delta = 0.0
        new = {}
        for s in q:
            new[s] = [
                MDP_REWARD[s][a] + gamma * max(q[MDP_NEXT[s][a]])
                for a in (0, 1)
            ]
            delta = max(delta, max(abs(new[s][a] - q[s][a]) for a in (0, 1)))
        q = new
        if delta < tol:
            return q
    raise AssertionError("value iteration failed to converge")


def test_bellman_fixed_point():
    """Sweep-trained Q values reach the analytic Q* within 1e-6."""
    gamma, alpha = 0.9, 0.9
    q_star = solve_q_star(gamma)
    agents = [
        SynapticAgent(kappa=2, alpha=alpha, gamma=gamma, q_init="zeros"),
        BmuAgent(b=2, d=1, alpha=alpha, gamma=gamma,
                 rng=np.random.default_rng(1), encoder_init="zeros"),
        PoolAgent(capacity=8, n_actions=2, alpha=alpha, gamma=gamma),
        QTableAgent(kappa=2, alpha=alpha, gamma=gamma),
    ]
    started = time.perf_counter()
    for agent in agents:
        for state in MDP_NEXT:
            agent.ensure(MDP_CELL[state])
        for _ in range(500):
            for state in MDP_NEXT:
                for action in (0, 1):
                    agent.select(MDP_CELL[state], forced=action)
                    agent.update(MDP_CELL[state], action, MDP_REWARD[state][action],
                                 MDP_CELL[MDP_NEXT[state][action]], False)
        for state in MDP_NEXT:
            got = agent.q_values(MDP_CELL[state])
            for action in (0, 1):
                assert abs(got[action] - q_star[state][action]) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"Bellman fixed point vs value iteration ({elapsed:.2f}s)")


def test_discount_kernel_identity():
    """Unit impulse filtered one step later returns exactly gamma."""
    rng = np.random.default_rng(99)
    for gamma in rng.uniform(1e-4, 1 - 1e-4, size=100):
        tau = gamma_to_tau(float(gamma))
        lag_one = synaptic_filter([1.0, 0.0], tau, 1)
        assert abs(lag_one - gamma) <= 1e-12
    report("discount-kernel identity for 100 random gammas")


def test_convergence_reproduction(default_runs):
    """At least 7 of 10 default-config seeds meet the reward criterion
    (20 consecutive episodes at >= 200) within 600 episodes."""
    results, elapsed = default_runs
    episodes = [r.metrics.episodes_to_convergence for r in results]
    converged = sum(1 for e in episodes if e is not None)
    assert converged >= 7, f"only {converged}/10 converged: {episodes}"
    assert all(e <= 600 for e in episodes if e is not None)
    assert elapsed < 300.0
    med = int(np.median([e for e in episodes if e is not None]))
    report(f"convergence reproduction ({converged}/10 seeds, median episode "
           f"{med}, {elapsed:.0f}s)")


def test_topology_saturation(default_runs):
    """Converged runs: neuron growth <= 5% over the final 50 episodes,
    final count in [100, 600], average fan-in in [1, 8]."""
    results, _ = default_runs
    converged = [r for r in results if r.metrics.converged]
    assert converged
    for result in converged:
        counts = result.metrics.neurons
        tail = counts[-min(50, len(counts)):]
        growth = (tail[-1] - tail[0]) / tail[0]
        assert growth <= 0.05, f"late neuron growth {growth:.3f} exceeds 5%"
        assert 100 <= counts[-1] <= 600, f"final neuron count {counts[-1]}"
        fan_in = result.metrics.avg_fan_in[-1]
        assert 1.0 <= fan_in <= 8.0, f"average fan-in {fan_in}"
    report(f"topology saturation on {len(converged)} converged runs")


def test_parameter_bookkeeping(default_runs):
    """params = neurons x 4 for kappa=2 agents; 40000 for the dense table."""
    results, _ = default_runs
    for result in results:
        stats = result.agent.stats()
        assert stats.parameter_count == stats.neurons * 4
    dense = QTableAgent(kappa=2, dense=True, n_bins=10)
    assert dense.stats().parameter_count == 40_000
    assert dense.stats().neurons == 10_000
    report("parameter bookkeeping (neurons x 4; dense table 40000)")


def test_degree_handshake(default_runs, converged_bmu_run):
    """Sum of degrees equals twice the edge count on every snapshot; the
    converged ensemble run's average degree sits in the sanity band."""
    results, _ = default_runs
    snapshots = [r.agent.snapshot() for r in results]
    snapshots.append(converged_bmu_run.agent.snapshot())
    for snapshot in snapshots:
        hist = degree_distribution(snapshot)
        assert sum(d * c for d, c in hist.counts.items()) == 2 * hist.edges
    bmu_hist = degree_distribution(converged_bmu_run.agent.snapshot())
    assert bmu_hist.max_degree >= bmu_hist.average
    assert 1.5 <= bmu_hist.average <= 8.0
    report(f"degree handshake on {len(snapshots)} snapshots "
           f"(ensemble-run avg degree {bmu_hist.average:.3f})")


def test_converged_agent_clears_eval_bar(default_runs):
    """The convergence bar re-applied at evaluation: a converged agent's
    mean greedy-rollout reward stays at or above 200."""
    from bmu_lab.trainer import evaluate

    results, _ = default_runs
    converged = next(r for r in results if r.metrics.converged)
    config = TrainConfig(agent="synaptic", max_episodes=600)
    eval_report = evaluate(converged.agent, config, seed=0, n_episodes=5)
    assert eval_report.mean_reward >= 200.0
    report(f"evaluation bar (mean greedy reward {eval_report.mean_reward:.1f})")


def test_determinism_of_rewards_csv(tmp_path):
    """Identical config and seed reproduce rewards.csv bit-for-bit."""
    config = TrainConfig(agent="synaptic", max_episodes=25, seeds=(3,))
    execute_train_run(config, tmp_path / "a")
    execute_train_run(config, tmp_path / "b")
    first = (tmp_path / "a" / "seed3" / "rewards.csv").read_bytes()
    second = (tmp_path / "b" / "seed3" / "rewards.csv").read_bytes()
    assert first == second
    report("bit-identical rewards.csv across invocations")
