"""Trainer tests: config validation, episode accounting, convergence
detection, multi-seed bands, and learning-free evaluation."""

import warnings

import numpy as np
import pytest

from bmu_lab.cartpole import CartPoleEnv
from bmu_lab.discretize import cell_of, unpack
from bmu_lab.runio import agent_state_hash, config_from_entries, format_config, parse_config_text
from bmu_lab.trainer import (
    ConfigError,
    TrainConfig,
    aggregate_curves,
    convergence_episode,
    evaluate,
    greedy_action,
    make_agent,
    multi_seed,
    run_episode,
    train,
)


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_gamma_domain(self):
        with pytest.raises(ConfigError, match="gamma"):
            TrainConfig(gamma=1.5).validate()
        with pytest.raises(ConfigError, match="gamma"):
            TrainConfig(gamma=0.0).validate()

    def test_alpha_domain(self):
        with pytest.raises(ConfigError, match="alpha"):
            TrainConfig(alpha=0.0).validate()

    def test_unattainable_convergence_reward(self):
        with pytest.raises(ConfigError, match="convergence_reward"):
            TrainConfig(convergence_reward=300.0, max_steps=250).validate()

    def test_agent_kind(self):
        with pytest.raises(ConfigError, match="agent"):
            TrainConfig(agent="dqn").validate()

    def test_kappa_must_match_the_two_cartpole_actions(self):
        for kappa in (1, 3):
            with pytest.raises(ConfigError, match="kappa"):
                TrainConfig(kappa=kappa).validate()

    def test_env_invariants_surface_by_key(self):
        with pytest.raises(ConfigError, match="max_steps"):
            TrainConfig(max_steps=150).validate()

    def test_kv_round_trip(self):
        config = TrainConfig(agent="bmu", seeds=(3, 1, 4), epsilon=0.25,
                             qtable_dense=True, max_episodes=42)
        parsed = config_from_entries(parse_config_text(format_config(config)))
        assert parsed == config

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_entries({"learning_rate": "0.5"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="gamma"):
            config_from_entries({"gamma": "abc"})

    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# header\n\nalpha = 0.5  # inline\n")
        assert entries == {"alpha": "0.5"}


class TestConvergenceDetector:
    def test_constant_success_converges_at_window(self):
        assert convergence_episode([250.0] * 30, 200.0, 20) == 20

    def test_alternating_never_converges(self):
        rewards = [250.0, 5.0] * 300
        assert convergence_episode(rewards, 200.0, 20) is None

    def test_single_dip_resets_streak(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rewards = [250.0] * 60
            dip = int(rng.integers(0, 40))
            rewards[dip] = 100.0
            # a dip inside the first window delays convergence past it;
            # a later dip arrives after the detector already fired
            expected = 20 if dip + 1 > 20 else dip + 1 + 20
            assert convergence_episode(rewards, 200.0, 20) == expected

    def test_threshold_inclusive(self):
        assert convergence_episode([200.0] * 20, 200.0, 20) == 20


class PdStub:
    """A hand controller on bin indices; survives to truncation and
    never learns, so episode accounting is easy to pin down."""

    def ensure(self, cell):
        return False

    def select(self, cell, forced=None):
        x, x_dot, theta, theta_dot = (b - 4.5 for b in unpack(cell))
        return 1 if (3.0 * theta + 1.2 * theta_dot + 0.05 * x + 0.4 * x_dot) > 0 else 0

    def update(self, *args, **kwargs):
        pass


STUB_CONFIG = TrainConfig(x_dot_bound=1.5, theta_dot_bound=1.5, theta_limit=0.2095)


class TestRunEpisode:
    def test_truncated_episode_reward_250(self):
        env = CartPoleEnv(STUB_CONFIG.env_params())
        record = run_episode(PdStub(), env, STUB_CONFIG, episode_seed=1)
        assert record.steps == 250
        assert record.total_reward == 250.0

    def test_terminating_episode_reward_accounting(self):
        config = TrainConfig()
        env = CartPoleEnv(config.env_params())
        agent = make_agent(config, np.random.default_rng(0))
        record = run_episode(agent, env, config, episode_seed=3)
        assert record.steps < 250  # an untrained agent fails quickly
        assert record.total_reward == (record.steps - 1) * 1.0 - 10.0

    def test_deterministic_record(self):
        def once():
            config = TrainConfig()
            env = CartPoleEnv(config.env_params())
            agent = make_agent(config, np.random.default_rng(0))
            rec = run_episode(agent, env, config, episode_seed=17)
            return rec.total_reward, rec.steps, rec.spawned

        assert once() == once()

    def test_spawn_accounting_matches_agent(self):
        config = TrainConfig()
        env = CartPoleEnv(config.env_params())
        agent = make_agent(config, np.random.default_rng(0))
        spawned = 0
        for episode_seed in range(5):
            spawned += run_episode(agent, env, config, episode_seed).spawned
        assert spawned == agent.stats().neurons


class TestTrain:
    def test_metrics_series_aligned(self):
        config = TrainConfig(agent="qtable", max_episodes=12)
        metrics = train(config, 0).metrics
        n = metrics.episodes_run
        assert n == 12
        for series in (metrics.rewards, metrics.moving_avg, metrics.moving_std,
                       metrics.neurons, metrics.avg_fan_in, metrics.parameters,
                       metrics.steps, metrics.spawned):
            assert len(series) == n

    def test_moving_average_uses_trailing_window(self):
        config = TrainConfig(agent="qtable", max_episodes=30, convergence_window=5)
        metrics = train(config, 1).metrics
        for e in range(metrics.episodes_run):
            window = metrics.rewards[max(0, e - 4):e + 1]
            assert metrics.moving_avg[e] == pytest.approx(np.mean(window))
            assert metrics.moving_std[e] == pytest.approx(np.std(window))

    def test_spawn_conservation_over_training(self):
        config = TrainConfig(max_episodes=15)
        result = train(config, 2)
        assert sum(result.metrics.spawned) == result.agent.stats().neurons

    def test_non_convergence_is_recorded_not_raised(self):
        config = TrainConfig(agent="qtable", q_init="zeros", max_episodes=10)
        metrics = train(config, 0).metrics
        assert metrics.converged is False
        assert metrics.episodes_to_convergence is None

    def test_snapshot_cadence(self):
        config = TrainConfig(max_episodes=10, snapshot_every=4)
        result = train(config, 0)
        assert sorted(result.snapshots) == [4, 8]

    def test_requested_snapshot_episodes(self):
        config = TrainConfig(max_episodes=6)
        result = train(config, 0, snapshot_episodes={2, 5})
        assert sorted(result.snapshots) == [2, 5]


class TestMultiSeed:
    def test_single_seed_band_width_zero(self):
        config = TrainConfig(agent="qtable", max_episodes=8, seeds=(0,))
        aggregate, _ = multi_seed(config)
        assert aggregate.lo_band == aggregate.mean == aggregate.hi_band

    def test_identical_seeds_band_width_zero(self):
        config = TrainConfig(agent="qtable", max_episodes=8, seeds=(4, 4, 4))
        aggregate, _ = multi_seed(config)
        np.testing.assert_allclose(aggregate.lo_band, aggregate.hi_band)

    def test_band_is_mean_plus_minus_two_sigma(self):
        config = TrainConfig(agent="qtable", max_episodes=10, seeds=(0, 1, 2))
        aggregate, results = multi_seed(config)
        curves = [r.metrics.moving_avg for r in results]
        length = max(len(c) for c in curves)
        padded = np.array([c + [c[-1]] * (length - len(c)) for c in curves])
        np.testing.assert_allclose(aggregate.mean, padded.mean(axis=0))
        np.testing.assert_allclose(aggregate.hi_band,
                                   padded.mean(axis=0) + 2 * padded.std(axis=0))

    def test_seed_isolation_under_permutation(self):
        config = TrainConfig(agent="qtable", max_episodes=8)
        _, forward = multi_seed(config.with_seeds((1, 2)))
        _, backward = multi_seed(config.with_seeds((2, 1)))
        by_seed_fwd = {r.metrics.seed: r.metrics.rewards for r in forward}
        by_seed_bwd = {r.metrics.seed: r.metrics.rewards for r in backward}
        assert by_seed_fwd == by_seed_bwd

    def test_padding_uses_final_value(self):
        mean, lo, hi = aggregate_curves([[1.0, 2.0], [3.0]])
        assert mean == [2.0, 2.5]
        assert hi[1] == pytest.approx(2.5 + 2 * 0.5)


class TestEvaluate:
    def _trained(self):
        config = TrainConfig(max_episodes=30)
        result = train(config, 0)
        return config, result.agent

    def test_learning_stays_disabled(self):
        config, agent = self._trained()
        before = agent_state_hash(agent)
        evaluate(agent, config, seed=9, n_episodes=3)
        assert agent_state_hash(agent) == before

    def test_repeat_evaluation_bit_identical(self):
        config, agent = self._trained()
        a = evaluate(agent, config, seed=5, n_episodes=2)
        b = evaluate(agent, config, seed=5, n_episodes=2)
        assert a.traces == b.traces
        assert a.rewards == b.rewards

    def test_trace_rows_equal_steps(self):
        config, agent = self._trained()
        report = evaluate(agent, config, seed=5, n_episodes=3)
        for trace, steps in zip(report.traces, report.steps):
            assert len(trace) == steps

    def test_unseen_state_falls_back_to_action_zero(self):
        config = TrainConfig()
        agent = make_agent(config, np.random.default_rng(0))
        assert greedy_action(agent, cell_of("0_0_0_0_")) == 0

    def test_zero_episodes_rejected_before_any_rollout(self):
        agent = make_agent(TrainConfig(), np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_episodes"):
                evaluate(agent, TrainConfig(), 0, 0)

    def test_summary_stats(self):
        config, agent = self._trained()
        report = evaluate(agent, config, seed=5, n_episodes=4)
        assert report.min_reward <= report.mean_reward <= report.max_reward


def test_stub_always_surviving_converges_at_window():
    """Window arithmetic through the full train loop with a balancing stub."""
    config = STUB_CONFIG
    env_rewards = []
    env = CartPoleEnv(config.env_params())
    stub = PdStub()
    seeder = np.random.default_rng(np.random.SeedSequence(0).spawn(3)[0])
    streak = 0
    for episode in range(1, 41):
        record = run_episode(stub, env, config, int(seeder.integers(0, 2 ** 63)))
        env_rewards.append(record.total_reward)
        streak = streak + 1 if record.total_reward >= 200.0 else 0
        if streak >= 20:
            break
    assert episode == 20
    assert convergence_episode(env_rewards, 200.0, 20) == 20
