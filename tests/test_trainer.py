"""Trainer tests: config validation, episode accounting, convergence
detection, multi-seed bands, and learning-free evaluation."""

import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bmu_lab import streams, trainer
from bmu_lab.cartpole import RESET_SPREAD, CartPoleEnv
from bmu_lab.config import (
    AGENT_CLASSES,
    AGENT_KINDS,
    RETIRED_KEYS,
    ConfigError,
    TrainConfig,
    config_from_entries,
    format_config,
    parse_config_text,
)
from bmu_lab.core import INIT_MODES
from bmu_lab.discretize import LOWER, UPPER, cell_of, key_of
from bmu_lab.runio import agent_state_hash, save_agent, seed_summary
from bmu_lab.streams import (AGENT_ROWS, BLOCK, Exploration, initial_states, mean_std,
                             seed_stream)
from bmu_lab.trainer import (
    EvalReport,
    aggregate_curves,
    evaluate,
    greedy_action,
    make_agent,
    multi_seed,
    run_episode,
    train,
)


@st.composite
def valid_configs(draw):
    """Any `TrainConfig` that `validate` accepts: a real field draws floats
    over its whole domain or, from `ints`, the ints inside it."""
    def floats(ints=st.nothing(), **bounds):
        return st.one_of(st.floats(allow_nan=False, allow_infinity=False, **bounds), ints)

    return TrainConfig(
        agent=draw(st.sampled_from(AGENT_KINDS)),
        gamma=draw(floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        alpha=draw(floats(st.just(1), min_value=0.0, max_value=1.0, exclude_min=True)),
        n_bins=draw(st.integers(2, 65536)),
        convergence_reward=draw(floats(st.integers(-10 ** 6, 250), max_value=250.0)),
        convergence_window=draw(st.integers(1, 10 ** 6)),
        max_episodes=draw(st.integers(1, 10 ** 6)),
        seeds=tuple(draw(st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=4,
                                  unique=True))),
        epsilon=draw(floats(st.integers(0, 1), min_value=0.0, max_value=1.0)),
        epsilon_decay=draw(floats(st.just(1), min_value=0.0, max_value=1.0, exclude_min=True)),
        snapshot_every=draw(st.integers(0, 10 ** 6)),
        init=draw(st.sampled_from(INIT_MODES)),
        pool_capacity=draw(st.integers(1, 10 ** 6)),
    )


def _nan_or(*strategies):
    return st.one_of(st.just(math.nan), *strategies)


# values of the wrong type: an integer field takes no float (not even a
# whole one, NaN or inf) and no bool, a real field no bool and no text
NOT_INT = st.one_of(st.floats(), st.booleans(), st.text(), st.none())
NOT_REAL = st.one_of(st.booleans(), st.text(), st.none(), st.complex_numbers())
NOT_TEXT = st.one_of(st.integers(), st.floats(), st.none())

# every field's values outside its domain, spelled out independently of the
# declarations: NaN for every real field, inf where no bracket closes on it
OUT_OF_DOMAIN = {
    "agent": st.one_of(st.text().filter(lambda s: s not in AGENT_KINDS), NOT_TEXT),
    "gamma": _nan_or(st.floats(max_value=0.0), st.floats(min_value=1.0), NOT_REAL),
    "alpha": _nan_or(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                     NOT_REAL),
    "n_bins": st.one_of(st.integers(max_value=1), st.integers(min_value=65537), NOT_INT),
    # above the return of an episode that survives all 250 steps
    "convergence_reward": _nan_or(st.sampled_from([math.inf, -math.inf]),
                                  st.floats(min_value=250.0, exclude_min=True), NOT_REAL),
    "convergence_window": st.one_of(st.integers(max_value=0), NOT_INT),
    "max_episodes": st.one_of(st.integers(max_value=0), NOT_INT),
    "seeds": st.one_of(
        st.lists(st.integers(-2 ** 63, 2 ** 63), max_size=4).filter(
            lambda s: not s or min(s) < 0 or len(set(s)) < len(s)),
        st.lists(st.one_of(st.floats(), st.booleans()), min_size=1, max_size=4),
    ).map(tuple),
    "epsilon": _nan_or(st.floats(max_value=0.0, exclude_max=True),
                       st.floats(min_value=1.0, exclude_min=True), NOT_REAL),
    "epsilon_decay": _nan_or(st.floats(max_value=0.0),
                             st.floats(min_value=1.0, exclude_min=True), NOT_REAL),
    "snapshot_every": st.one_of(st.integers(max_value=-1), NOT_INT),
    "init": st.one_of(st.text().filter(lambda s: s not in INIT_MODES), NOT_TEXT),
    "pool_capacity": st.one_of(st.integers(max_value=0), NOT_INT),
}

# the settings that became constants, spelled out independently of runio's
# table, each with the one value an older config file may still give it
RETIRED = {"kappa": 2, "max_steps": 250, "theta_limit": 0.2095, "x_limit": 2.4,
           "x_bin_bound": 6.0, "x_dot_bound": 11.0, "theta_dot_bound": 7.0,
           "step_reward": 1.0, "fail_reward": -10.0, "qtable_dense": False}


def check_value(key, value):
    """Validate `value` for `key`. A retired key can come only from a config
    file, so it goes through the file's entries; the values its old domain
    refused are refused still."""
    if key in RETIRED:
        config_from_entries({key: repr(value)})
    else:
        replace(TrainConfig(), **{key: value}).validate()


# the nearest values outside each end of each interval; for a retired key,
# the ends of the domain it had before it became a constant
ABOVE_1 = math.nextafter(1.0, 2.0)
JUST_OUTSIDE = [
    ("gamma", 0.0), ("gamma", 1.0), ("alpha", 0.0), ("alpha", ABOVE_1),
    ("n_bins", 1), ("n_bins", 65537), ("max_steps", 199), ("convergence_window", 0),
    ("max_episodes", 0), ("epsilon", math.nextafter(0.0, -1.0)), ("epsilon", ABOVE_1),
    ("epsilon_decay", 0.0), ("epsilon_decay", ABOVE_1), ("snapshot_every", -1),
    ("pool_capacity", 0), ("theta_limit", 0.0), ("theta_limit", math.inf),
    ("x_limit", -0.0), ("x_bin_bound", 0.0), ("x_bin_bound", math.inf),
    ("x_dot_bound", 0.0), ("x_dot_bound", math.inf), ("theta_dot_bound", 0.0),
    ("theta_dot_bound", math.inf), ("convergence_reward", -math.inf),
    ("convergence_reward", math.nextafter(250.0, math.inf)),
    ("step_reward", math.inf), ("fail_reward", -math.inf),
]


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
            TrainConfig(convergence_reward=300.0).validate()

    def test_agent_kind(self):
        with pytest.raises(ConfigError, match="agent"):
            TrainConfig(agent="dqn").validate()

    def test_kappa_must_match_the_two_cartpole_actions(self):
        # kappa is no field; older config files spell it, and only 2 parses
        for kappa in ("1", "3", "2.0"):
            with pytest.raises(ConfigError, match="kappa"):
                config_from_entries({"kappa": kappa})
        assert config_from_entries({"kappa": "2"}) == TrainConfig()

    @pytest.mark.parametrize("seeds", [(1, 1), (0, -1), (-3,), (2, 0, 2)])
    def test_duplicate_or_negative_seeds_named(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            TrainConfig(seeds=seeds).validate()

    def test_env_invariants_surface_by_key(self):
        # a reachable convergence reward, so the env's own step cap is what fails
        with pytest.raises(ConfigError, match="max_steps must be 250"):
            config_from_entries({"max_steps": "150", "convergence_reward": "100.0"})

    @pytest.mark.parametrize("key, value", [
        ("fail_reward", math.nan), ("fail_reward", -math.inf),
        ("step_reward", math.inf), ("step_reward", math.nan),
        ("convergence_reward", math.nan), ("convergence_reward", -math.inf),
        ("x_bin_bound", math.inf), ("x_dot_bound", math.nan),
        ("theta_dot_bound", math.inf), ("theta_limit", math.inf),
    ])
    def test_non_finite_or_non_positive_values_named(self, key, value):
        with pytest.raises(ConfigError, match=key):
            check_value(key, value)

    def test_every_field_declares_a_domain(self):
        assert [f.name for f in fields(TrainConfig)] == list(OUT_OF_DOMAIN)
        for f in fields(TrainConfig):
            assert callable(f.metadata["domain"]), f.name

    @settings(max_examples=300, deadline=None)
    @given(config=valid_configs(), data=st.data())
    def test_one_field_out_of_its_domain_is_named(self, config, data):
        key = data.draw(st.sampled_from(list(OUT_OF_DOMAIN)), label="key")
        value = data.draw(OUT_OF_DOMAIN[key], label="value")
        with pytest.raises(ConfigError) as excinfo:
            replace(config, **{key: value}).validate()
        assert str(excinfo.value).startswith(f"{key} must ")

    @pytest.mark.parametrize("key, value", JUST_OUTSIDE)
    def test_nearest_value_outside_an_interval_is_named(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            check_value(key, value)
        assert str(excinfo.value).startswith(f"{key} must ")

    @pytest.mark.parametrize("key, value, message", [
        ("convergence_reward", 250.5, "convergence_reward must be in (-inf, 250.0], got 250.5"),
        ("max_episodes", 2.5, "max_episodes must be an integer, got 2.5"),
        ("gamma", "0.5", "gamma must be a real number, got '0.5'"),
        ("pool_capacity", True, "pool_capacity must be an integer, got True"),
        ("n_bins", True, "n_bins must be an integer, got True"),
        ("snapshot_every", -1, "snapshot_every must be >= 0, got -1"),
        ("n_bins", 65537, "n_bins must be in [2, 65536], got 65537"),
        ("seeds", (1.5,), "seeds must be distinct non-negative integers, got 1.5"),
        ("gamma", 1.0, "gamma must be in (0, 1), got 1.0"),
        ("epsilon", math.nan, "epsilon must be in [0, 1], got nan"),
        ("init", "gaussian", "init must be one of ('optimistic', 'zeros', 'uniform'), "
                             "got 'gaussian'"),
        ("seeds", (), "seeds must contain at least one seed"),
    ])
    def test_domain_messages(self, key, value, message):
        with pytest.raises(ConfigError) as excinfo:
            replace(TrainConfig(), **{key: value}).validate()
        assert str(excinfo.value) == message

    def test_unbounded_cart_position_refused(self):
        # an older run with no position limit cannot replay: the limit is fixed
        with pytest.raises(ConfigError) as excinfo:
            config_from_entries({"agent": "qtable", "x_limit": "inf"})
        assert str(excinfo.value) \
            == "x_limit must be 2.4, a constant of the cartpole task, got 'inf'"

    def test_retired_key_table(self):
        assert RETIRED_KEYS == RETIRED
        assert all(type(RETIRED_KEYS[key]) is type(value) for key, value in RETIRED.items())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_retired_key_skipped_at_its_constant_and_refused_otherwise(self, data):
        key = data.draw(st.sampled_from(sorted(RETIRED)), label="key")
        fixed = RETIRED[key]
        spellings = [repr(fixed)] + ([f"{fixed:.6f}"] if isinstance(fixed, float) else [])
        for raw in spellings:
            assert config_from_entries({key: raw}) == TrainConfig()
        other = data.draw(st.one_of(st.floats(), st.integers()).filter(lambda v: v != fixed),
                          label="other")
        with pytest.raises(ConfigError) as excinfo:
            config_from_entries({key: repr(other)})
        # an int key's value that is no integer fails to parse
        assert str(excinfo.value).startswith((f"{key} must be {fixed!r}, ",
                                              f"bad value for config key {key!r}: "))

    @settings(max_examples=100, deadline=None)
    @given(config=valid_configs())
    @example(TrainConfig(agent="bmu", seeds=(3, 1, 4), epsilon=0.25, max_episodes=42))
    @example(TrainConfig(alpha=1, convergence_reward=200))
    def test_kv_round_trip(self, config):
        config.validate()
        text = format_config(config)
        parsed = config_from_entries(parse_config_text(text))
        assert parsed == config
        assert format_config(parsed) == text  # -0.0 stays -0.0

    def test_retired_keys_of_older_files_skipped(self):
        # a config.txt written before kappa, c_gain, the task's settings and
        # the Q-table mode were retired, with the legacy init keys as well
        old = ("agent = bmu\nkappa = 2\nc_gain = 0.5\nq_init = zeros\n"
               "encoder_init = optimistic\nmax_episodes = 7\nmax_steps = 250\n"
               "theta_limit = 0.2095\nx_limit = 2.4\nx_bin_bound = 6.0\n"
               "x_dot_bound = 11.0\ntheta_dot_bound = 7.0\nstep_reward = 1.0\n"
               "fail_reward = -10.0\nqtable_dense = false\n")
        retired = (*RETIRED, "c_gain")
        without = "".join(line + "\n" for line in old.splitlines()
                          if line.split(" = ")[0] not in retired)
        config = config_from_entries(parse_config_text(old))
        assert config == config_from_entries(parse_config_text(without))
        assert (config.agent, config.init, config.max_episodes) == ("bmu", "optimistic", 7)
        written = parse_config_text(format_config(config))
        assert not set(retired) & set(written)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_entries({"learning_rate": "0.5"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="gamma"):
            config_from_entries({"gamma": "abc"})

    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# header\n\nalpha = 0.5  # inline\n")
        assert entries == {"alpha": "0.5"}

    def test_init_validated(self):
        with pytest.raises(ConfigError, match="init must be one of"):
            TrainConfig(init="gaussian").validate()

    def test_config_file_writes_only_init(self):
        text = format_config(TrainConfig(init="zeros"))
        assert "init = zeros\n" in text
        assert "q_init" not in text and "encoder_init" not in text

    @settings(max_examples=300, deadline=None)
    @given(config=valid_configs(), data=st.data())
    def test_config_out_of_its_domain_cannot_be_made(self, config, data):
        # made directly or by replace, with no validate() call
        key = data.draw(st.sampled_from(list(OUT_OF_DOMAIN)), label="key")
        value = data.draw(OUT_OF_DOMAIN[key], label="value")
        for make in (TrainConfig, lambda **change: replace(config, **change)):
            with pytest.raises(ConfigError) as excinfo:
                make(**{key: value})
            assert str(excinfo.value).startswith(f"{key} must ")

    @pytest.mark.parametrize("key, value", [(key, value) for key, value in JUST_OUTSIDE
                                            if key not in RETIRED])
    def test_nearest_value_outside_an_interval_cannot_be_made(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            TrainConfig(**{key: value})
        assert str(excinfo.value).startswith(f"{key} must ")

    @pytest.mark.parametrize("key, value", [
        ("alpha", 1), ("convergence_reward", 200), ("convergence_reward", -3),
        ("epsilon", 0), ("epsilon", 1), ("epsilon_decay", 1),
    ])
    def test_int_in_a_real_field_stored_as_float(self, key, value):
        stored = getattr(TrainConfig(**{key: value}), key)
        assert type(stored) is float and stored == value

    @pytest.mark.parametrize("key", [f.name for f in fields(TrainConfig)
                                     if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", [-10 ** 400, 10 ** 400], ids=["-10**400", "10**400"])
    def test_int_too_large_for_a_float_cannot_be_made(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a real number a float can hold"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("agent", AGENT_KINDS)
    def test_int_alpha_written_to_agent_file_as_float(self, agent):
        config = TrainConfig(agent=agent, alpha=1)
        assert '"alpha": 1.0' in save_agent(make_agent(config, seed_stream(0, AGENT_ROWS)))


def legacy_init(agent, q_init, encoder_init):
    """The init the agent factory gave each kind before the `init` key, with
    the old field defaults (q_init optimistic, encoder_init uniform)."""
    if agent == "bmu":
        return encoder_init or "uniform"
    if agent == "bmu-pool":
        return "zeros"
    q_init = q_init or "optimistic"
    return "zeros" if agent == "qtable" and q_init == "uniform" else q_init


# (rewards, agent_state_hash) prefixes of train(seed 5, 8 episodes, epsilon
# 0.2) under each legacy config, recorded with the code that still had the
# q_init and encoder_init fields; the Q-table's agent hashes were recorded
# again when its agent.json stopped writing "dense" and "n_bins"
LEGACY_RUNS = {
    ("synaptic", "optimistic"): ("5e539fca100cc6df", "cbda1c4ab4c987c2"),
    ("synaptic", "zeros"): ("c823d1e369362aff", "aca392ee25b66c11"),
    ("synaptic", "uniform"): ("2b4c161228f4af2a", "cca2ba69eaadd2ef"),
    ("bmu", "optimistic"): ("5e539fca100cc6df", "b22b68d27dd36c88"),
    ("bmu", "zeros"): ("c823d1e369362aff", "b3a4f328f1f2d4ca"),
    ("bmu", "uniform"): ("2b4c161228f4af2a", "9a7754542efe348b"),
    ("bmu-pool", "zeros"): ("c823d1e369362aff", "f2cb87bd4b86310d"),
    ("qtable", "optimistic"): ("5e539fca100cc6df", "563a9a1f82d7a5a7"),
    ("qtable", "zeros"): ("c823d1e369362aff", "7feb8fc84aaaeb44"),
}


def run_digest(config):
    result = train(config, 5)
    rewards = ",".join(repr(r) for r in result.metrics.rewards)
    return (hashlib.sha256(rewards.encode()).hexdigest()[:16],
            agent_state_hash(result.agent)[:16])


class TestLegacyInitKeys:
    @pytest.mark.parametrize("encoder_init", (None, *INIT_MODES))
    @pytest.mark.parametrize("q_init", (None, *INIT_MODES))
    @pytest.mark.parametrize("agent", AGENT_KINDS)
    def test_legacy_keys_replay(self, agent, q_init, encoder_init):
        entries = {"agent": agent, "max_episodes": "8", "epsilon": "0.2"}
        for key, value in (("q_init", q_init), ("encoder_init", encoder_init)):
            if value is not None:
                entries[key] = value
        config = config_from_entries(entries)
        if q_init is None and encoder_init is None:
            # not a legacy config: the one package default
            assert config.init == TrainConfig().init == "optimistic"
            return
        mapped = legacy_init(agent, q_init, encoder_init)
        assert config.init == mapped
        digest = run_digest(config)
        assert digest == run_digest(replace(config, init=mapped))
        assert digest == LEGACY_RUNS[agent, mapped]

    @pytest.mark.parametrize("agent", AGENT_KINDS)
    def test_init_wins_over_legacy_keys(self, agent):
        entries = {"agent": agent, "q_init": "uniform", "encoder_init": "uniform"}
        for init in INIT_MODES:
            assert config_from_entries({**entries, "init": init}).init == init

    @pytest.mark.parametrize("key", ("q_init", "encoder_init"))
    def test_bad_legacy_value_named(self, key):
        with pytest.raises(ConfigError, match=key):
            config_from_entries({key: "gaussian"})
        with pytest.raises(ConfigError, match=key):
            config_from_entries({key: "gaussian", "init": "zeros"})


def convergence_episode(rewards, threshold: float, window: int) -> int | None:
    """The oracle of `train()`'s streak: the first episode (1-based) after
    which the trailing `window` episodes all reached the threshold; one
    sub-threshold episode resets the streak."""
    streak = 0
    for index, reward in enumerate(rewards, start=1):
        streak = streak + 1 if reward >= threshold else 0
        if streak >= window:
            return index
    return None


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

    @pytest.mark.parametrize("config, seed", [
        (TrainConfig(), 1),
        (TrainConfig(agent="qtable", convergence_reward=20.0, convergence_window=3), 1),
        (TrainConfig(agent="qtable", epsilon=0.3, max_episodes=40), 2),
    ])
    def test_train_counts_the_oracle_streak(self, config, seed):
        metrics = train(config, seed).metrics
        assert metrics.episodes_to_convergence == convergence_episode(
            metrics.rewards, config.convergence_reward, config.convergence_window)
        assert metrics.converged == (metrics.episodes_to_convergence is not None)


class PdStub:
    """A hand controller on the centres of `STUB_BINS` bins; survives to
    truncation and never learns, so episode accounting is easy to pin down."""

    def ensure(self, cell):
        return False

    def select(self, cell):
        bins = map(int, key_of(cell).split("_")[:4])
        x, x_dot, theta, theta_dot = (lo + (b + 0.5) * (hi - lo) / STUB_BINS
                                      for b, lo, hi in zip(bins, LOWER, UPPER))
        return 1 if (3.0 * theta + 1.2 * theta_dot + 0.05 * x + 0.4 * x_dot) > 0 else 0

    def update(self, *args, **kwargs):
        pass


# fine enough at the package's bounds for the stub's centre readout to balance
STUB_BINS = 64


class TestRunEpisode:
    def test_truncated_episode_reward_250(self):
        record = run_episode(PdStub(), CartPoleEnv(), STUB_BINS,
                             start=initial_states([1])[0])
        assert record.steps == 250
        assert record.total_reward == 250.0

    def test_terminating_episode_reward_accounting(self):
        config = TrainConfig()
        env = CartPoleEnv()
        agent = make_agent(config, np.random.default_rng(0))
        record = run_episode(agent, env, config.n_bins, start=initial_states([3])[0])
        assert record.steps < 250  # an untrained agent fails quickly
        assert record.total_reward == (record.steps - 1) * 1.0 - 10.0

    def test_deterministic_record(self):
        def once():
            config = TrainConfig()
            env = CartPoleEnv()
            agent = make_agent(config, np.random.default_rng(0))
            rec = run_episode(agent, env, config.n_bins, start=initial_states([17])[0])
            return rec.total_reward, rec.steps, agent_state_hash(agent)

        assert once() == once()

    def test_spawn_accounting_matches_agent(self):
        """`ensure` answers True exactly for the rows it adds."""
        config = TrainConfig()
        env = CartPoleEnv()
        agent = make_agent(config, np.random.default_rng(0))
        ensure, spawns = agent.ensure, []

        def counting(cell):
            spawns.append(ensure(cell))
            return spawns[-1]

        agent.ensure = counting
        for start in initial_states(range(5)):
            run_episode(agent, env, config.n_bins, start)
        assert {type(spawned) for spawned in spawns} == {bool}
        assert sum(spawns) == agent.stats().neurons


class TestTrain:
    def test_metrics_series_aligned(self):
        config = TrainConfig(agent="qtable", max_episodes=12)
        metrics = train(config, 0).metrics
        n = metrics.episodes_run
        assert n == 12
        for series in (metrics.rewards, metrics.moving_avg, metrics.moving_std,
                       metrics.neurons, metrics.avg_fan_in, metrics.parameters,
                       metrics.steps):
            assert len(series) == n

    def test_moving_average_uses_trailing_window(self):
        config = TrainConfig(agent="qtable", max_episodes=30, convergence_window=5)
        metrics = train(config, 1).metrics
        for e in range(metrics.episodes_run):
            window = metrics.rewards[max(0, e - 4):e + 1]
            assert metrics.moving_avg[e] == float(np.mean(window))
            assert metrics.moving_std[e] == float(np.std(window))

    def test_matches_per_call_numpy_draws(self):
        """train() against the same loop drawn one numpy call at a time:
        scalar episode seeds, a fresh Generator per episode for its start
        state, Generator.random()/integers() for exploration, np.mean/np.std
        for the moving stats."""
        config = TrainConfig(n_bins=16, epsilon=0.4, epsilon_decay=0.99,
                             convergence_window=7, max_episodes=40)
        result = train(config, 11)

        env_ss, agent_ss, explore_ss = np.random.SeedSequence(11).spawn(3)
        env_seeder = np.random.default_rng(env_ss)
        explore_rng = np.random.default_rng(explore_ss)

        class PerCall:
            random = explore_rng.random

            @staticmethod
            def action():
                return int(explore_rng.integers(2))

        agent = make_agent(config, np.random.default_rng(agent_ss))
        env = CartPoleEnv()
        epsilon = config.epsilon
        rewards, moving_avg, moving_std = [], [], []
        for _ in range(result.metrics.episodes_run):
            start_rng = np.random.default_rng(int(env_seeder.integers(0, 2 ** 63)))
            start = tuple(start_rng.uniform(-RESET_SPREAD, RESET_SPREAD, size=4).tolist())
            record = run_episode(agent, env, config.n_bins, start,
                                 explore=PerCall(), epsilon=epsilon)
            epsilon *= config.epsilon_decay
            rewards.append(record.total_reward)
            window = rewards[-config.convergence_window:]
            moving_avg.append(float(np.mean(window)))
            moving_std.append(float(np.std(window)))
        assert result.metrics.rewards == rewards
        assert result.metrics.moving_avg == moving_avg
        assert result.metrics.moving_std == moving_std
        assert agent_state_hash(result.agent) == agent_state_hash(agent)

    def test_start_states_drawn_in_blocks_as_reached(self, monkeypatch):
        drawn = []

        def recording(seeds):
            drawn.append(len(seeds))
            return initial_states(seeds)

        monkeypatch.setattr(streams, "initial_states", recording)
        # a window longer than the cap: all 600 episodes are played
        config = TrainConfig(agent="qtable", epsilon=0.3, convergence_window=700,
                             max_episodes=600)
        result = train(config, 9)
        assert drawn == [256, 256, 88]

        env_ss, agent_ss, explore_ss = np.random.SeedSequence(9).spawn(3)
        seeds = np.random.default_rng(env_ss).integers(0, 2 ** 63, size=600).tolist()
        agent = make_agent(config, np.random.default_rng(agent_ss))
        env = CartPoleEnv()
        # numpy's own bit generator stands in for the run's stream, as
        # Exploration reads only its `state`
        explore = Exploration(np.random.default_rng(explore_ss).bit_generator)
        rewards = [run_episode(agent, env, config.n_bins, start, explore=explore,
                               epsilon=config.epsilon).total_reward
                   for start in initial_states(seeds)]
        assert result.metrics.rewards == rewards
        assert agent_state_hash(result.agent) == agent_state_hash(agent)

        # a converged run draws only the blocks it reached, whatever its cap
        drawn.clear()
        result = train(TrainConfig(max_episodes=10 ** 7), 0)
        assert result.metrics.converged
        assert drawn == [256] * -(-result.metrics.episodes_run // 256)

    def test_spawn_conservation_over_training(self, monkeypatch):
        """A seed's `total_spawned`, its last recorded neuron count, is every
        row that `ensure` added in training."""
        config = TrainConfig(max_episodes=15)
        cls = AGENT_CLASSES[config.agent]
        ensure, spawns = cls.ensure, []

        def counting(agent, cell):
            spawns.append(ensure(agent, cell))
            return spawns[-1]

        monkeypatch.setattr(cls, "ensure", counting)
        result = train(config, 2)
        assert sum(spawns) == seed_summary(result.metrics, result.agent)["total_spawned"] \
            == result.agent.stats().neurons > 0

    def test_non_convergence_is_recorded_not_raised(self):
        config = TrainConfig(agent="qtable", init="zeros", max_episodes=10)
        metrics = train(config, 0).metrics
        assert metrics.converged is False
        assert metrics.episodes_to_convergence is None

    def test_full_pool_is_the_seeds_outcome(self):
        """A pool below the run's need ends the seed early with the failure
        recorded; the episodes before it are the unconstrained run's."""
        config = TrainConfig(agent="bmu-pool", max_episodes=10, pool_capacity=22)
        metrics = train(config, 1).metrics
        free = train(replace(config, pool_capacity=10_000), 1).metrics
        assert metrics.failed == "neuron pool exhausted: all 22 neurons assigned"
        assert free.failed is None and free.episodes_run == 10
        assert metrics.episodes_run == 9
        assert metrics.rewards == free.rewards[:9]
        assert metrics.neurons == free.neurons[:9]
        assert not metrics.converged and metrics.episodes_to_convergence is None

    def test_full_pool_in_first_episode(self):
        config = TrainConfig(agent="bmu-pool", max_episodes=10, pool_capacity=5)
        metrics = train(config, 0).metrics
        assert metrics.failed is not None
        assert metrics.episodes_run == 0 and metrics.moving_avg == []

    def test_other_errors_still_abort(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a full pool")

        monkeypatch.setattr(trainer, "run_episode", broken)
        with pytest.raises(RuntimeError, match="not a full pool"):
            train(TrainConfig(agent="bmu-pool", max_episodes=3), 0)

    def test_snapshot_cadence(self):
        config = TrainConfig(max_episodes=10, snapshot_every=4)
        result = train(config, 0)
        assert sorted(result.snapshots) == [4, 8]


class TestMultiSeed:
    def test_single_seed_band_width_zero(self):
        config = TrainConfig(agent="qtable", max_episodes=8, seeds=(0,))
        aggregate, _ = multi_seed(config)
        assert aggregate.lo_band == aggregate.mean == aggregate.hi_band

    def test_identical_seeds_band_width_zero(self):
        # a config lists each seed once, so the curves of one seed are repeated
        _, (result,) = multi_seed(TrainConfig(agent="qtable", max_episodes=8, seeds=(4,)))
        _, lo, hi = aggregate_curves([result.metrics.moving_avg] * 3)
        np.testing.assert_allclose(lo, hi)

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
        _, forward = multi_seed(replace(config, seeds=(1, 2)))
        _, backward = multi_seed(replace(config, seeds=(2, 1)))
        by_seed_fwd = {r.metrics.seed: r.metrics.rewards for r in forward}
        by_seed_bwd = {r.metrics.seed: r.metrics.rewards for r in backward}
        assert by_seed_fwd == by_seed_bwd

    def test_failed_seeds_left_out_of_the_bands(self):
        config = TrainConfig(agent="bmu-pool", max_episodes=10, pool_capacity=22)
        aggregate, results = multi_seed(replace(config, seeds=(0, 1)))
        alone, _ = multi_seed(replace(config, seeds=(0,)))
        assert [r.metrics.failed is None for r in results] == [True, False]
        assert aggregate == replace(alone, convergence_episodes=[None, None])
        aggregate, _ = multi_seed(replace(config, pool_capacity=5, seeds=(0, 1)))
        assert aggregate.episodes == 0 and aggregate.mean == []
        assert aggregate.convergence_episodes == [None, None]

    def test_padding_uses_final_value(self):
        mean, lo, hi = aggregate_curves([[1.0, 2.0], [3.0]])
        assert mean == [2.0, 2.5]
        assert hi[1] == pytest.approx(2.5 + 2 * 0.5)


class TestExactDraws:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 128 - 1), epsilon=st.floats(0.0, 1.0),
           steps=st.integers(BLOCK + 1, 2 * BLOCK))
    def test_exploration_equals_generator(self, seed, epsilon, steps):
        oracle = np.random.default_rng(seed)
        explore = Exploration(seed_stream(seed))
        expected, drawn = [], []
        for _ in range(steps):
            coin = oracle.random()
            expected.append(coin)
            drawn.append(explore.random())
            if coin < epsilon:
                expected.append(int(oracle.integers(2)))
                drawn.append(explore.action())
        assert drawn == expected

    def test_actions_equal_sized_draws(self):
        for seed in range(20):
            oracle = np.random.default_rng(seed)
            explore = Exploration(seed_stream(seed))
            draws = [explore.action() for _ in range(3 * BLOCK)]
            assert draws == oracle.integers(2, size=3 * BLOCK).tolist()

    def test_words_fetched_lazily_a_block_at_a_time(self, monkeypatch):
        pcg64, built = np.random.PCG64, []

        def kept(*args):
            # the bit generator Exploration builds, kept to read its state
            built.append(pcg64(*args))
            return built[-1]

        monkeypatch.setattr(np.random, "PCG64", kept)
        explore = Exploration(seed_stream(3))
        (bit_generator,) = built
        config = TrainConfig()
        run_episode(make_agent(config, np.random.default_rng(0)),
                    CartPoleEnv(), config.n_bins, initial_states([1])[0],
                    explore=explore, epsilon=0.0)
        assert bit_generator.state == pcg64(3).state
        explore.random()
        one_block = pcg64(3)
        one_block.random_raw(BLOCK)
        assert bit_generator.state == one_block.state

    def test_episode_seeds_in_one_call_equal_scalar_draws(self):
        batch = np.random.default_rng(5).integers(0, 2 ** 63, size=1000).tolist()
        scalar = np.random.default_rng(5)
        assert batch == [int(scalar.integers(0, 2 ** 63)) for _ in range(1000)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150]),
        st.integers(-10, 250).map(float),
    ), min_size=1, max_size=300))
    @example([-0.0] * 8)
    def test_mean_std_equals_numpy(self, window):
        expected = (float(np.mean(window)), float(np.std(window)))
        assert [v.hex() for v in mean_std(window)] == [v.hex() for v in expected]


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
        st.integers(-10, 250).map(float),
    ), min_size=1, max_size=300))
    def test_mean_reward_equals_numpy(self, rewards):
        report = EvalReport(rewards=rewards, trajectories=[])
        assert report.mean_reward.hex() == float(np.mean(rewards)).hex()

    def test_negative_seed_rejected(self):
        """As numpy's SeedSequence rejects it, for training and evaluation."""
        config = TrainConfig(max_episodes=1)
        with pytest.raises(ValueError, match="non-negative"):
            train(config, -1)
        agent = train(config, 0).agent
        with pytest.raises(ValueError, match="non-negative"):
            evaluate(agent, config, -1, 1)

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
        assert a.trajectories == b.trajectories
        assert a.rewards == b.rewards

    def test_trace_rows_equal_steps(self):
        config, agent = self._trained()
        report = evaluate(agent, config, seed=5, n_episodes=3)
        for trajectory, steps, total in zip(report.trajectories, report.steps, report.rewards):
            assert [row[0] for row in trajectory] == list(range(steps))
            assert sum(row[6] for row in trajectory) == total  # whole-valued rewards
            assert [row[7] for row in trajectory[:-1]] == [False] * (steps - 1)

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

    @pytest.mark.parametrize("seed", (0, 3, 11))
    def test_eval_initial_states_held_out_from_training(self, seed, monkeypatch):
        """Evaluation starts from states no training episode of the same
        seed started from."""
        starts = []
        reset = CartPoleEnv.reset

        def recording_reset(env, start):
            starts.append(reset(env, start))
            return starts[-1]

        monkeypatch.setattr(CartPoleEnv, "reset", recording_reset)
        config = TrainConfig(agent="qtable", max_episodes=20, convergence_window=20)
        result = train(config, seed)
        trained = set(starts[:result.metrics.episodes_run])
        assert len(trained) == 20
        starts.clear()
        report = evaluate(result.agent, config, seed, n_episodes=20)
        assert [t[0][1] for t in report.trajectories] == [x for x, *_ in starts]
        assert len(set(starts)) == 20
        assert trained.isdisjoint(starts)
        eval_seeder = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
        assert starts == [
            tuple(np.random.default_rng(int(eval_seeder.integers(0, 2 ** 63)))
                  .uniform(-RESET_SPREAD, RESET_SPREAD, size=4).tolist())
            for _ in range(20)]

    def test_summary_stats(self):
        config, agent = self._trained()
        report = evaluate(agent, config, seed=5, n_episodes=4)
        assert report.min_reward <= report.mean_reward <= report.max_reward


def test_stub_always_surviving_converges_at_window():
    """Window arithmetic through the full train loop with a balancing stub."""
    env_rewards = []
    env = CartPoleEnv()
    stub = PdStub()
    seeder = np.random.default_rng(np.random.SeedSequence(0).spawn(3)[0])
    streak = 0
    for episode in range(1, 41):
        record = run_episode(stub, env, STUB_BINS,
                             initial_states([int(seeder.integers(0, 2 ** 63))])[0])
        env_rewards.append(record.total_reward)
        streak = streak + 1 if record.total_reward >= 200.0 else 0
        if streak >= 20:
            break
    assert episode == 20
    assert convergence_episode(env_rewards, 200.0, 20) == 20
