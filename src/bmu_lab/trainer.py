"""Episode loop, convergence detection and multi-seed orchestration.

A run is fully determined by its config and a single integer seed: the
seed fans out into independent streams for episode initial conditions,
agent initialization (random encoders) and the optional exploration
override. Training stops once the trailing window of episodes all meet
the convergence reward, or at the episode cap; non-convergence is a
recorded outcome, not an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .bmu import ENCODER_INIT_MODES, BmuAgent, PoolAgent
from .cartpole import CartPoleEnv, CartState, EnvParams
from .core import argmax
from .discretize import BinSpec, discretize
from .graphio import GraphSnapshot
from .qtable import QTableAgent
from .synaptic import Q_INIT_MODES, SynapticAgent

AGENT_KINDS = ("synaptic", "bmu", "bmu-pool", "qtable")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Full recipe for a training run.

    The termination limits follow the reference simulator's behavior (the
    pole fails at 0.2095 rad even though its observation range extends to
    0.418); the binning bounds are deliberately wider than the termination
    limits so that the live state cells are coarse enough for the greedy
    learner to stabilize. Both are plain config fields for experiments.
    """

    agent: str = "synaptic"
    gamma: float = 0.99
    alpha: float = 0.9
    n_bins: int = 10
    kappa: int = 2
    max_steps: int = 250
    convergence_reward: float = 200.0
    convergence_window: int = 20
    max_episodes: int = 1000
    seeds: tuple[int, ...] = (0,)
    c_gain: float = 1.0
    epsilon: float = 0.0
    epsilon_decay: float = 1.0
    snapshot_every: int = 0
    q_init: str = "optimistic"
    encoder_init: str = "uniform"
    pool_capacity: int = 300
    qtable_dense: bool = False
    theta_limit: float = 0.2095
    x_limit: float = 2.4
    x_bin_bound: float = 6.0
    x_dot_bound: float = 11.0
    theta_dot_bound: float = 7.0
    step_reward: float = 1.0
    fail_reward: float = -10.0

    def validate(self) -> None:
        if self.agent not in AGENT_KINDS:
            raise ConfigError(f"agent must be one of {AGENT_KINDS}, got {self.agent!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.convergence_window < 1:
            raise ConfigError(f"convergence_window must be >= 1, got {self.convergence_window}")
        if self.convergence_reward > self.max_steps * self.step_reward:
            raise ConfigError(
                f"convergence_reward {self.convergence_reward} is unattainable with "
                f"max_steps {self.max_steps} and step_reward {self.step_reward}"
            )
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.kappa != 2:
            raise ConfigError(f"kappa must be 2, the cartpole's two actions, got {self.kappa}")
        if self.max_episodes < 1:
            raise ConfigError(f"max_episodes must be >= 1, got {self.max_episodes}")
        if not self.seeds:
            raise ConfigError("seeds must contain at least one seed")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.pool_capacity < 1:
            raise ConfigError(f"pool_capacity must be >= 1, got {self.pool_capacity}")
        if self.q_init not in Q_INIT_MODES:
            raise ConfigError(f"q_init must be one of {Q_INIT_MODES}, got {self.q_init!r}")
        if self.encoder_init not in ENCODER_INIT_MODES:
            raise ConfigError(
                f"encoder_init must be one of {ENCODER_INIT_MODES}, got {self.encoder_init!r}"
            )
        # env invariants surface here as config errors with the offending key
        try:
            self.env_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            self.bin_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def env_params(self) -> EnvParams:
        return EnvParams(
            max_steps=self.max_steps,
            theta_limit=self.theta_limit,
            x_limit=self.x_limit,
            step_reward=self.step_reward,
            fail_reward=self.fail_reward,
        )

    def bin_spec(self) -> BinSpec:
        # angle bins track the termination limit; position bins span a wider
        # range so cells are coarse enough for greedy learning to settle
        return BinSpec.symmetric(
            x_bound=self.x_bin_bound,
            x_dot_bound=self.x_dot_bound,
            theta_bound=self.theta_limit,
            theta_dot_bound=self.theta_dot_bound,
            n_bins=self.n_bins,
        )

    def with_seeds(self, seeds) -> "TrainConfig":
        return replace(self, seeds=tuple(seeds))


def make_agent(config: TrainConfig, rng: np.random.Generator):
    if config.agent == "synaptic":
        return SynapticAgent(kappa=config.kappa, alpha=config.alpha, gamma=config.gamma,
                             c=config.c_gain, q_init=config.q_init, rng=rng,
                             step_reward=config.step_reward)
    if config.agent == "bmu":
        return BmuAgent(b=config.kappa, d=1, alpha=config.alpha, gamma=config.gamma,
                        rng=rng, encoder_init=config.encoder_init,
                        step_reward=config.step_reward)
    if config.agent == "bmu-pool":
        return PoolAgent(capacity=config.pool_capacity, n_actions=config.kappa,
                         alpha=config.alpha, gamma=config.gamma)
    if config.agent == "qtable":
        q_init = "optimistic" if config.q_init == "optimistic" else "zeros"
        return QTableAgent(kappa=config.kappa, alpha=config.alpha, gamma=config.gamma,
                           dense=config.qtable_dense, n_bins=config.n_bins,
                           q_init=q_init, step_reward=config.step_reward)
    raise ConfigError(f"agent must be one of {AGENT_KINDS}, got {config.agent!r}")


@dataclass
class EpisodeRecord:
    total_reward: float
    steps: int
    spawned: int


def run_episode(agent, env: CartPoleEnv, config: TrainConfig, episode_seed: int,
                explore_rng: np.random.Generator | None = None,
                epsilon: float = 0.0, spec: BinSpec | None = None) -> EpisodeRecord:
    """One full episode: discretize, look up or spawn, select, step, connect,
    Bellman-update, advance, until failure or the step cap.

    `spec` is `config.bin_spec()`, passed in by callers that run many
    episodes so it is built once.
    """
    if spec is None:
        spec = config.bin_spec()
    explore = explore_rng is not None and epsilon > 0.0
    kappa = config.kappa
    ensure, select, update = agent.ensure, agent.select, agent.update
    step = env.step
    cell = discretize(env.reset(episode_seed), spec)
    spawned = int(ensure(cell))
    total = 0.0
    steps = 0
    while True:
        forced = None
        # random() is uniform() on [0, 1): the same draws, at less cost
        if explore and explore_rng.random() < epsilon:
            forced = int(explore_rng.integers(kappa))
        action = select(cell, forced)
        next_state, reward, terminated, truncated = step(action)
        next_cell = discretize(next_state, spec)
        if ensure(next_cell):
            spawned += 1
        update(cell, action, reward, next_cell, terminated)
        total += reward
        steps += 1
        if terminated or truncated:
            break
        cell = next_cell
    return EpisodeRecord(total_reward=total, steps=steps, spawned=spawned)


def convergence_episode(rewards, threshold: float, window: int) -> int | None:
    """First episode (1-based) after which the trailing `window` episodes all
    reached the threshold; one sub-threshold episode resets the streak."""
    streak = 0
    for index, reward in enumerate(rewards, start=1):
        streak = streak + 1 if reward >= threshold else 0
        if streak >= window:
            return index
    return None


@dataclass
class RunMetrics:
    seed: int
    rewards: list[float]
    moving_avg: list[float]
    moving_std: list[float]
    neurons: list[int]
    avg_fan_in: list[float | None]
    parameters: list[int]
    steps: list[int]
    spawned: list[int]
    converged: bool
    episodes_to_convergence: int | None
    wall_clock_seconds: float

    @property
    def episodes_run(self) -> int:
        return len(self.rewards)


@dataclass
class TrainResult:
    metrics: RunMetrics
    agent: object
    snapshots: dict[int, GraphSnapshot]


def _seed_streams(seed: int):
    env_ss, agent_ss, explore_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(env_ss),
        np.random.default_rng(agent_ss),
        np.random.default_rng(explore_ss),
    )


def train(config: TrainConfig, seed: int,
          snapshot_episodes=None) -> TrainResult:
    config.validate()
    started = time.perf_counter()
    env_seeder, agent_rng, explore_rng = _seed_streams(seed)
    env = CartPoleEnv(config.env_params())
    spec = config.bin_spec()
    agent = make_agent(config, agent_rng)

    wanted_snapshots = set(snapshot_episodes or ())
    if config.snapshot_every > 0:
        wanted_snapshots.update(range(config.snapshot_every, config.max_episodes + 1,
                                      config.snapshot_every))

    metrics = RunMetrics(seed=seed, rewards=[], moving_avg=[], moving_std=[],
                         neurons=[], avg_fan_in=[], parameters=[], steps=[],
                         spawned=[], converged=False, episodes_to_convergence=None,
                         wall_clock_seconds=0.0)
    snapshots: dict[int, GraphSnapshot] = {}
    streak = 0
    epsilon = config.epsilon
    for episode in range(1, config.max_episodes + 1):
        episode_seed = int(env_seeder.integers(0, 2 ** 63))
        record = run_episode(agent, env, config, episode_seed,
                             explore_rng=explore_rng, epsilon=epsilon, spec=spec)
        epsilon *= config.epsilon_decay

        metrics.rewards.append(record.total_reward)
        window = metrics.rewards[-min(episode, config.convergence_window):]
        metrics.moving_avg.append(float(np.mean(window)))
        metrics.moving_std.append(float(np.std(window)))
        stats = agent.stats()
        metrics.neurons.append(stats.neurons)
        metrics.avg_fan_in.append(stats.avg_fan_in)
        metrics.parameters.append(stats.parameter_count)
        metrics.steps.append(record.steps)
        metrics.spawned.append(record.spawned)

        if episode in wanted_snapshots:
            snapshots[episode] = agent.snapshot()

        streak = streak + 1 if record.total_reward >= config.convergence_reward else 0
        if streak >= config.convergence_window:
            metrics.converged = True
            metrics.episodes_to_convergence = episode
            break

    metrics.wall_clock_seconds = time.perf_counter() - started
    return TrainResult(metrics=metrics, agent=agent, snapshots=snapshots)


@dataclass
class AggregateMetrics:
    episodes: int
    mean: list[float]
    lo_band: list[float]
    hi_band: list[float]
    convergence_episodes: list[int | None]

    @property
    def converged_count(self) -> int:
        return sum(1 for e in self.convergence_episodes if e is not None)


def aggregate_curves(curves: list[list[float]]) -> tuple[list[float], list[float], list[float]]:
    """Mean and +/- 2 sigma band across seeds, aligned by episode index.

    Shorter (converged) runs are padded with their final value so the band
    is defined at every episode; sigma is the population spread, so a
    single seed gives a zero-width band.
    """
    length = max(len(curve) for curve in curves)
    padded = np.array([curve + [curve[-1]] * (length - len(curve)) for curve in curves])
    mean = padded.mean(axis=0)
    sd = padded.std(axis=0)
    return list(mean), list(mean - 2.0 * sd), list(mean + 2.0 * sd)


def multi_seed(config: TrainConfig,
               snapshot_episodes=None) -> tuple[AggregateMetrics, list[TrainResult]]:
    config.validate()
    results = [train(config, seed, snapshot_episodes) for seed in config.seeds]
    mean, lo, hi = aggregate_curves([r.metrics.moving_avg for r in results])
    aggregate = AggregateMetrics(
        episodes=len(mean),
        mean=mean,
        lo_band=lo,
        hi_band=hi,
        convergence_episodes=[r.metrics.episodes_to_convergence for r in results],
    )
    return aggregate, results


@dataclass
class EvalReport:
    rewards: list[float]
    steps: list[int]
    traces: list[list[tuple[int, float, float]]]
    trajectories: list[list[tuple[CartState, int, float, bool]]]

    @property
    def mean_reward(self) -> float:
        return float(np.mean(self.rewards))

    @property
    def min_reward(self) -> float:
        return float(min(self.rewards))

    @property
    def max_reward(self) -> float:
        return float(max(self.rewards))


def greedy_action(agent, cell: int) -> int:
    """Frozen-policy readout; unseen states fall back to the zero-Q tie."""
    try:
        qs = agent.q_values(cell)
    except KeyError:
        return 0
    return argmax(qs)


def evaluate(agent, config: TrainConfig, seed: int, n_episodes: int) -> EvalReport:
    """Greedy rollouts with learning disabled; the agent is never mutated."""
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    spec = config.bin_spec()
    env = CartPoleEnv(config.env_params())
    seeder = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    report = EvalReport(rewards=[], steps=[], traces=[], trajectories=[])
    for _ in range(n_episodes):
        state = env.reset(int(seeder.integers(0, 2 ** 63)))
        total = 0.0
        steps = 0
        trace: list[tuple[int, float, float]] = []
        trajectory: list[tuple[CartState, int, float, bool]] = []
        while True:
            action = greedy_action(agent, discretize(state, spec))
            next_state, reward, terminated, truncated = env.step(action)
            x, x_dot, theta, theta_dot = state
            trace.append((steps, x, theta))
            trajectory.append((CartState(x, x_dot, theta, theta_dot, steps), action,
                               reward, terminated))
            total += reward
            steps += 1
            if terminated or truncated:
                break
            state = next_state
        report.rewards.append(total)
        report.steps.append(steps)
        report.traces.append(trace)
        report.trajectories.append(trajectory)
    return report
