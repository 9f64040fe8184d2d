"""The episode loop, the multi-seed aggregation and greedy evaluation.

A run is fully determined by its config (`config.TrainConfig`) and a
single integer seed; every stream the seed fans out into, and every value
drawn from one, comes from `streams`, the one module that imports numpy,
which it loads only for a run that explores.
Training stops once the trailing window of episodes all meet
the convergence reward, or at the episode cap; non-convergence is a
recorded outcome, not an error, and so is a neuron pool running out of
neurons, which ends that seed's run early. An episode records its reward
and steps and the agent's stats after it; a count that only a file shows,
such as a seed's spawns, is worked out when the file is written.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bmu import PoolCapacityError
from .cartpole import CartPoleEnv
from .config import AGENT_CLASSES, TrainConfig
from .discretize import discretize
from .graphio import GraphSnapshot
from .streams import (AGENT_ROWS, EVAL_SEEDER, EXPLORATION, TRAIN_SEEDER, Exploration,
                      episode_starts, mean_std, seed_stream)

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .streams import Stream


def make_agent(config: TrainConfig, rng: Stream):
    common = {"alpha": config.alpha, "gamma": config.gamma, "init": config.init, "rng": rng}
    if config.agent == "bmu-pool":
        common["capacity"] = config.pool_capacity
    return AGENT_CLASSES[config.agent](**common)


@dataclass
class EpisodeRecord:
    total_reward: float
    steps: int


def run_episode(agent, env: CartPoleEnv, n_bins: int,
                start: tuple[float, float, float, float],
                explore: Exploration | None = None,
                epsilon: float = 0.0) -> EpisodeRecord:
    """One full episode from the state `start`: discretize, look up or spawn,
    select, step, Bellman-update, advance, until failure or the step cap.

    The agent selects greedily; exploring is the trainer's. With `epsilon`
    > 0, each step draws a coin from `explore`, the run's one
    `Exploration`, and below `epsilon` takes its uniform action in place of
    the agent's choice.
    """
    exploring = explore is not None and epsilon > 0.0
    if exploring:
        coin, forced_action = explore.random, explore.action
    ensure, select, update = agent.ensure, agent.select, agent.update
    step = env.step
    cell = discretize(env.reset(start), n_bins)
    ensure(cell)
    total = 0.0
    steps = 0
    while True:
        if exploring and coin() < epsilon:
            action = forced_action()
        else:
            action = select(cell)
        next_state, reward, terminated, truncated = step(action)
        next_cell = discretize(next_state, n_bins)
        ensure(next_cell)
        update(cell, action, reward, next_cell, terminated)
        total += reward
        steps += 1
        if terminated or truncated:
            break
        cell = next_cell
    return EpisodeRecord(total_reward=total, steps=steps)


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
    converged: bool
    episodes_to_convergence: int | None
    wall_clock_seconds: float
    # why the run ended before convergence or the cap, if it did
    failed: str | None = None

    @property
    def episodes_run(self) -> int:
        return len(self.rewards)


@dataclass
class TrainResult:
    metrics: RunMetrics
    agent: object
    snapshots: dict[int, GraphSnapshot]


def train(config: TrainConfig, seed: int) -> TrainResult:
    started = time.perf_counter()
    env = CartPoleEnv()
    n_bins = config.n_bins
    agent = make_agent(config, seed_stream(seed, AGENT_ROWS))
    # only a run that explores loads numpy, for its per-step coin
    explore = None
    if config.epsilon > 0:
        explore = Exploration(seed_stream(seed, EXPLORATION))
    starts = episode_starts(seed_stream(seed, TRAIN_SEEDER), config.max_episodes)

    metrics = RunMetrics(seed=seed, rewards=[], moving_avg=[], moving_std=[],
                         neurons=[], avg_fan_in=[], parameters=[], steps=[],
                         converged=False, episodes_to_convergence=None,
                         wall_clock_seconds=0.0)
    snapshots: dict[int, GraphSnapshot] = {}
    streak = 0
    epsilon = config.epsilon
    for episode, start in enumerate(starts, start=1):
        try:
            record = run_episode(agent, env, n_bins, start, explore=explore, epsilon=epsilon)
        except PoolCapacityError as exc:
            # the seed's outcome; the unfinished episode is not recorded
            metrics.failed = str(exc)
            break
        epsilon *= config.epsilon_decay

        metrics.rewards.append(record.total_reward)
        window = metrics.rewards[-min(episode, config.convergence_window):]
        moving_avg, moving_std = mean_std(window)
        metrics.moving_avg.append(moving_avg)
        metrics.moving_std.append(moving_std)
        stats = agent.stats()
        metrics.neurons.append(stats.neurons)
        metrics.avg_fan_in.append(stats.avg_fan_in)
        metrics.parameters.append(stats.parameter_count)
        metrics.steps.append(record.steps)

        if config.snapshot_every and episode % config.snapshot_every == 0:
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
    single seed gives a zero-width band. No curves give empty lists.

    The mean and sigma are numpy's `mean(axis=0)` and `std(axis=0)` of the
    padded curves, bit for bit: numpy adds the rows in order from 0.0 (the
    builtin `sum` compensates on Python 3.12+), but reduces a single column
    as one vector, pairwise, as `mean_std` does.
    """
    if not curves:
        return [], [], []
    n = len(curves)
    length = max(len(curve) for curve in curves)
    padded = [curve + [curve[-1]] * (length - len(curve)) for curve in curves]
    if length == 1:
        m, sd = mean_std([curve[0] for curve in padded])
        mean, sds = [m], [sd]
    else:
        totals = [0.0] * length
        for curve in padded:
            totals = [t + v for t, v in zip(totals, curve)]
        mean = [t / n for t in totals]
        totals = [0.0] * length
        for curve in padded:
            totals = [t + (v - m) * (v - m) for t, v, m in zip(totals, curve, mean)]
        sds = [math.sqrt(t / n) for t in totals]
    return (mean, [m - 2.0 * sd for m, sd in zip(mean, sds)],
            [m + 2.0 * sd for m, sd in zip(mean, sds)])


def seed_runs(config: TrainConfig) -> Iterator[TrainResult]:
    """Train the seeds one at a time, each yielded as soon as it is done, so
    a caller that keeps no result holds one seed's agent at a time."""
    for seed in config.seeds:
        yield train(config, seed)


def aggregate_runs(curves: list[list[float]],
                   convergence_episodes: list[int | None]) -> AggregateMetrics:
    """The aggregate of the moving-average `curves` of the seeds that did not
    fail, and of every seed's convergence episode."""
    mean, lo, hi = aggregate_curves(curves)
    return AggregateMetrics(episodes=len(mean), mean=mean, lo_band=lo, hi_band=hi,
                            convergence_episodes=convergence_episodes)


def multi_seed(config: TrainConfig) -> tuple[AggregateMetrics, list[TrainResult]]:
    """Train every seed; the aggregate curves cover the seeds that did not fail."""
    results = list(seed_runs(config))
    aggregate = aggregate_runs(
        [r.metrics.moving_avg for r in results if r.metrics.failed is None],
        [r.metrics.episodes_to_convergence for r in results])
    return aggregate, results


@dataclass
class EvalReport:
    """Per episode, the total reward and one row per step:
    (t, x, x_dot, theta, theta_dot, action, reward, terminated), where the
    state is the one the action was chosen in."""

    rewards: list[float]
    trajectories: list[list[tuple[int, float, float, float, float, int, float, bool]]]

    @property
    def steps(self) -> list[int]:
        return [len(trajectory) for trajectory in self.trajectories]

    @property
    def mean_reward(self) -> float:
        return mean_std(self.rewards)[0]

    @property
    def min_reward(self) -> float:
        return float(min(self.rewards))

    @property
    def max_reward(self) -> float:
        return float(max(self.rewards))


def greedy_action(agent, cell: int) -> int:
    """Frozen-policy readout; unseen states fall back to the zero-Q tie."""
    try:
        return agent.select(cell)
    except KeyError:
        return 0


def evaluate(agent, config: TrainConfig, seed: int, n_episodes: int) -> EvalReport:
    """Greedy rollouts with learning disabled; the agent is never mutated."""
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    n_bins = config.n_bins
    env = CartPoleEnv()
    report = EvalReport(rewards=[], trajectories=[])
    for start in episode_starts(seed_stream(seed, EVAL_SEEDER), n_episodes):
        state = env.reset(start)
        total = 0.0
        trajectory = []
        while True:
            action = greedy_action(agent, discretize(state, n_bins))
            next_state, reward, terminated, truncated = env.step(action)
            trajectory.append((len(trajectory), *state, action, reward, terminated))
            total += reward
            if terminated or truncated:
                break
            state = next_state
        report.rewards.append(total)
        report.trajectories.append(trajectory)
    return report
