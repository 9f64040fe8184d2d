"""Reinforcement-learning lab: synaptic Q-learning and Bellman memory units
on an evolving network topology, balancing a cartpole."""

from .cartpole import CartPoleEnv, CartState, EnvParams, StepOutcome, is_terminal, step
from .discretize import BinSpec, discretize, key_of, parse_key
from .synaptic import SynapticAgent, gamma_to_tau, synaptic_filter, tau_to_gamma
from .bmu import BmuAgent, PoolAgent, PoolCapacityError
from .qtable import QTableAgent
from .graphio import GraphSnapshot, read_dot, read_gexf, to_dot, to_gexf
from .metrics import DegreeHistogram, NetworkStats, degree_distribution, summary_table
from .trainer import (
    AggregateMetrics,
    ConfigError,
    EpisodeRecord,
    EvalReport,
    RunMetrics,
    TrainConfig,
    TrainResult,
    convergence_episode,
    evaluate,
    multi_seed,
    run_episode,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
