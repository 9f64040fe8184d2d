"""Reinforcement-learning lab: synaptic Q-learning and Bellman memory units
on an evolving network topology, balancing a cartpole.

numpy is imported by one module, `streams`, which replays its random
streams in Python, and only where a run explores (epsilon > 0), for its
per-step coin. Importing the package, every command that does not explore
(`train`, `eval` and `export-graph` at the default epsilon 0, `stats`,
`table2`, `--help`, a refused config) and loading an agent start and run
without it."""

from .cartpole import CartPoleEnv
from .streams import initial_states
from .discretize import cell_of, discretize, key_of
from .synaptic import SynapticAgent
from .bmu import BmuAgent, PoolAgent, PoolCapacityError
from .qtable import QTableAgent
from .graphio import GraphSnapshot, read_gexf, to_dot, to_gexf
from .metrics import DegreeHistogram, NetworkStats, degree_distribution, summary_table
from .config import ConfigError, TrainConfig
from .trainer import (
    AggregateMetrics,
    EpisodeRecord,
    EvalReport,
    RunMetrics,
    TrainResult,
    evaluate,
    multi_seed,
    run_episode,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
