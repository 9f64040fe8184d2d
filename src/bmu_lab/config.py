"""The run's config: `TrainConfig`, its fields' domains and its text format.

A `TrainConfig` is checked when it is made, `dataclasses.replace` included,
so no config outside its domains exists. `config.txt` is flat `key = value`
lines (`format_config`, `parse_config_text`); `config_from_entries` reads
them over the defaults and migrates the keys of older files.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace

from .bmu import BmuAgent, PoolAgent
from .cartpole import FAIL_REWARD, MAX_STEPS, STEP_REWARD, THETA_LIMIT, X_LIMIT
from .core import INIT_MODES, KAPPA
from .discretize import MASK, THETA_DOT_BOUND, X_BIN_BOUND, X_DOT_BOUND
from .qtable import QTableAgent
from .synaptic import SynapticAgent

AGENT_CLASSES = {cls.kind: cls for cls in (SynapticAgent, BmuAgent, PoolAgent, QTableAgent)}
AGENT_KINDS = tuple(AGENT_CLASSES)


class ConfigError(ValueError):
    pass


def _domain(declared, default):
    """`check(key, value)` for a tuple of choices, a rule already written so,
    or an interval such as "(0, 1]" or "[1, inf)": an end is inside only
    where its bracket is closed, so NaN never is and inf only where one is.
    A value must also be of the default's type, where a bool is no number."""
    if callable(declared):
        return declared
    if isinstance(declared, tuple):
        def check(key, value):
            if not any(isinstance(value, type(c)) and value == c for c in declared):
                raise ConfigError(f"{key} must be one of {declared}, got {value!r}")
        return check
    lo_text, hi_text = declared[1:-1].split(", ")
    lo, hi = float(lo_text), float(hi_text)
    lo_closed, hi_closed = declared[0] == "[", declared[-1] == "]"
    rule = f">= {lo_text}" if lo_closed and declared.endswith(", inf)") else f"in {declared}"
    kind, noun = ((numbers.Integral, "an integer") if isinstance(default, int)
                  else (numbers.Real, "a real number"))

    def check(key, value):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"{key} must be {noun}, got {value!r}")
        number = value
        if kind is numbers.Real:
            # the float the config stores is the value checked
            try:
                number = float(value)
            except OverflowError:
                raise ConfigError(f"{key} must be a real number a float can hold") from None
        if not ((lo <= number if lo_closed else lo < number)
                and (number <= hi if hi_closed else number < hi)):
            raise ConfigError(f"{key} must be {rule}, got {value}")
    return check


def _seeds_rule(key, seeds):
    if not seeds:
        raise ConfigError(f"{key} must contain at least one seed")
    if (not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in seeds)
            or min(seeds) < 0 or len(set(seeds)) < len(seeds)):
        raise ConfigError(f"{key} must be distinct non-negative integers, got "
                          f"{','.join(map(str, seeds))}")


def _field(default, domain, **flag):
    """A config field with its domain, parsed once, and as `flag=` its
    `train` flag where that is not `--name-with-dashes` (None: no flag)."""
    return field(default=default, metadata={"domain": _domain(domain, default), **flag})


@dataclass(frozen=True)
class TrainConfig:
    """Full recipe for a training run: the learner's and the run's settings.

    The task is fixed: its limits, step cap and rewards are `cartpole`'s
    constants and its bin bounds `discretize`'s. Each field declares its
    default, its domain and its `train` flag. A value outside its field's
    domain raises `ConfigError` for the first such field, and an int given
    to a real field is stored as that float.
    """

    agent: str = _field("synaptic", AGENT_KINDS, flag=None)
    gamma: float = _field(0.99, "(0, 1)")
    alpha: float = _field(0.9, "(0, 1]")
    n_bins: int = _field(10, f"[2, {MASK + 1}]", flag="--bins")
    # at most the return of an episode that survives to the step cap
    convergence_reward: float = _field(200.0, f"(-inf, {MAX_STEPS * STEP_REWARD!r}]")
    convergence_window: int = _field(20, "[1, inf)", flag="--window")
    max_episodes: int = _field(1000, "[1, inf)")
    seeds: tuple[int, ...] = _field((0,), _seeds_rule, flag=None)
    epsilon: float = _field(0.0, "[0, 1]")
    epsilon_decay: float = _field(1.0, "(0, 1]")
    snapshot_every: int = _field(0, "[0, inf)")
    init: str = _field("optimistic", INIT_MODES)
    pool_capacity: int = _field(300, "[1, inf)")

    def __post_init__(self):
        self.validate()
        # so that alpha = 1 writes to config.txt and agent.json as it replays
        for f in fields(self):
            if isinstance(f.default, float):
                object.__setattr__(self, f.name, float(getattr(self, f.name)))

    def validate(self) -> None:
        for f in fields(self):
            f.metadata["domain"](f.name, getattr(self, f.name))


def format_config(config: TrainConfig) -> str:
    lines = ["# bmu-lab run configuration"]
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        rendered = ",".join(map(str, value)) if f.name == "seeds" else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment, blank lines ignored."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}

# keys of settings that became constants, with the one value each now has
RETIRED_KEYS = {
    "kappa": KAPPA, "max_steps": MAX_STEPS, "theta_limit": THETA_LIMIT, "x_limit": X_LIMIT,
    "x_bin_bound": X_BIN_BOUND, "x_dot_bound": X_DOT_BOUND, "theta_dot_bound": THETA_DOT_BOUND,
    "step_reward": STEP_REWARD, "fail_reward": FAIL_REWARD, "qtable_dense": False,
}


def _legacy_init(agent: str, legacy: dict[str, str]) -> str:
    """The init of a config written before the `init` key: the key that
    applied to the run's kind decides, with that key's old default."""
    if agent == "bmu":
        return legacy.get("encoder_init", "uniform")
    if agent == "bmu-pool":
        return "zeros"
    q_init = legacy.get("q_init", "optimistic")
    # the Q-table had no uniform init and started such runs at zeros
    return "zeros" if agent == "qtable" and q_init == "uniform" else q_init


def config_from_entries(entries: dict[str, str]) -> TrainConfig:
    """A config from flat entries over the `TrainConfig` defaults.

    The legacy keys `q_init` and `encoder_init` still parse: when `init` is
    absent they decide it as they did for the run's kind, so old run
    directories and config files replay unchanged. A key of `RETIRED_KEYS`
    is skipped where its value parses equal to its constant and is an error
    otherwise; `c_gain`, which changed no choice, is skipped at any value.
    """
    base = TrainConfig()
    known = {f.name for f in fields(TrainConfig)}.union(RETIRED_KEYS)
    values: dict = {}
    legacy: dict[str, str] = {}
    for key, raw in entries.items():
        if key in ("q_init", "encoder_init"):
            if raw not in INIT_MODES:
                raise ConfigError(f"{key} must be one of {INIT_MODES}, got {raw!r}")
            legacy[key] = raw
            continue
        if key == "c_gain":
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "seeds":
            try:
                values[key] = tuple(int(tok) for tok in raw.split(",") if tok.strip())
            except ValueError as exc:
                raise ConfigError(f"seeds must be comma-separated integers, got {raw!r}") from exc
            continue
        current = RETIRED_KEYS[key] if key in RETIRED_KEYS else getattr(base, key)
        try:
            # an int, float or str key parses by its default's type
            value = _BOOL_WORDS[raw.lower()] if isinstance(current, bool) else type(current)(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
        if key not in RETIRED_KEYS:
            values[key] = value
        elif value != current:
            # the one retired switch turned a Q-table mode on; the rest are the task's
            reason = ("its mode is retired" if isinstance(current, bool)
                      else "a constant of the cartpole task")
            raise ConfigError(f"{key} must be {current!r}, {reason}, got {raw!r}")
    if legacy and "init" not in values:
        values["init"] = _legacy_init(values.get("agent", base.agent), legacy)
    return replace(base, **values)
