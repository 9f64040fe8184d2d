"""Run-directory persistence: config files, CSV emission, agent snapshots.

All files are write-once; re-running a command never overwrites an
existing artifact. A training run directory is built in a temporary
sibling and renamed into place when complete, so a failed run leaves
nothing behind. Layout of a training run directory:

    <out>/config.txt               resolved flat key=value config
    <out>/aggregate.csv            cross-seed mean and +/-2 sigma band
    <out>/summary.json             aggregate summary with per-seed entries
    <out>/seed<k>/rewards.csv      per-episode metrics
    <out>/seed<k>/phase.csv        (x, theta) trace of one greedy rollout
    <out>/seed<k>/agent.json       trained agent state
    <out>/seed<k>/graph_final.dot/.gexf  final topology snapshot
    <out>/seed<k>/graph_ep<N>.dot/.gexf  cadence snapshots, if enabled
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

from .core import INIT_MODES, KAPPA
from .graphio import GraphSnapshot, to_dot, to_gexf
from .metrics import degree_hist_csv, degree_distribution
from .trainer import (
    AGENT_CLASSES,
    AggregateMetrics,
    ConfigError,
    EvalReport,
    RunMetrics,
    TrainConfig,
    evaluate,
    multi_seed,
)


def format_config(config: TrainConfig) -> str:
    lines = ["# bmu-lab run configuration"]
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if f.name == "seeds":
            rendered = ",".join(str(s) for s in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
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
    directories and config files replay unchanged. The retired keys `kappa`
    (which could only be 2) and `c_gain` (which changed no choice) are
    skipped.
    """
    base = TrainConfig()
    known = {f.name for f in fields(TrainConfig)}
    values: dict = {}
    legacy: dict[str, str] = {}
    for key, raw in entries.items():
        if key in ("q_init", "encoder_init"):
            if raw not in INIT_MODES:
                raise ConfigError(f"{key} must be one of {INIT_MODES}, got {raw!r}")
            legacy[key] = raw
            continue
        if key == "kappa" and raw != str(KAPPA):
            raise ConfigError(f"kappa must be {KAPPA}, the cartpole's two actions, got {raw!r}")
        if key in ("kappa", "c_gain"):
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "seeds":
            try:
                values[key] = tuple(int(tok) for tok in raw.split(",") if tok.strip())
            except ValueError as exc:
                raise ConfigError(f"seeds must be comma-separated integers, got {raw!r}") from exc
            continue
        current = getattr(base, key)
        try:
            if isinstance(current, bool):
                values[key] = _BOOL_WORDS[raw.lower()]
            elif isinstance(current, int):
                values[key] = int(raw)
            elif isinstance(current, float):
                values[key] = float(raw)
            else:
                values[key] = raw
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
    if legacy and "init" not in values:
        values["init"] = _legacy_init(values.get("agent", base.agent), legacy)
    return replace(base, **values)


def load_run_config(run_dir: Path) -> TrainConfig:
    config_path = Path(run_dir) / "config.txt"
    if not config_path.is_file():
        raise FileNotFoundError(f"no config.txt under run directory {run_dir}")
    return config_from_entries(parse_config_text(config_path.read_text()))


def write_text(path: Path, text: str) -> None:
    """Create `path` with `text`; an existing file is an error and stays intact."""
    with open(path, "x", encoding="utf-8") as handle:
        handle.write(text)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rewards_csv(metrics: RunMetrics) -> str:
    lines = ["episode,reward,moving_avg,std,neurons,avg_fan_in,params"]
    for i in range(metrics.episodes_run):
        lines.append(",".join([
            str(i + 1),
            _fmt(metrics.rewards[i]),
            _fmt(metrics.moving_avg[i]),
            _fmt(metrics.moving_std[i]),
            str(metrics.neurons[i]),
            _fmt(metrics.avg_fan_in[i]),
            str(metrics.parameters[i]),
        ]))
    return "\n".join(lines) + "\n"


def aggregate_csv(aggregate: AggregateMetrics) -> str:
    lines = ["episode,mean,lo_band,hi_band"]
    for i in range(aggregate.episodes):
        lines.append(f"{i + 1},{aggregate.mean[i]!r},"
                     f"{aggregate.lo_band[i]!r},{aggregate.hi_band[i]!r}")
    return "\n".join(lines) + "\n"


def phase_csv(report: EvalReport) -> str:
    lines = ["episode,t,x,theta"]
    for episode, trajectory in enumerate(report.trajectories, start=1):
        for t, x, _, theta, *_ in trajectory:
            lines.append(f"{episode},{t},{x!r},{theta!r}")
    return "\n".join(lines) + "\n"


def trajectory_csv(trajectory) -> str:
    """One evaluation episode's rows of `EvalReport.trajectories`."""
    lines = ["t,x,x_dot,theta,theta_dot,action,reward,terminated"]
    for t, x, x_dot, theta, theta_dot, action, reward, terminated in trajectory:
        lines.append(f"{t},{x!r},{x_dot!r},{theta!r},{theta_dot!r},{action},{reward!r},"
                     f"{'true' if terminated else 'false'}")
    return "\n".join(lines) + "\n"


def save_agent(agent) -> str:
    return json.dumps(agent.serialize(), sort_keys=True)


def load_agent(text: str):
    payload = json.loads(text)
    kind = payload.get("kind")
    if kind not in AGENT_CLASSES:
        raise ValueError(f"unknown agent kind {kind!r} in agent file")
    cls = AGENT_CLASSES[kind]
    for key, value in cls.fixed_fields.items():
        if payload.get(key) != value:
            raise ValueError(f"{key} must be {value} in a {kind} agent file, "
                             f"got {payload.get(key)!r}")
    return cls.deserialize(payload)


def agent_state_hash(agent) -> str:
    return hashlib.sha256(save_agent(agent).encode()).hexdigest()


def seed_summary(metrics: RunMetrics, agent) -> dict:
    # a seed that failed in its first episode has no final values
    return {
        "seed": metrics.seed,
        "converged": metrics.converged,
        "episodes_to_convergence": metrics.episodes_to_convergence,
        "episodes_run": metrics.episodes_run,
        "failed": metrics.failed,
        "final_reward": metrics.rewards[-1] if metrics.rewards else None,
        "final_moving_avg": metrics.moving_avg[-1] if metrics.rewards else None,
        "total_spawned": sum(metrics.spawned),
        "final_stats": asdict(agent.stats()),
        "wall_clock_seconds": metrics.wall_clock_seconds,
    }


def write_snapshot(directory: Path, stem: str, snapshot: GraphSnapshot) -> None:
    write_text(directory / f"{stem}.dot", to_dot(snapshot))
    write_text(directory / f"{stem}.gexf", to_gexf(snapshot))


def execute_train_run(config: TrainConfig, out_dir: Path) -> dict:
    """Train every configured seed and lay down the full run directory.

    The directory is written under a temporary sibling and renamed to
    `out_dir` only once every file is in it; an existing empty `out_dir`
    is replaced, a non-empty one is refused.
    """
    out_dir = Path(out_dir)
    refusal = f"run directory {out_dir} already exists and is not empty"
    if out_dir.exists() and any(out_dir.iterdir()):
        raise FileExistsError(refusal)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    temp_dir = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        # a plain mkdir inside the 0700 temporary gives the usual permissions
        staging = temp_dir / out_dir.name
        staging.mkdir()
        summary = _write_train_run(config, staging)
        try:
            os.rename(staging, out_dir)
        except OSError as exc:
            # out_dir was filled while this run was training
            if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
            raise FileExistsError(refusal) from exc
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)
    return summary


def _write_train_run(config: TrainConfig, out_dir: Path) -> dict:
    aggregate, results = multi_seed(config)
    write_text(out_dir / "config.txt", format_config(config))
    write_text(out_dir / "aggregate.csv", aggregate_csv(aggregate))

    per_seed = []
    for result in results:
        metrics = result.metrics
        seed_dir = out_dir / f"seed{metrics.seed}"
        seed_dir.mkdir()
        write_text(seed_dir / "rewards.csv", rewards_csv(metrics))
        write_text(seed_dir / "agent.json", save_agent(result.agent) + "\n")
        table = result.agent.value_table()  # encoder tables or Q rows, by kind
        if table is not None:
            write_text(seed_dir / table[0], table[1])
        write_snapshot(seed_dir, "graph_final", result.agent.snapshot())
        for episode, snapshot in sorted(result.snapshots.items()):
            write_snapshot(seed_dir, f"graph_ep{episode}", snapshot)
        report = evaluate(result.agent, config, metrics.seed, n_episodes=1)
        write_text(seed_dir / "phase.csv", phase_csv(report))
        entry = seed_summary(metrics, result.agent)
        entry["eval_reward"] = report.rewards[0]
        per_seed.append(entry)
        write_text(seed_dir / "summary.json",
                   json.dumps(entry, sort_keys=True, indent=2) + "\n")

    summary = {
        "agent": config.agent,
        "seeds": list(config.seeds),
        "converged_count": aggregate.converged_count,
        "convergence_episodes": aggregate.convergence_episodes,
        "failed_seeds": [r.metrics.seed for r in results if r.metrics.failed is not None],
        "episodes": aggregate.episodes,
        "per_seed": per_seed,
        "wall_clock_seconds": sum(r.metrics.wall_clock_seconds for r in results),
    }
    write_text(out_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def write_eval_run(report: EvalReport, out_dir: Path) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "phase.csv", phase_csv(report))
    for episode, trajectory in enumerate(report.trajectories, start=1):
        write_text(out_dir / f"trajectory_ep{episode}.csv", trajectory_csv(trajectory))
    summary = {
        "episodes": len(report.rewards),
        "rewards": report.rewards,
        "steps": report.steps,
        "mean_reward": report.mean_reward,
        "min_reward": report.min_reward,
        "max_reward": report.max_reward,
    }
    write_text(out_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def write_degree_stats(snapshot: GraphSnapshot, out_dir: Path) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hist = degree_distribution(snapshot)
    write_text(out_dir / "degree_hist.csv", degree_hist_csv(hist))
    return {
        "nodes": hist.nodes,
        "edges": hist.edges,
        "average_degree": hist.average,
        "max_degree": hist.max_degree,
    }
