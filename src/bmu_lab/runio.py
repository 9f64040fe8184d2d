"""Run-directory persistence: CSV emission, agent snapshots, the files of
each command's output directory.

Every command writes its files with one `commit`, so its output appears
whole or not at all and no file is overwritten: a new directory is filled in
a temporary sibling, each file as soon as it is rendered, and renamed into
place; files added to an existing one are all rendered and checked absent
first, and removed on failure. `train` renders and writes one seed at a time.
Layout of a training run directory:

    <out>/config.txt               resolved config, `config.format_config`
    <out>/aggregate.csv            cross-seed mean and +/-2 sigma band
    <out>/summary.json             aggregate summary with per-seed entries
    <out>/seed<k>/rewards.csv      per-episode metrics
    <out>/seed<k>/phase.csv        (x, theta) trace of one greedy rollout
    <out>/seed<k>/agent.json       trained agent state
    <out>/seed<k>/graph_final.dot/.gexf  final topology snapshot
    <out>/seed<k>/graph_ep<N>.dot       cadence snapshots, if enabled; the one
                                        at the seed's last episode also .gexf

An `eval` directory holds phase.csv, trajectories.csv and summary.json.
Directories written before these layouts, with a .gexf for every cadence
snapshot or one trajectory_ep<N>.csv per episode, stay valid: no command
reads those files.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Generator, Iterable, Iterator, Mapping
from dataclasses import asdict
from pathlib import Path

from .config import (AGENT_CLASSES, ConfigError, TrainConfig, config_from_entries,
                     format_config, parse_config_text)
from .graphio import GraphSnapshot, to_dot, to_gexf
from .metrics import DegreeHistogram, degree_hist_csv, degree_distribution
from .trainer import (
    AggregateMetrics,
    EvalReport,
    RunMetrics,
    TrainResult,
    aggregate_runs,
    evaluate,
    seed_runs,
)


def load_run_config(run_dir: Path) -> TrainConfig:
    return config_from_entries(parse_config_text((Path(run_dir) / "config.txt").read_text()))


def write_text(path: Path, text: str) -> None:
    """Create `path` with `text`; an existing file is an error and stays
    intact, and a write that fails part-way leaves no file behind."""
    handle = open(path, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
    except BaseException:
        os.unlink(path)
        raise


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


def eval_csvs(report: EvalReport, trajectories: bool = True) -> tuple[str, str]:
    """phase.csv and trajectories.csv, from one walk of the report's rows:
    each x and theta is rendered once for both. Without `trajectories`,
    only phase.csv is rendered and the second text is empty."""
    phase = ["episode,t,x,theta"]
    rows = ["episode,t,x,x_dot,theta,theta_dot,action,reward,terminated"]
    for episode, trajectory in enumerate(report.trajectories, start=1):
        for t, x, x_dot, theta, theta_dot, action, reward, terminated in trajectory:
            head = f"{episode},{t},{x!r}"
            angle = repr(theta)
            phase.append(f"{head},{angle}")
            if trajectories:
                rows.append(f"{head},{x_dot!r},{angle},{theta_dot!r},{action},{reward!r},"
                            f"{'true' if terminated else 'false'}")
    return "\n".join(phase) + "\n", "\n".join(rows) + "\n" if trajectories else ""


def save_agent(agent) -> str:
    return json.dumps(agent.serialize(), sort_keys=True)


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; json.loads would keep the
    last of two entries for one key."""
    payload = dict(pairs)
    if len(payload) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"key {key!r} is repeated in one object of the agent file")
    return payload


def load_agent(text: str):
    payload = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(payload, dict):
        raise ValueError(f"agent file must hold a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in AGENT_CLASSES:
        raise ValueError(f"unknown agent kind {kind!r} in agent file")
    cls = AGENT_CLASSES[kind]
    for key, value in cls.fixed_fields.items():
        if payload.get(key) != value:
            raise ValueError(f"{key} must be {value} in a {kind} agent file, "
                             f"got {payload.get(key)!r}")
    try:
        # the learner's settings, in the domains of a run's config
        TrainConfig(alpha=payload.get("alpha"), gamma=payload.get("gamma"))
    except ConfigError as exc:
        raise ValueError(f"{exc} in a {kind} agent file") from None
    try:
        return cls.deserialize(payload)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} agent file: {type(exc).__name__}: {exc}") from exc


def agent_state_hash(agent) -> str:
    import hashlib

    return hashlib.sha256(save_agent(agent).encode()).hexdigest()


def seed_summary(metrics: RunMetrics, agent) -> dict:
    # a seed that failed in its first episode has no final values; a fresh
    # agent's neurons are its spawns
    return {
        "seed": metrics.seed,
        "converged": metrics.converged,
        "episodes_to_convergence": metrics.episodes_to_convergence,
        "episodes_run": metrics.episodes_run,
        "failed": metrics.failed,
        "final_reward": metrics.rewards[-1] if metrics.rewards else None,
        "final_moving_avg": metrics.moving_avg[-1] if metrics.rewards else None,
        "total_spawned": metrics.neurons[-1] if metrics.neurons else 0,
        "final_stats": asdict(agent.stats()),
        "wall_clock_seconds": metrics.wall_clock_seconds,
    }


def snapshot_files(snapshot: GraphSnapshot, stem: str) -> Iterator[tuple[str, str]]:
    yield f"{stem}.dot", to_dot(snapshot)
    yield f"{stem}.gexf", to_gexf(snapshot)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def commit(directory: Path, files: Mapping[str, str] | Iterable[tuple[str, str]]) -> None:
    """Write `files` (path relative to `directory` -> text) whole or not at all.

    An absent `directory` is filled in a temporary sibling, each file as it
    arrives, and renamed into place; the rename never replaces a directory
    made meanwhile, even an empty one. Into an existing `directory` the files
    are added only if none of them exists yet, checked before the first
    write; the directory itself is never replaced, so it keeps its owner and
    mode. On failure, also one raised while `files` is iterated, everything
    the call made is removed again, parent directories included.
    """
    directory = Path(directory)
    if isinstance(files, Mapping):
        files = files.items()
    made: list[Path] = []  # each directory and file this call creates, in order
    try:
        if directory.exists():
            root = directory
            files = list(files)
            taken = [name for name, _ in files if (root / name).exists()]
            if taken:
                raise FileExistsError(f"{root / taken[0]} already exists")
        else:
            made += _make_dirs(directory.parent)
            # a plain mkdir gives the usual permissions, where mkdtemp's are 0700
            root = directory.with_name(f".{directory.name}.{os.urandom(4).hex()}")
            root.mkdir()
            made.append(root)
        for name, text in files:
            path = root / name
            made += _make_dirs(path.parent)
            write_text(path, text)
            made.append(path)
        if root != directory:
            if directory.exists():
                raise FileExistsError(f"{directory} was made while it was being written")
            os.rename(root, directory)
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink()
        raise


def _make_dirs(directory: Path) -> list[Path]:
    """Make `directory` and its missing parents; returns those made, outermost first."""
    missing = []
    while not directory.exists():
        missing.insert(0, directory)
        directory = directory.parent
    for path in missing:
        path.mkdir()
    return missing


def _refuse_filled(out_dir: Path) -> None:
    if out_dir.exists() and any(out_dir.iterdir()):
        raise FileExistsError(f"run directory {out_dir} already exists and is not empty")


def seed_files(config: TrainConfig,
               result: TrainResult) -> Generator[tuple[str, str], None, dict]:
    """The files of one seed's directory, rendered one at a time; returns the
    seed's summary entry."""
    metrics, agent = result.metrics, result.agent
    seed_dir = f"seed{metrics.seed}/"
    yield seed_dir + "rewards.csv", rewards_csv(metrics)
    yield seed_dir + "agent.json", save_agent(agent) + "\n"
    table = agent.value_table()  # encoder tables or Q rows, by kind
    if table is not None:
        yield seed_dir + table[0], table[1]
    final = agent.snapshot()
    final_dot, final_gexf = to_dot(final), to_gexf(final)
    yield seed_dir + "graph_final.dot", final_dot
    yield seed_dir + "graph_final.gexf", final_gexf
    for episode, snapshot in sorted(result.snapshots.items()):
        stem = f"{seed_dir}graph_ep{episode}"
        # DOT holds all a snapshot does; the last episode's GEXF is kept so
        # export-graph's replay of it can be checked in both formats. That
        # snapshot is the final one unless the pool failed after it.
        if episode != metrics.episodes_run:
            yield f"{stem}.dot", to_dot(snapshot)
        elif snapshot == final:
            yield f"{stem}.dot", final_dot
            yield f"{stem}.gexf", final_gexf
        else:
            yield from snapshot_files(snapshot, stem)
    report = evaluate(agent, config, metrics.seed, n_episodes=1)
    yield seed_dir + "phase.csv", eval_csvs(report, trajectories=False)[0]
    entry = seed_summary(metrics, agent)
    entry["eval_reward"] = report.rewards[0]
    yield seed_dir + "summary.json", _json(entry)
    return entry


def execute_train_run(config: TrainConfig, out_dir: Path) -> dict:
    """Train the configured seeds into `out_dir`, writing each seed's files
    and dropping its agent before the next seed trains.

    A non-empty `out_dir` is refused, before training and again once every
    file is rendered; an empty one is filled.
    """
    out_dir = Path(out_dir)
    _refuse_filled(out_dir)
    summary = {"agent": config.agent, "seeds": list(config.seeds)}

    def files():
        yield "config.txt", format_config(config)
        curves, per_seed = [], []
        for result in seed_runs(config):
            if result.metrics.failed is None:
                curves.append(result.metrics.moving_avg)
            per_seed.append((yield from seed_files(config, result)))
            del result  # so its agent is dropped before the next seed trains
        aggregate = aggregate_runs(curves, [e["episodes_to_convergence"] for e in per_seed])
        yield "aggregate.csv", aggregate_csv(aggregate)
        summary.update({
            "converged_count": aggregate.converged_count,
            "convergence_episodes": aggregate.convergence_episodes,
            "failed_seeds": [e["seed"] for e in per_seed if e["failed"] is not None],
            "episodes": aggregate.episodes,
            "per_seed": per_seed,
            "wall_clock_seconds": sum(e["wall_clock_seconds"] for e in per_seed),
        })
        yield "summary.json", _json(summary)
        _refuse_filled(out_dir)

    commit(out_dir, files())
    return summary


def eval_files(report: EvalReport) -> Iterator[tuple[str, str]]:
    """The files of an `eval` directory, rendered one at a time."""
    phase, trajectories = eval_csvs(report)
    yield "phase.csv", phase
    yield "trajectories.csv", trajectories
    summary = {"episodes": len(report.rewards), **{
        key: getattr(report, key)
        for key in ("rewards", "steps", "mean_reward", "min_reward", "max_reward")}}
    yield "summary.json", _json(summary)


def degree_files(snapshot: GraphSnapshot) -> tuple[dict[str, str], DegreeHistogram]:
    """The files of a `stats` directory, and the histogram they hold."""
    hist = degree_distribution(snapshot)
    return {"degree_hist.csv": degree_hist_csv(hist)}, hist
