"""Command-line entry point: train, eval, export-graph, stats, table2."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .graphio import read_gexf
from .metrics import summary_table
from .runio import (
    config_from_entries,
    execute_train_run,
    load_agent,
    load_run_config,
    parse_config_text,
    write_degree_stats,
    write_eval_run,
    write_snapshot,
    write_text,
)
from .trainer import ConfigError, evaluate, train

SEED_ENV_VAR = "BMU_LAB_SEED"


def _default_seed_base() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmu-lab",
        description="Synaptic Q-learning and Bellman memory unit lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train an agent across seeds")
    p_train.add_argument("--agent", default=None,
                         choices=("synaptic", "bmu", "bmu-pool", "qtable"))
    p_train.add_argument("--out", required=True, help="run output directory")
    p_train.add_argument("--config", default=None, help="flat key=value config file")
    p_train.add_argument("--seeds", type=int, default=None,
                         help="number of seeds, counted up from the seed base")
    p_train.add_argument("--seed-base", type=int, default=None,
                         help=f"first seed (default: ${SEED_ENV_VAR} or 0)")
    p_train.add_argument("--seed-list", default=None,
                         help="explicit comma-separated seeds, overrides --seeds")
    for flag, key in (
        ("--gamma", "gamma"), ("--alpha", "alpha"), ("--bins", "n_bins"),
        ("--kappa", "kappa"), ("--max-steps", "max_steps"),
        ("--max-episodes", "max_episodes"),
        ("--convergence-reward", "convergence_reward"),
        ("--window", "convergence_window"), ("--epsilon", "epsilon"),
        ("--epsilon-decay", "epsilon_decay"), ("--c-gain", "c_gain"),
        ("--snapshot-every", "snapshot_every"), ("--q-init", "q_init"),
        ("--encoder-init", "encoder_init"), ("--pool-capacity", "pool_capacity"),
        ("--theta-limit", "theta_limit"), ("--x-limit", "x_limit"),
        ("--x-bin-bound", "x_bin_bound"), ("--x-dot-bound", "x_dot_bound"),
        ("--theta-dot-bound", "theta_dot_bound"),
    ):
        p_train.add_argument(flag, dest=f"cfg_{key}", default=None)
    p_train.add_argument("--qtable-dense", action="store_true", default=False)

    p_eval = sub.add_parser("eval", help="greedy rollouts of a trained agent")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--episodes", type=int, default=5)
    p_eval.add_argument("--seed", type=int, default=None,
                        help="which trained seed to load (default: first in the run)")
    p_eval.add_argument("--eval-seed", type=int, default=None,
                        help="seed for evaluation initial conditions")
    p_eval.add_argument("--out", default=None)

    p_export = sub.add_parser("export-graph", help="export topology at an episode")
    p_export.add_argument("--run", required=True)
    p_export.add_argument("--episode", type=int, required=True)
    p_export.add_argument("--seed", type=int, default=None)
    p_export.add_argument("--out", default=None)

    p_stats = sub.add_parser("stats", help="degree distribution of a trained graph")
    p_stats.add_argument("--run", required=True)
    p_stats.add_argument("--seed", type=int, default=None)
    p_stats.add_argument("--out", default=None)

    p_table = sub.add_parser("table2", help="comparison table across runs")
    p_table.add_argument("--runs", nargs="+", required=True)
    p_table.add_argument("--out", default="table2.csv")

    return parser


def _collect_overrides(args) -> dict[str, str]:
    overrides = {}
    for key, value in vars(args).items():
        if key.startswith("cfg_") and value is not None:
            overrides[key[4:]] = str(value)
    return overrides


def _resolve_seeds(args) -> tuple[int, ...]:
    if args.seed_list:
        return tuple(int(tok) for tok in args.seed_list.split(",") if tok.strip())
    base = args.seed_base if args.seed_base is not None else _default_seed_base()
    count = args.seeds if args.seeds is not None else 1
    if count < 1:
        raise ConfigError(f"seeds count must be >= 1, got {count}")
    return tuple(range(base, base + count))


def _handle_train(args) -> int:
    entries: dict[str, str] = {}
    if args.config:
        entries.update(parse_config_text(Path(args.config).read_text()))
    entries.update(_collect_overrides(args))
    if args.agent is not None:
        entries["agent"] = args.agent
    if args.qtable_dense:
        entries["qtable_dense"] = "true"
    config = config_from_entries(entries)
    config = config.with_seeds(_resolve_seeds(args))
    config.validate()

    summary = execute_train_run(config, Path(args.out))
    converged = summary["converged_count"]
    total = len(summary["seeds"])
    print(f"agent={config.agent} seeds={total} converged={converged}/{total}")
    for entry in summary["per_seed"]:
        episode = entry["episodes_to_convergence"]
        label = f"converged at episode {episode}" if entry["converged"] \
            else f"not converged in {entry['episodes_run']} episodes"
        stats = entry["final_stats"]
        print(f"  seed {entry['seed']}: {label}; "
              f"neurons={stats['neurons']} params={stats['parameter_count']}")
    print(f"run written to {args.out}")
    return 0


def _seed_dir(run_dir: Path, config, seed: int | None) -> tuple[Path, int]:
    chosen = seed if seed is not None else config.seeds[0]
    if chosen not in config.seeds:
        raise FileNotFoundError(f"seed {chosen} is not part of run {run_dir}")
    directory = run_dir / f"seed{chosen}"
    if not directory.is_dir():
        raise FileNotFoundError(f"missing seed directory {directory}")
    return directory, chosen


def _handle_eval(args) -> int:
    run_dir = Path(args.run)
    config = load_run_config(run_dir)
    seed_dir, chosen = _seed_dir(run_dir, config, args.seed)
    agent = load_agent((seed_dir / "agent.json").read_text())
    eval_seed = args.eval_seed if args.eval_seed is not None else chosen
    report = evaluate(agent, config, eval_seed, args.episodes)
    out_dir = Path(args.out) if args.out else run_dir / f"eval_seed{chosen}"
    summary = write_eval_run(report, out_dir)
    print(f"eval over {args.episodes} episodes: mean={summary['mean_reward']} "
          f"min={summary['min_reward']} max={summary['max_reward']}")
    print(f"traces written to {out_dir}")
    return 0


def _handle_export_graph(args) -> int:
    run_dir = Path(args.run)
    config = load_run_config(run_dir)
    _, chosen = _seed_dir(run_dir, config, args.seed)
    if args.episode < 1:
        raise ValueError(f"--episode must be >= 1, got {args.episode}")
    # deterministic replay of the recorded run, stopped at the requested episode
    replay = replace(config, max_episodes=min(config.max_episodes, args.episode))
    result = train(replay, chosen, snapshot_episodes={args.episode})
    if args.episode not in result.snapshots:
        raise ValueError(
            f"run for seed {chosen} ended after {result.metrics.episodes_run} "
            f"episodes, before episode {args.episode}"
        )
    out_dir = Path(args.out) if args.out else run_dir / "export"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_snapshot(out_dir, f"graph_ep{args.episode}", result.snapshots[args.episode])
    print(f"graph at episode {args.episode} written to {out_dir}")
    return 0


def _handle_stats(args) -> int:
    run_dir = Path(args.run)
    config = load_run_config(run_dir)
    seed_dir, chosen = _seed_dir(run_dir, config, args.seed)
    snapshot = read_gexf((seed_dir / "graph_final.gexf").read_text())
    out_dir = Path(args.out) if args.out else run_dir / f"stats_seed{chosen}"
    summary = write_degree_stats(snapshot, out_dir)
    print(f"nodes={summary['nodes']} edges={summary['edges']} "
          f"avg_degree={summary['average_degree']:.4g} "
          f"max_degree={summary['max_degree']}")
    print(f"histogram written to {out_dir}")
    return 0


def _handle_table2(args) -> int:
    rows = []
    for run in args.runs:
        summary_path = Path(run) / "summary.json"
        if not summary_path.is_file():
            raise FileNotFoundError(f"no summary.json under run directory {run}")
        summary = json.loads(summary_path.read_text())
        episodes = [e for e in summary["convergence_episodes"] if e is not None]
        finals = [entry["final_stats"] for entry in summary["per_seed"]]
        fan_ins = [s["avg_fan_in"] for s in finals if s["avg_fan_in"] is not None]
        rows.append({
            "agent": summary["agent"],
            "episodes_to_convergence": _median(episodes),
            "neurons": _median([s["neurons"] for s in finals]),
            "avg_fan_in": _median(fan_ins),
            "parameters": _median([s["parameter_count"] for s in finals]),
        })
    csv_text, aligned = summary_table(rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_text(out, csv_text)
    print(aligned, end="")
    print(f"table written to {out}")
    return 0


def _median(values):
    if not values:
        return None
    ranked = sorted(values)
    mid = len(ranked) // 2
    if len(ranked) % 2 == 1:
        return ranked[mid]
    lo, hi = ranked[mid - 1], ranked[mid]
    if isinstance(lo, int) and isinstance(hi, int) and (lo + hi) % 2 == 0:
        return (lo + hi) // 2
    return (lo + hi) / 2


_HANDLERS = {
    "train": _handle_train,
    "eval": _handle_eval,
    "export-graph": _handle_export_graph,
    "stats": _handle_stats,
    "table2": _handle_table2,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, FileNotFoundError, FileExistsError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
