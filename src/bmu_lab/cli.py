"""Command-line entry point: train, eval, export-graph, stats, table2."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .config import AGENT_KINDS, ConfigError, TrainConfig, config_from_entries, parse_config_text
from .graphio import read_gexf
from .metrics import summary_table
from .runio import (
    commit,
    degree_files,
    eval_files,
    execute_train_run,
    load_agent,
    load_run_config,
    snapshot_files,
)
from .trainer import evaluate, train


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmu-lab",
        description="Synaptic Q-learning and Bellman memory unit lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train an agent across seeds")
    p_train.add_argument("--agent", default=None,
                         choices=AGENT_KINDS)
    p_train.add_argument("--out", required=True, help="run output directory")
    p_train.add_argument("--config", default=None, help="flat key=value config file")
    p_train.add_argument("--seeds", type=int, default=None,
                         help="number of seeds, counted up from the seed base")
    p_train.add_argument("--seed-base", type=int, default=None,
                         help="first seed (default 0)")
    p_train.add_argument("--seed-list", default=None,
                         help="explicit comma-separated seeds, overrides --seeds")
    for f in fields(TrainConfig):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if flag:
            p_train.add_argument(flag, dest=f"cfg_{f.name}", default=None)

    on_run = {}  # the commands that read one seed of a trained run
    for name, help_text in (("eval", "greedy rollouts of a trained agent"),
                            ("export-graph", "export topology at an episode"),
                            ("stats", "degree distribution of a trained graph")):
        on_run[name] = sub.add_parser(name, help=help_text)
        on_run[name].add_argument("--run", required=True)
        on_run[name].add_argument("--seed", type=int, default=None,
                                  help="which trained seed (default: first in the run)")
        on_run[name].add_argument("--out", default=None)
    on_run["eval"].add_argument("--episodes", type=int, default=5)
    on_run["eval"].add_argument("--eval-seed", type=int, default=None,
                                help="seed for evaluation initial conditions")
    on_run["export-graph"].add_argument("--episode", type=int, required=True)

    p_table = sub.add_parser("table2", help="comparison table across runs")
    p_table.add_argument("--runs", nargs="+", required=True)
    p_table.add_argument("--out", default="table2.csv")

    return parser


def _seeds_entry(args) -> str | None:
    """The `seeds` entry the flags give: `--seed-list` as given, else
    `--seeds` seeds (default 1) counted up from `--seed-base` (default 0).
    None when no seed flag is given, so the config file's seeds stand."""
    if args.seed_list:
        return args.seed_list
    if args.seeds is None and args.seed_base is None:
        return None
    count = args.seeds if args.seeds is not None else 1
    base = args.seed_base if args.seed_base is not None else 0
    if count < 1:
        raise ConfigError(f"seeds count must be >= 1, got {count}")
    return ",".join(str(seed) for seed in range(base, base + count))


def _handle_train(args) -> int:
    entries = parse_config_text(Path(args.config).read_text()) if args.config else {}
    entries.update({key[4:]: str(value) for key, value in vars(args).items()
                    if key.startswith("cfg_") and value is not None})
    if args.agent is not None:
        entries["agent"] = args.agent
    seeds = _seeds_entry(args)
    if seeds is not None:
        entries["seeds"] = seeds
    config = config_from_entries(entries)
    summary = execute_train_run(config, Path(args.out))
    total = len(summary["seeds"])
    print(f"agent={config.agent} seeds={total} converged={summary['converged_count']}/{total}")
    for entry in summary["per_seed"]:
        if entry["failed"] is not None:
            label = f"failed after {entry['episodes_run']} episodes: {entry['failed']}"
        elif entry["converged"]:
            label = f"converged at episode {entry['episodes_to_convergence']}"
        else:
            label = f"not converged in {entry['episodes_run']} episodes"
        stats = entry["final_stats"]
        print(f"  seed {entry['seed']}: {label}; "
              f"neurons={stats['neurons']} params={stats['parameter_count']}")
    print(f"run written to {args.out}")
    if len(summary["failed_seeds"]) == total:
        raise RuntimeError(f"every seed failed: {summary['per_seed'][0]['failed']}")
    return 0


def _trained_seed(args, out_name: str) -> tuple[TrainConfig, Path, int, Path]:
    """The run's config, the `--seed` directory (default: the run's first
    seed), that seed, and the output directory: `--out`, else `out_name` in
    the run, with `{seed}` filled in."""
    run_dir = Path(args.run)
    config = load_run_config(run_dir)
    chosen = args.seed if args.seed is not None else config.seeds[0]
    if chosen not in config.seeds:
        raise FileNotFoundError(f"seed {chosen} is not part of run {run_dir}")
    seed_dir = run_dir / f"seed{chosen}"
    if not seed_dir.is_dir():
        raise FileNotFoundError(f"missing seed directory {seed_dir}")
    out_dir = Path(args.out) if args.out else run_dir / out_name.format(seed=chosen)
    return config, seed_dir, chosen, out_dir


def _handle_eval(args) -> int:
    if args.eval_seed is not None and args.eval_seed < 0:
        raise ValueError(f"--eval-seed must be >= 0, got {args.eval_seed}")
    if args.episodes < 1:
        raise ValueError(f"--episodes must be >= 1, got {args.episodes}")
    config, seed_dir, chosen, out_dir = _trained_seed(args, "eval_seed{seed}")
    agent = load_agent((seed_dir / "agent.json").read_text())
    eval_seed = args.eval_seed if args.eval_seed is not None else chosen
    report = evaluate(agent, config, eval_seed, args.episodes)
    commit(out_dir, eval_files(report))
    print(f"eval over {args.episodes} episodes: mean={report.mean_reward} "
          f"min={report.min_reward} max={report.max_reward}")
    print(f"traces written to {out_dir}")
    return 0


def _handle_export_graph(args) -> int:
    config, _, chosen, out_dir = _trained_seed(args, "export")
    if args.episode < 1:
        raise ValueError(f"--episode must be >= 1, got {args.episode}")
    # deterministic replay of the recorded run, stopped at the requested episode
    replay = replace(config, max_episodes=min(config.max_episodes, args.episode),
                     snapshot_every=0)
    result = train(replay, chosen)
    if result.metrics.episodes_run != args.episode:
        raise ValueError(f"run for seed {chosen} ended after {result.metrics.episodes_run} "
                         f"episodes, before episode {args.episode}")
    commit(out_dir, snapshot_files(result.agent.snapshot(), f"graph_ep{args.episode}"))
    print(f"graph at episode {args.episode} written to {out_dir}")
    return 0


def _handle_stats(args) -> int:
    _, seed_dir, _, out_dir = _trained_seed(args, "stats_seed{seed}")
    snapshot = read_gexf((seed_dir / "graph_final.gexf").read_text())
    files, hist = degree_files(snapshot)
    commit(out_dir, files)
    print(f"nodes={hist.nodes} edges={hist.edges} avg_degree={hist.average:.4g} "
          f"max_degree={hist.max_degree}")
    print(f"histogram written to {out_dir}")
    return 0


def _handle_table2(args) -> int:
    rows = []
    for run in args.runs:
        path = Path(run) / "summary.json"
        summary = json.loads(path.read_text())
        init = load_run_config(path.parent).init
        try:
            episodes = [e for e in summary["convergence_episodes"] if e is not None]
            # a failed seed's size is where it stopped, not where it converged
            finals = [entry["final_stats"] for entry in summary["per_seed"]
                      if entry.get("failed") is None]
            fan_ins = [s["avg_fan_in"] for s in finals if s["avg_fan_in"] is not None]
            rows.append({
                "agent": summary["agent"],
                "init": init,
                # runs written before per-seed failures had none
                "failed": len(summary.get("failed_seeds", ())),
                "episodes_to_convergence": _median(episodes),
                "neurons": _median([s["neurons"] for s in finals]),
                "avg_fan_in": _median(fan_ins),
                "parameters": _median([s["parameter_count"] for s in finals]),
            })
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc
    csv_text, aligned = summary_table(rows)
    out = Path(args.out)
    commit(out.parent, {out.name: csv_text})
    print(aligned, end="")
    print(f"table written to {out}")
    return 0


def _median(values):
    if not values:
        return None
    ranked = sorted(values)
    lo, hi = ranked[(len(ranked) - 1) // 2], ranked[len(ranked) // 2]
    # an integer column stays integer where its median is whole
    return (lo + hi) // 2 if isinstance(lo + hi, int) and (lo + hi) % 2 == 0 else (lo + hi) / 2


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
    except (OSError, ValueError, RuntimeError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
