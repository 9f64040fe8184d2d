"""bmu-lab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload train-converge --seed 0 --seconds 50 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing; their times
are scaled to a reference machine speed measured during the run. `--trace 1`
first runs the workload untraced for half of `--seconds`, then replays the
same rounds with every layer boundary wrapped, and reports the per-layer
metrics and the tracing overhead. The last line of stdout is a JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The exit code
is 1 when an output check failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5


def measure_setup_s() -> float:
    """Median time from a fresh interpreter start to configs validated."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter_ns()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                              stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter_ns() - start
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed / 1e9)
    return statistics.median(samples)


def layer_metrics(tracer, session, overhead_pct: float, wrap_ns: float) -> dict:
    """Per-layer metrics of a traced session, and its reconciliation."""
    from workloads import KINDS

    def us(name):
        return tracer.mean_ns(name) / 1e3

    def ms(name):
        return tracer.mean_ns(name) / 1e6

    episodes = tracer.calls("trainer.run_episode")
    values = {
        "cartpole.step.calls": (tracer.calls("cartpole.step"), "count"),
        "cartpole.step.us": (us("cartpole.step"), "us"),
        "cartpole.reset.calls": (tracer.calls("cartpole.reset"), "count"),
        "cartpole.reset.us": (us("cartpole.reset"), "us"),
        "discretize.calls": (tracer.calls("discretize"), "count"),
        "discretize.us": (us("discretize"), "us"),
    }
    for kind in KINDS:
        ensures = tracer.calls(f"{kind}.ensure")
        values.update({
            f"{kind}.select.us": (us(f"{kind}.select"), "us"),
            f"{kind}.update.us": (us(f"{kind}.update"), "us"),
            f"{kind}.ensure.us": (us(f"{kind}.ensure"), "us"),
            f"{kind}.spawn_ratio": (tracer.counts[f"{kind}.spawns"] / ensures
                                    if ensures else 0.0, "ratio"),
            f"{kind}.stats.calls": (tracer.calls(f"{kind}.stats"), "count"),
            f"{kind}.stats.us": (us(f"{kind}.stats"), "us"),
            f"{kind}.snapshot.us": (us(f"{kind}.snapshot"), "us"),
        })
    bookkeeping = tracer.self_ns("trainer.train") + tracer.self_ns("trainer.replay")
    values.update({
        "trainer.episodes": (episodes, "count"),
        "trainer.episode_self_us": (tracer.self_ns("trainer.run_episode") / episodes / 1e3
                                    if episodes else 0.0, "us"),
        "trainer.bookkeeping_us": (bookkeeping / episodes / 1e3 if episodes else 0.0, "us"),
        "trainer.evaluate.ms": (ms("trainer.evaluate"), "ms"),
        "trainer.replay.s": (tracer.mean_ns("trainer.replay") / 1e9, "s"),
        "trainer.converged": (session.converged, "count"),
        "graphio.to_dot.ms": (ms("graphio.to_dot"), "ms"),
        "graphio.to_gexf.ms": (ms("graphio.to_gexf"), "ms"),
        "graphio.read_gexf.ms": (ms("graphio.read_gexf"), "ms"),
        "graphio.bytes": (tracer.counts["graphio.bytes"], "bytes"),
        "runio.write.calls": (tracer.calls("runio.write"), "count"),
        "runio.write.bytes": (tracer.counts["runio.write.bytes"], "bytes"),
        "runio.write.ms": (ms("runio.write"), "ms"),
        "runio.save_agent.ms": (ms("runio.save_agent"), "ms"),
        "runio.load_agent.ms": (ms("runio.load_agent"), "ms"),
        "metrics.degree_distribution.ms": (ms("metrics.degree_distribution"), "ms"),
        "metrics.summary_table.ms": (ms("metrics.summary_table"), "ms"),
    })
    for command in ("train", "eval", "export-graph", "stats", "table2"):
        values[f"cli.{command}.s"] = (tracer.mean_ns(f"cli.{command}") / 1e9, "s")

    layers = tracer.layer_self_ns()
    traced_ns = sum(layers.values())
    for layer in ("cartpole", "discretize", *KINDS, "trainer", "graphio", "runio",
                  "metrics", "cli"):
        share = 100.0 * layers.get(layer, 0) / traced_ns if traced_ns else 0.0
        values[f"share.{layer}"] = (share, "%")

    mismatches = reconcile(tracer, session)
    values["trace.complete"] = (0 if mismatches else 1, "flag")
    values["trace.overhead_pct"] = (overhead_pct, "%")
    values["trace.wrap_ns"] = (wrap_ns, "ns")
    return values, mismatches


def reconcile(tracer, session) -> list[str]:
    """Trace counts that disagree with the counts the program reported."""
    from workloads import KINDS

    s = session
    trained_steps = s.train_steps + s.replay_steps
    trained_episodes = s.train_episodes + s.replay_episodes
    checks = [
        ("cartpole.step", trained_steps + s.eval_steps),
        ("cartpole.reset", trained_episodes + s.eval_episodes),
        # training looks up the reset state and every next state; evaluation
        # looks up the state before every step
        ("discretize", trained_steps + trained_episodes + s.eval_steps),
    ]
    checks += [(f"{kind}.stats", session.stats_calls[kind]) for kind in KINDS]
    return [f"{name}: traced {tracer.calls(name)} calls, program reported {want}"
            for name, want in checks if tracer.calls(name) != want]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-converge", "train-churn", "artifacts"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup_s = measure_setup_s()
        import workloads
        expected = workloads.load_fingerprints().get(args.workload, {})
    except (RuntimeError, ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    try:
        return measure(args, setup_s, expected)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def measure(args, setup_s: float, expected: dict) -> int:
    import workloads
    from tracing import Tracer, wrap_cost_ns

    sessions = []
    if args.trace == 0:
        with Tracer(spans=False) as tracer:
            session = workloads.Session(args.workload, args.seed, tracer, expected)
            session.run(seconds=args.seconds)
        sessions.append(session)
        # times are scaled to the reference speed (see workloads.REFERENCE_NS)
        scale = session.speed_scale()
        metrics = {
            "step_us": (session.step_us() * scale, "us"),
            **{f"step_us.{kind}": (session.step_us(kind) * scale, "us")
               for kind in workloads.KINDS},
            "setup_s": (setup_s * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"unscaled: step_us={session.step_us():.6g} setup_s={setup_s:.6g}; "
              f"reference loop median {workloads.REFERENCE_NS / scale:.0f} ns, "
              f"scale {scale:.4f}")
        mismatches = []
    else:
        with Tracer(spans=False) as tracer:
            plain = workloads.Session(args.workload, args.seed, tracer, expected)
            plain.run(seconds=args.seconds / 2)
        with Tracer(spans=True) as tracer:
            traced = workloads.Session(args.workload, args.seed, tracer, expected)
            traced.run(rounds=plain.rounds)
        sessions += [plain, traced]
        overhead_pct = 100.0 * (traced.wall_ns() / plain.wall_ns() - 1.0)
        metrics, mismatches = layer_metrics(tracer, traced, overhead_pct, wrap_cost_ns())
        tracer.write_spans(workloads.WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    failures = [f for s in sessions for f in s.failures()]
    attempted = sum(len(s.ops) for s in sessions)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for mismatch in mismatches:
        print(f"trace incomplete: {mismatch}", file=sys.stderr)

    last = sessions[-1]
    print(f"workload={args.workload} seed={args.seed} rounds={last.rounds} "
          f"ops={attempted} failed={len(failures)} training_steps={last.train_steps} "
          f"converged={last.converged}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
