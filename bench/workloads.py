"""The benchmark's workloads, driven through bmu_lab's public entry points.

`train-converge` and `train-churn` call `multi_seed` once per (agent,
training seed); `artifacts` calls `bmu_lab.cli.main` once per command. A
run is a sequence of rounds. Every round gives each of the four agents the
same share of work, and a run only ever completes whole rounds, so the
agent mix, and with it `step_us`, does not depend on where the clock ran
out. See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bmu_lab  # noqa: E402

if Path(bmu_lab.__file__).resolve().parent != SRC / "bmu_lab":
    raise ImportError(f"bmu_lab must come from {SRC}, got {bmu_lab.__file__}")

from bmu_lab import multi_seed  # noqa: E402
from bmu_lab.cli import main as cli_main  # noqa: E402
from bmu_lab.runio import config_from_entries, parse_config_text  # noqa: E402

from tracing import Tracer  # noqa: E402

KINDS = ("synaptic", "bmu", "bmu-pool", "qtable")
WORKLOADS = ("train-converge", "train-churn", "artifacts")
CONFIG_DIR = BENCH_DIR / "configs"
FINGERPRINT_FILE = BENCH_DIR / "fingerprints.json"
WORK_DIR = ROOT / ".bench_work"

# workload seed s trains seeds s*1000, s*1000+1, ...: seed 0 gives the
# acceptance seeds 0-9 and every other workload seed gives unseen ones
SEED_STRIDE = 1000
# with matched optimistic init these three walk the same trajectory; the
# configs of these workloads match their inits
MATCHED_KINDS = ("synaptic", "bmu", "qtable")
MATCHED_WORKLOADS = ("train-converge", "artifacts")
# The host's speed drifts by up to 1.5x for minutes at a time, and the CPU
# time seen inside the machine drifts with it. A fixed pure-Python loop,
# timed between rounds, measures that speed. Reported times are scaled to
# the speed at which the loop takes REFERENCE_NS (its median on the 2-vCPU
# Xeon VM the benchmark was defined on, in a fast phase).
REFERENCE_LOOPS = 10_000
REFERENCE_SAMPLES = 20
REFERENCE_NS = 700_000
ARTIFACT_SEEDS_PER_AGENT = 2
ARTIFACT_EPISODE = 50
EVAL_EPISODES = 20


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return total


def sample_reference(samples: int = REFERENCE_SAMPLES) -> list[int]:
    """Wall ns of `samples` runs of the reference loop."""
    times = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        reference_loop()
        times.append(time.perf_counter_ns() - start)
    return times


def load_config(workload: str, agent: str, seeds):
    """Parse the pinned config file and validate it for one agent."""
    entries = parse_config_text((CONFIG_DIR / f"{workload}.txt").read_text())
    entries["agent"] = agent
    entries["seeds"] = ",".join(str(s) for s in seeds)
    config = config_from_entries(entries)
    config.validate()
    return config


def load_all_configs() -> None:
    for workload in WORKLOADS:
        for agent in KINDS:
            load_config(workload, agent, (0,))


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINT_FILE.read_text())


def fingerprint(metrics) -> dict:
    """Reward-sequence hash, total steps and outcome of one training run."""
    rewards = ",".join(repr(r) for r in metrics.rewards)
    return {"steps": sum(metrics.steps), "converged": metrics.converged,
            "rewards_sha256": hashlib.sha256(rewards.encode()).hexdigest()[:16]}


@dataclass
class Op:
    """One (agent, seed) training in train-*, one CLI command in artifacts."""

    round: int
    agent: str | None
    command: str
    wall_ns: int
    steps: int = 0
    error: str | None = None


@dataclass
class Session:
    """Runs rounds of one workload and checks every output it produces."""

    workload: str
    seed: int
    tracer: Tracer
    expected: dict = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    rounds: int = 0
    converged: int = 0
    observed: dict = field(default_factory=dict)
    # the program's own counts, for reconciling the trace
    train_steps: int = 0
    train_episodes: int = 0
    replay_steps: int = 0
    replay_episodes: int = 0
    eval_steps: int = 0
    eval_episodes: int = 0
    stats_calls: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    reference_ns: list[int] = field(default_factory=list)
    _tapped: list = field(default_factory=list)
    _round_rewards: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tracer.install(self._on_train, self._on_replay, self._on_evaluate)

    # -- taps on the program's return values ---------------------------

    def _on_train(self, result, args):
        self._tapped.append(result)

    def _on_replay(self, result, args):
        metrics = result.metrics
        self.replay_steps += sum(metrics.steps)
        self.replay_episodes += metrics.episodes_run
        self.stats_calls[args[0].agent] += metrics.episodes_run

    def _on_evaluate(self, report, args):
        self.eval_steps += sum(report.steps)
        self.eval_episodes += len(report.rewards)

    # -- running -------------------------------------------------------

    def run(self, seconds: float | None = None, rounds: int | None = None) -> None:
        """Run whole rounds until `seconds` have passed or `rounds` are done."""
        start = time.perf_counter()
        self.reference_ns += sample_reference()
        while (self.rounds < rounds if rounds is not None
               else time.perf_counter() - start < seconds):
            if self.workload == "artifacts":
                self._artifacts_round(self.rounds)
            else:
                self._train_round(self.rounds)
            if self.workload in MATCHED_WORKLOADS:
                self._check_matched()
            self._round_rewards.clear()
            self.rounds += 1
            self.reference_ns += sample_reference()

    def _call(self, span: str, fn, *args):
        """Time one call into the program; returns (result, wall ns, error)."""
        if self.tracer.spans_on:
            fn = self.tracer.wrap(span, fn)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception:  # an op that raises is a failed op, not a crash
            return None, time.perf_counter_ns() - start, traceback.format_exc()
        return result, time.perf_counter_ns() - start, None

    def _record_training(self, op: Op, metrics) -> None:
        """Count one training run and check it against the recorded one."""
        self.train_steps += sum(metrics.steps)
        self.train_episodes += metrics.episodes_run
        self.stats_calls[op.agent] += metrics.episodes_run
        self.converged += int(metrics.converged)
        op.steps += sum(metrics.steps)
        key = f"{op.agent}/{metrics.seed}"
        seen = fingerprint(metrics)
        self.observed[key] = seen
        want = self.expected.get(key)
        if want is not None and want != seen and op.error is None:
            op.error = f"{key}: fingerprint {seen} differs from recorded {want}"
        self._round_rewards[op.agent, metrics.seed] = (op, metrics.rewards)

    def _check_matched(self) -> None:
        """Under matched init, bmu and qtable must reproduce synaptic's rewards."""
        reference, *others = MATCHED_KINDS
        for (agent, seed), (op, rewards) in self._round_rewards.items():
            if agent not in others or op.error is not None:
                continue
            want = self._round_rewards.get((reference, seed))
            if want is None or want[1] != rewards:
                op.error = (f"seed {seed}: {agent} rewards differ from "
                            f"{reference} under matched init")

    def _train_round(self, index: int) -> None:
        seed = self.seed * SEED_STRIDE + index
        for agent in KINDS:
            config = load_config(self.workload, agent, (seed,))
            result, wall, error = self._call("trainer.multi_seed", multi_seed, config)
            op = Op(self.rounds, agent, "multi_seed", wall, error=error)
            self.ops.append(op)
            self._tapped.clear()
            if error is None:
                (train_result,) = result[1]
                self._record_training(op, train_result.metrics)

    def _cli(self, agent: str | None, argv: list[str], check=None) -> Op:
        """Run one `bmu-lab` command, then `check(stdout)` on its outputs."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, wall, error = self._call(f"cli.{argv[0]}", cli_main, argv)
        if error is None and code != 0:
            error = f"`bmu-lab {' '.join(argv)}` exited {code}"
        if error is None and check is not None:
            try:
                error = check(out.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {exc!r}"
        op = Op(self.rounds, agent, argv[0], wall, error=error)
        self.ops.append(op)
        return op

    def _artifacts_round(self, index: int) -> None:
        base = self.seed * SEED_STRIDE + index * ARTIFACT_SEEDS_PER_AGENT
        seeds = [base + i for i in range(ARTIFACT_SEEDS_PER_AGENT)]
        WORK_DIR.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="artifacts-", dir=WORK_DIR))
        try:
            run_dirs = [self._artifacts_agent(agent, seeds, scratch / agent)
                        for agent in KINDS]
            table = scratch / "table2.csv"

            def one_row_per_agent(_text):
                agents = [line.split(",")[0] for line in table.read_text().splitlines()[1:]]
                if agents != list(KINDS):
                    return f"table2 rows {agents}, expected {list(KINDS)}"
                return None

            self._cli(None, ["table2", "--runs", *map(str, run_dirs), "--out", str(table)],
                      one_row_per_agent)
        finally:
            shutil.rmtree(scratch)

    def _artifacts_agent(self, agent: str, seeds: list[int], run_dir: Path) -> Path:
        first = seeds[0]
        config = str(CONFIG_DIR / "artifacts.txt")
        seed_list = ",".join(map(str, seeds))
        self._tapped.clear()
        op = self._cli(agent, ["train", "--config", config, "--agent", agent,
                               "--seed-list", seed_list, "--out", str(run_dir)])
        trained = sorted(self._tapped, key=lambda r: r.metrics.seed)
        if op.error is None and [r.metrics.seed for r in trained] != seeds:
            op.error = (f"train reported seeds {[r.metrics.seed for r in trained]}, "
                        f"expected {seeds}")
        for result in trained:
            self._record_training(op, result.metrics)
            # execute_train_run summarises each seed with one more stats() call
            self.stats_calls[agent] += 1

        def eval_episodes(_text):
            summary = json.loads((run_dir / f"eval_seed{first}" / "summary.json").read_text())
            if summary["episodes"] != EVAL_EPISODES:
                return f"eval ran {summary['episodes']} episodes, not {EVAL_EPISODES}"
            return None

        def export_matches_snapshot(_text):
            for suffix in ("dot", "gexf"):
                name = f"graph_ep{ARTIFACT_EPISODE}.{suffix}"
                exported = (run_dir / "export" / name).read_bytes()
                if exported != (run_dir / f"seed{first}" / name).read_bytes():
                    return f"export-graph {name} differs from the training snapshot"
            return None

        def degree_handshake(text):
            edges = int(text.split("edges=", 1)[1].split()[0])
            hist = (run_dir / f"stats_seed{first}" / "degree_hist.csv").read_text()
            rows = [line.split(",") for line in hist.splitlines()[1:]]
            degree_sum = sum(int(d) * int(c) for d, c in rows)
            if degree_sum != 2 * edges:
                return f"degree sum {degree_sum} != 2 * {edges} edges"
            return None

        self._cli(agent, ["eval", "--run", str(run_dir), "--episodes", str(EVAL_EPISODES)],
                  eval_episodes)
        self._cli(agent, ["export-graph", "--run", str(run_dir),
                          "--episode", str(ARTIFACT_EPISODE)], export_matches_snapshot)
        self._cli(agent, ["stats", "--run", str(run_dir)], degree_handshake)
        return run_dir

    # -- results -------------------------------------------------------

    def failures(self) -> list[str]:
        return [f"{op.command} {op.agent or ''}: {op.error}" for op in self.ops if op.error]

    def wall_ns(self) -> int:
        return sum(op.wall_ns for op in self.ops)

    def speed_scale(self) -> float:
        """Factor that scales this run's times to the reference speed."""
        return REFERENCE_NS / statistics.median(self.reference_ns)

    def step_us(self, agent: str | None = None) -> float:
        """Median over rounds of wall ns per training step, in µs.

        Each round's figure is its ops' wall time over their training steps
        (only `agent`'s ops, if given). The median over rounds, not one
        ratio over the run, keeps a slow spell on a shared machine from
        moving the result.
        """
        rates = []
        for index in range(self.rounds):
            ops = [op for op in self.ops
                   if op.round == index and (agent is None or op.agent == agent)]
            steps = sum(op.steps for op in ops)
            if steps:
                rates.append(sum(op.wall_ns for op in ops) / steps / 1000.0)
        if not rates:
            raise RuntimeError(f"no training steps were reported for {agent or 'any agent'}")
        return statistics.median(rates)
