"""Outside-in tracing of bmu_lab: spans around the calls into each module.

The benchmark patches public functions and agent methods *where they are
looked up*. The trainer, runio and cli import names directly (`from
.discretize import discretize`), so the wrapper for `discretize` goes on
`bmu_lab.trainer.discretize`, the one for `to_gexf` on
`bmu_lab.runio.to_gexf`, and so on; a wrapper on the defining module
would never be called and its span would silently read zero.

Each span has a name, a start, an end and a parent (the span open when it
started). Spans are folded into per-name totals as they close: calls,
inclusive ns and self ns (inclusive minus the time covered by direct
children). The first `MAX_KEPT_SPANS` raw spans are also kept and can be
written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

MAX_KEPT_SPANS = 20000

AGENT_METHODS = ("ensure", "select", "update", "stats", "snapshot")


class Tracer:
    """Span recorder plus the patches that feed it.

    With `spans=False` only the taps are installed: thin wrappers that
    hand a public function's return value to a callback and time nothing.
    """

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.stack: list[list] = []  # open spans: [name, child ns]
        # per span name: [calls, inclusive ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.kept: list[tuple[str, int, int, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """Time every call of `fn` as span `name`; pass results to `on_result`.

        The bookkeeping is inlined: the wrapper's own cost lands in the
        parent span's self time, so it is kept as small as it can be and
        reported as `trace.wrap_ns`.
        """
        stack = self.stack
        kept = self.kept
        entry = self.totals[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(kept) < MAX_KEPT_SPANS:
                    kept.append((name, start, end, parent[0] if parent else None))
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def tap(self, fn, on_result):
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, args)
            return result

        return tapped

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None, tap=False) -> None:
        """Wrap `owner.attr` as span `name`; untraced, only taps are installed."""
        original = getattr(owner, attr)
        if self.spans_on:
            replacement = self.wrap(name, original, on_result)
        elif tap:
            replacement = self.tap(original, on_result)
        else:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self, on_train, on_replay, on_evaluate) -> None:
        """Patch every layer boundary of bmu_lab.

        `on_train`, `on_replay` and `on_evaluate` receive the TrainResult or
        EvalReport the program returns, so the benchmark can read the
        program's own step counts. They are installed in untraced runs too.
        """
        from bmu_lab import bmu, cartpole, cli, qtable, runio, synaptic, trainer

        count = self.counts

        def on_text(key):
            def record(text, _args):
                count[key] += len(text.encode())
            return record

        def on_write(_result, args):
            count["runio.write.bytes"] += len(args[1].encode())

        self.patch(cartpole.CartPoleEnv, "step", "cartpole.step")
        self.patch(cartpole.CartPoleEnv, "reset", "cartpole.reset")
        self.patch(trainer, "discretize", "discretize")
        for cls in (synaptic.SynapticAgent, bmu.BmuAgent, bmu.PoolAgent,
                    qtable.QTableAgent):
            for method in AGENT_METHODS:
                on_spawn = None
                if method == "ensure":
                    key = f"{cls.kind}.spawns"

                    def on_spawn(spawned, _args, key=key):
                        count[key] += int(spawned)
                self.patch(cls, method, f"{cls.kind}.{method}", on_spawn)
        self.patch(trainer, "run_episode", "trainer.run_episode")
        # multi_seed looks up `train` in the trainer module; export-graph's
        # replay calls the name cli imported
        self.patch(trainer, "train", "trainer.train", on_train, tap=True)
        self.patch(cli, "train", "trainer.replay", on_replay, tap=True)
        self.patch(runio, "evaluate", "trainer.evaluate", on_evaluate, tap=True)
        self.patch(cli, "evaluate", "trainer.evaluate", on_evaluate, tap=True)
        self.patch(runio, "to_dot", "graphio.to_dot", on_text("graphio.bytes"))
        self.patch(runio, "to_gexf", "graphio.to_gexf", on_text("graphio.bytes"))
        self.patch(cli, "read_gexf", "graphio.read_gexf")
        self.patch(runio, "write_text", "runio.write", on_write)
        self.patch(runio, "save_agent", "runio.save_agent")
        self.patch(cli, "load_agent", "runio.load_agent")
        self.patch(runio, "degree_distribution", "metrics.degree_distribution")
        self.patch(cli, "summary_table", "metrics.summary_table")

    # -- results -------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def mean_ns(self, name: str) -> float:
        if name not in self.totals or self.totals[name][0] == 0:
            return 0.0
        calls, inclusive, _ = self.totals[name]
        return inclusive / calls

    def self_ns(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed by layer, the span-name prefix before the first dot."""
        layers: dict[str, int] = defaultdict(int)
        for name, (_, _, own) in self.totals.items():
            layers[name.split(".", 1)[0]] += own
        return dict(layers)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent in self.kept:
                handle.write(json.dumps({"name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent}) + "\n")


def wrap_cost_ns(calls: int = 200_000) -> float:
    """Cost of one empty wrapped call, net of the bare call."""
    def empty():
        return None

    tracer = Tracer(spans=True)
    wrapped = tracer.wrap("empty", empty)
    best = []
    for fn in (empty, wrapped):
        runs = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter_ns() - start)
        best.append(sorted(runs)[2] / calls)
    return best[1] - best[0]
