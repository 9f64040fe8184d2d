"""Run-directory persistence: write-once files, atomic run directories,
evaluation CSVs."""

import contextlib
import errno
import gc
import io
import json
import os
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_run_digests import KINDS, MANIFEST, SETTINGS, file_digests

from bmu_lab import runio, trainer
from bmu_lab.cli import main
from bmu_lab.config import TrainConfig, config_from_entries
from bmu_lab.graphio import to_dot, to_gexf
from bmu_lab.runio import execute_train_run, write_text
from bmu_lab.trainer import evaluate, train

TINY = TrainConfig(agent="qtable", max_episodes=3, seeds=(0, 1))


def test_second_write_raises_and_keeps_first_bytes(tmp_path):
    path = tmp_path / "artifact.csv"
    write_text(path, "first\n")
    with pytest.raises(FileExistsError):
        write_text(path, "second, longer text\n")
    assert path.read_bytes() == b"first\n"


def test_failed_write_leaves_no_half_run(tmp_path, monkeypatch):
    out = tmp_path / "run"
    written = []

    def fail_on_fifth(path, text):
        if len(written) == 4:
            raise OSError("disk full")
        write_text(path, text)
        written.append(path)

    monkeypatch.setattr(runio, "write_text", fail_on_fifth)
    with pytest.raises(OSError, match="disk full"):
        execute_train_run(TINY, out)
    assert len(written) == 4
    assert list(tmp_path.iterdir()) == []  # neither a half-run nor a temp directory

    monkeypatch.undo()
    summary = execute_train_run(TINY, out)
    assert summary["seeds"] == [0, 1]
    assert (out / "seed1" / "summary.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_empty_run_dir_is_filled_with_the_usual_permissions(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    reference = tmp_path / "reference"
    reference.mkdir()
    execute_train_run(TINY, out)
    assert (out / "summary.json").is_file()
    assert out.stat().st_mode == reference.stat().st_mode


def test_non_empty_run_dir_refused_and_untouched(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("keep\n")
    with pytest.raises(FileExistsError, match="not empty"):
        execute_train_run(TINY, out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_run_dir_filled_during_training_is_refused(tmp_path, monkeypatch):
    out = tmp_path / "run"
    train_each = runio.seed_runs

    def train_then_collide(config):
        yield from train_each(config)
        out.mkdir()
        (out / "notes.txt").write_text("keep\n")

    monkeypatch.setattr(runio, "seed_runs", train_then_collide)
    with pytest.raises(FileExistsError, match="not empty"):
        execute_train_run(TINY, out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_empty_run_dir_made_during_training_is_refused_not_replaced(tmp_path, monkeypatch):
    """os.rename would silently replace an empty directory made meanwhile."""
    out = tmp_path / "run"
    train_each = runio.seed_runs
    made = []

    def train_then_make(config):
        yield from train_each(config)
        out.mkdir()
        made.append(out.stat().st_ino)

    monkeypatch.setattr(runio, "seed_runs", train_then_make)
    with pytest.raises(FileExistsError, match="was made while it was being written"):
        execute_train_run(TINY, out)
    assert out.stat().st_ino == made[0]
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_each_seed_is_dropped_before_the_next_trains(tmp_path, monkeypatch):
    """Train, render, drop: no earlier seed's agent is alive when a seed starts."""
    real_train = trainer.train
    agents = []
    alive_at_start = []

    def train(config, seed):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in agents))
        result = real_train(config, seed)
        agents.append(weakref.ref(result.agent))
        return result

    monkeypatch.setattr(trainer, "train", train)
    execute_train_run(replace(TINY, seeds=(0, 1, 2)), tmp_path / "run")
    assert alive_at_start == [0, 0, 0]
    assert len(agents) == 3


def test_training_error_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    """An error raised while the second seed trains is one error line, exit 1,
    and no run directory, temporary sibling or parent made for it."""
    real_train = trainer.train
    seeds = []

    def fail_on_second(config, seed):
        seeds.append(seed)
        if len(seeds) == 2:
            raise RuntimeError("training broke")
        return real_train(config, seed)

    monkeypatch.setattr(trainer, "train", fail_on_second)
    out = tmp_path / "parent" / "run"
    assert main(["train", "--agent", "qtable", "--seeds", "3", "--max-episodes", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: training broke\n"
    assert seeds == [0, 1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", KINDS)
def test_int_in_a_float_field_replays_to_the_same_bytes(tmp_path, kind):
    """A run whose float fields hold ints writes config.txt and agent.json
    as the replay from its own config.txt writes them."""
    config = TrainConfig(agent=kind, alpha=1, convergence_reward=200, epsilon=0,
                         max_episodes=3)
    execute_train_run(config, tmp_path / "run")
    execute_train_run(runio.load_run_config(tmp_path / "run"), tmp_path / "replay")
    assert file_digests(tmp_path / "run") == file_digests(tmp_path / "replay")


def trajectory_csv(trajectory) -> str:
    """Oracle: the per-episode trajectory_ep<N>.csv that eval wrote before
    its episodes were joined into one trajectories.csv."""
    lines = ["t,x,x_dot,theta,theta_dot,action,reward,terminated"]
    for t, x, x_dot, theta, theta_dot, action, reward, terminated in trajectory:
        lines.append(f"{t},{x!r},{x_dot!r},{theta!r},{theta_dot!r},{action},{reward!r},"
                     f"{'true' if terminated else 'false'}")
    return "\n".join(lines) + "\n"


def test_trajectories_csv_matches_the_per_episode_oracle():
    """trajectories.csv is the per-episode files' rows, each prefixed with
    its episode, under one header: byte for byte."""
    config = TrainConfig(max_episodes=5)
    report = evaluate(train(config, 0).agent, config, 7, n_episodes=4)
    assert len(set(report.steps)) > 1  # episodes of different lengths
    expected = ["episode,t,x,x_dot,theta,theta_dot,action,reward,terminated\n"]
    for episode, trajectory in enumerate(report.trajectories, start=1):
        rows = trajectory_csv(trajectory).splitlines(keepends=True)[1:]
        expected += [f"{episode},{row}" for row in rows]
    assert {row.rsplit(",", 1)[1] for row in expected[1:]} == {"false\n", "true\n"}
    assert dict(runio.eval_files(report))["trajectories.csv"] == "".join(expected)


@pytest.mark.parametrize("config, episodes_run, failed, graphs, renders", [
    # the last episode is a cadence one: its snapshot keeps both formats, and
    # as the final snapshot it is rendered once
    (TrainConfig(max_episodes=12, convergence_window=12, snapshot_every=4), 12, False,
     ["graph_ep4.dot", "graph_ep8.dot", "graph_ep12.dot", "graph_ep12.gexf"], (3, 1)),
    # converged at episode 3, past the last cadence: no cadence GEXF at all
    (TrainConfig(convergence_reward=-1000.0, convergence_window=3, max_episodes=10,
                 snapshot_every=2), 3, False, ["graph_ep2.dot"], (2, 1)),
    # the pool runs out in episode 22, after the cadence snapshot of episode 21,
    # before any update: that snapshot is still the final one
    (TrainConfig(agent="bmu-pool", pool_capacity=40, max_episodes=30, snapshot_every=7),
     21, True, ["graph_ep7.dot", "graph_ep14.dot", "graph_ep21.dot", "graph_ep21.gexf"],
     (3, 1)),
    # the pool runs out part-way through episode 8, after updates: the
    # snapshot of episode 7 differs from the final one and is rendered apart
    (TrainConfig(agent="bmu-pool", pool_capacity=20, max_episodes=30, snapshot_every=7),
     7, True, ["graph_ep7.dot", "graph_ep7.gexf"], (2, 2)),
], ids=["ends-on-cadence", "stops-between-cadences", "pool-fails", "pool-fails-mid-episode"])
def test_seed_directory_graph_files(monkeypatch, config, episodes_run, failed, graphs,
                                    renders):
    """Cadence snapshots are DOT only, but for the one at the seed's last
    recorded episode; graph_final is in both formats. Each text is the
    rendering of its own snapshot, and no snapshot is rendered twice."""
    rendered = {"dot": [], "gexf": []}
    for fmt, render in (("dot", runio.to_dot), ("gexf", runio.to_gexf)):
        monkeypatch.setattr(runio, f"to_{fmt}", lambda snapshot, render=render, fmt=fmt: (
            rendered[fmt].append(snapshot) or render(snapshot)))
    result = train(config, 0)
    files = dict(runio.seed_files(config, result))
    assert (result.metrics.episodes_run, result.metrics.failed is not None) == (
        episodes_run, failed)
    assert sorted(name.split("/")[1] for name in files if "/graph_" in name) == sorted(
        ["graph_final.dot", "graph_final.gexf", *graphs])
    assert (len(rendered["dot"]), len(rendered["gexf"])) == renders
    snapshots = {f"graph_ep{episode}": snapshot
                 for episode, snapshot in result.snapshots.items()}
    snapshots["graph_final"] = result.agent.snapshot()
    for name, text in files.items():
        stem, _, suffix = name.split("/")[1].partition(".")
        if stem.startswith("graph_"):
            assert text == (to_dot if suffix == "dot" else to_gexf)(snapshots[stem]), name


def test_commit_checks_every_target_before_the_first_write(tmp_path, monkeypatch):
    shared = tmp_path / "shared"
    shared.mkdir()
    (shared / "b.txt").write_text("keep\n")
    written = []
    monkeypatch.setattr(runio, "write_text", lambda path, text: written.append(path))
    with pytest.raises(FileExistsError, match="b.txt already exists"):
        runio.commit(shared, {"a.txt": "new\n", "b.txt": "new\n"})
    assert written == []
    assert [p.name for p in shared.iterdir()] == ["b.txt"]


def test_commit_fills_an_existing_empty_directory_in_place(tmp_path, monkeypatch):
    """A rename onto it would drop its mode, and leave a process whose
    working directory it is in a deleted directory."""
    private = tmp_path / "private"
    private.mkdir(mode=0o700)
    before = private.stat()
    runio.commit(private, {"table2.csv": "a,b\n"})
    assert (private.stat().st_ino, private.stat().st_mode) == (before.st_ino, before.st_mode)
    monkeypatch.chdir(private)
    runio.commit(Path("."), {"seed0/rewards.csv": "episode\n"})
    assert os.stat(".").st_ino == before.st_ino
    assert sorted(p.name for p in private.rglob("*")) == ["rewards.csv", "seed0", "table2.csv"]


def test_failed_write_leaves_no_partial_file(tmp_path):
    path = tmp_path / "half.csv"
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "written\n" + "\ud800")  # a lone surrogate has no UTF-8
    assert list(tmp_path.iterdir()) == []


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under `root`, hidden ones included, with a file's bytes."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def manifest_part(kind: str, command: str) -> dict[str, str]:
    """The recorded digests of what `command` writes, relative to its output."""
    recorded = json.loads(MANIFEST.read_text())[kind]
    if command == "train":
        return {name: digest for name, digest in recorded.items()
                if not name.startswith(("eval_", "export/", "stats_"))}
    prefix = {"eval": "eval_seed3/", "export-graph": "export/", "stats": "stats_seed3/"}[command]
    return {name[len(prefix):]: digest for name, digest in recorded.items()
            if name.startswith(prefix)}


def command_argv(command: str, root: Path, kind: str, out: Path) -> list[str]:
    run = str(root / "run")
    return {
        "train": ["train", "--config", str(root / "settings.txt"), "--agent", kind],
        "eval": ["eval", "--run", run, "--episodes", "3"],
        "export-graph": ["export-graph", "--run", run, "--episode", "5"],
        "stats": ["stats", "--run", run],
        "table2": ["table2", "--runs", run],
    }[command] + ["--out", str(out / "table2.csv" if command == "table2" else out)]


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["train", "eval", "export-graph", "stats", "table2"])
@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(KINDS), shared=st.booleans(), data=st.data())
def test_any_failed_write_leaves_the_tree_as_it_was(command, kind, shared, data):
    """Failing the k-th write of a command, for any k, is one error line and
    no change under the root; the re-run then writes the recorded files.

    The output goes to a directory whose parents do not exist yet, or to
    one that exists already: empty for `train`, which refuses a filled one,
    and holding another file for the rest.
    """
    # the manifest pins every file but table2's one table
    expected = manifest_part(kind, command) if command != "table2" else {}
    writes = len(expected) if command != "table2" else 1
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "settings.txt").write_text(
            "".join(f"{key} = {value}\n" for key, value in SETTINGS.items()))
        config = config_from_entries({**SETTINGS, "agent": kind})
        if command != "train":
            execute_train_run(config, root / "run")
        out = root / "shared" if shared else root / "new" / "deeper" / "out"
        if shared:
            out.mkdir()
            if command != "train":
                (out / "notes.txt").write_text("keep\n")
        argv = command_argv(command, root, kind, out)
        before = tree(root)

        k = data.draw(st.integers(1, writes), label="k")
        calls = []
        real_write = runio.write_text

        def write_text_failing_on_k(path, text):
            calls.append(path)
            if len(calls) == k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            real_write(path, text)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runio, "write_text", write_text_failing_on_k)
            code, err = run_main(argv)
        assert len(calls) == k
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert tree(root) == before

        assert run_main(argv) == (0, "")
        written = {name: digest for name, digest in file_digests(out).items()
                   if name != "notes.txt"}
        if command == "table2":
            header, row = (out / "table2.csv").read_text().splitlines()
            assert header.startswith("agent,init,") and row.startswith(f"{kind},{config.init},")
            # the run it read is still the recorded one
            assert file_digests(root / "run") == manifest_part(kind, "train")
        else:
            assert written == expected
